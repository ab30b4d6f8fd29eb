package mediator

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"qporder/internal/schema"
)

// countProducers counts live pipelined-producer goroutines by stack
// inspection.
func countProducers() int {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	return strings.Count(stacks, "mediator.(*System).pipelined")
}

// TestRunContextCancelMidStream cancels a pipelined Run between plan
// executions and asserts (a) the run stops with StopCanceled and a
// partial result, (b) the producer goroutine exits, and (c) the plans the
// pipeline pulled ahead are stashed cleanly: a later Run resumes with no
// plan lost or duplicated.
func TestRunContextCancelMidStream(t *testing.T) {
	// Reference: the full plan sequence of an uncanceled sequential run.
	cfg, eng, _ := fixture(t)
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(eng, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Executed) < 3 {
		t.Fatalf("fixture too small for a mid-stream cancel: %d plans", len(want.Executed))
	}

	cfg, eng, _ = fixture(t)
	cfg.Parallelism = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.OnPlan = func(e PlanEvent) {
		if e.Index == 1 {
			cancel() // cancel after the first plan, mid-stream
		}
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := countProducers()
	r1, err := sys.RunContext(ctx, eng, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stopped != StopCanceled {
		t.Fatalf("Stopped = %s, want %s", r1.Stopped, StopCanceled)
	}
	if len(r1.Executed) != 1 {
		t.Errorf("canceled run executed %d plans, want 1", len(r1.Executed))
	}

	// The producer must be gone once RunContext returns (drain waits for
	// it); poll briefly to absorb scheduler lag.
	deadline := time.Now().Add(2 * time.Second)
	for countProducers() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := countProducers(); n > before {
		t.Errorf("producer goroutines leaked: %d running after cancel (was %d)", n, before)
	}

	// Resume with a fresh context: stashed plans first, then the rest —
	// the combined sequence must equal the uncanceled reference exactly.
	sys.cfg.OnPlan = nil
	r2, err := sys.RunContext(context.Background(), eng, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stopped != StopExhausted {
		t.Errorf("resumed run stopped %s, want %s", r2.Stopped, StopExhausted)
	}
	var got []string
	for _, pq := range append(append([]*schema.Query{}, r1.Executed...), r2.Executed...) {
		got = append(got, pq.String())
	}
	if len(got) != len(want.Executed) {
		t.Fatalf("cancel+resume executed %d plans, want %d", len(got), len(want.Executed))
	}
	for i, pq := range want.Executed {
		if got[i] != pq.String() {
			t.Errorf("plan %d differs after cancel+resume: %s vs %s", i, got[i], pq)
		}
	}
}

// TestRunContextPreCanceled: a Run whose context is already canceled
// executes nothing, latches nothing, and leaves the system usable.
func TestRunContextPreCanceled(t *testing.T) {
	cfg, eng, _ := fixture(t)
	cfg.Parallelism = 2
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := sys.RunContext(ctx, eng, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stopped != StopCanceled || len(r.Executed) != 0 {
		t.Errorf("pre-canceled run: stopped=%s executed=%d", r.Stopped, len(r.Executed))
	}
	r2, err := sys.Run(eng, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stopped != StopExhausted || len(r2.Executed) == 0 {
		t.Errorf("run after pre-canceled run: stopped=%s executed=%d", r2.Stopped, len(r2.Executed))
	}
}

// TestOnPlanEvents: every executed plan yields exactly one event carrying
// the fresh answers, and the event stream mirrors the result.
func TestOnPlanEvents(t *testing.T) {
	cfg, eng, _ := fixture(t)
	var events []PlanEvent
	cfg.OnPlan = func(e PlanEvent) { events = append(events, e) }
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(eng, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(res.Executed) {
		t.Fatalf("%d events for %d executed plans", len(events), len(res.Executed))
	}
	total := 0
	for i, e := range events {
		if e.Index != i+1 {
			t.Errorf("event %d has index %d", i, e.Index)
		}
		if e.Plan.String() != res.Executed[i].String() {
			t.Errorf("event %d plan %s != executed %s", i, e.Plan, res.Executed[i])
		}
		if len(e.NewAnswers) != res.NewAnswers[i] {
			t.Errorf("event %d carries %d answers, result says %d", i, len(e.NewAnswers), res.NewAnswers[i])
		}
		total += len(e.NewAnswers)
		if e.TotalAnswers != total {
			t.Errorf("event %d total %d, want %d", i, e.TotalAnswers, total)
		}
	}
	if total != res.Answers.Len() {
		t.Errorf("events carried %d answers, result has %d", total, res.Answers.Len())
	}
}

// TestPreparedSharing: Systems built from one Prepared value order the
// same plans as a System that reformulates itself, and concurrent use of
// a shared Prepared is safe (exercised harder under -race).
func TestPreparedSharing(t *testing.T) {
	cfg, _, _ := fixture(t)
	prep, err := Prepare(cfg.Query, cfg.Catalog, Buckets)
	if err != nil {
		t.Fatal(err)
	}
	if prep.PlanSpaceSize() == 0 {
		t.Fatal("prepared plan space empty")
	}

	run := func(c Config) []string {
		_, eng, _ := fixture(t)
		sys, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(eng, Budget{})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, pq := range res.Executed {
			out = append(out, pq.String())
		}
		return out
	}
	direct := run(cfg)

	pcfg := Config{Prepared: prep, Measure: cfg.Measure}
	shared := run(pcfg)
	if len(direct) != len(shared) {
		t.Fatalf("prepared run executed %d plans, direct %d", len(shared), len(direct))
	}
	for i := range direct {
		if direct[i] != shared[i] {
			t.Errorf("plan %d differs: %s vs %s", i, direct[i], shared[i])
		}
	}

	// Concurrent Systems over the same Prepared value.
	const workers = 4
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			_, eng, _ := fixture(t)
			sys, err := New(Config{Prepared: prep, Measure: cfg.Measure, Parallelism: 2})
			if err != nil {
				errs <- err
				return
			}
			_, err = sys.Run(eng, Budget{})
			errs <- err
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
