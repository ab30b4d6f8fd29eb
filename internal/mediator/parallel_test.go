package mediator

import (
	"sync"
	"testing"
	"time"

	"qporder/internal/costmodel"
	"qporder/internal/execsim"
	"qporder/internal/lav"
	"qporder/internal/measure"
	"qporder/internal/obs"
	"qporder/internal/schema"
)

func chainMeasure(entries *lav.Catalog) measure.Measure {
	return costmodel.NewChainCost(entries, costmodel.Params{N: 10000})
}

// wideFixture extends the movie fixture with more sources per bucket so
// the pipeline and the orderer's parallel paths have real work.
func wideFixture(t *testing.T) (Config, func() *execsim.Engine) {
	t.Helper()
	cat := lav.NewCatalog()
	stats := func(tuples float64) lav.Stats {
		return lav.Stats{Tuples: tuples, TransmitCost: 1, Overhead: 10}
	}
	defs := []struct {
		def    string
		tuples float64
	}{
		{"V1(A, M) :- play-in(A, M), american(M)", 50},
		{"V2(A, M) :- play-in(A, M)", 35},
		{"V3(A, M) :- play-in(A, M)", 80},
		{"V4(R, M) :- review-of(R, M)", 50},
		{"V5(R, M) :- review-of(R, M)", 20},
		{"V6(R, M) :- review-of(R, M)", 65},
		{"V7(R, M) :- review-of(R, M)", 45},
	}
	for _, d := range defs {
		def := schema.MustParseQuery(d.def)
		cat.MustAdd(def.Name, def, stats(d.tuples))
	}
	world := execsim.GenerateWorld(execsim.WorldConfig{
		Relations: []execsim.RelationSpec{
			{Name: "play-in", Arity: 2}, {Name: "review-of", Arity: 2}, {Name: "american", Arity: 1},
		},
		TuplesPerRelation: 40,
		DomainSize:        9,
		Seed:              6,
	})
	store := execsim.PopulateSources(cat, world, 0.9, 7)
	cfg := Config{
		Catalog: cat,
		Query:   schema.MustParseQuery("Q(M, R) :- play-in(A, M), review-of(R, M)"),
		Measure: chainMeasure,
	}
	return cfg, func() *execsim.Engine { return execsim.NewEngine(cat, store) }
}

// TestPipelinedMatchesSequential is the mediator-level determinism
// guarantee: Parallelism(8) executes the exact plan sequence of the
// sequential mediator and finds the same answers.
func TestPipelinedMatchesSequential(t *testing.T) {
	run := func(parallelism int) *Result {
		cfg, mkEng := wideFixture(t)
		cfg.Parallelism = parallelism
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(mkEng(), Budget{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(0)
	if len(seq.Executed) == 0 {
		t.Fatal("sequential run executed nothing")
	}
	for _, n := range []int{2, 8} {
		par := run(n)
		if len(par.Executed) != len(seq.Executed) {
			t.Fatalf("Parallelism(%d): executed %d plans, sequential %d",
				n, len(par.Executed), len(seq.Executed))
		}
		for i := range seq.Executed {
			if par.Executed[i].String() != seq.Executed[i].String() {
				t.Errorf("Parallelism(%d): plan %d is %s, sequential %s",
					n, i, par.Executed[i], seq.Executed[i])
			}
			if par.Utilities[i] != seq.Utilities[i] {
				t.Errorf("Parallelism(%d): utility %d is %g, sequential %g",
					n, i, par.Utilities[i], seq.Utilities[i])
			}
		}
		if par.Answers.Len() != seq.Answers.Len() {
			t.Errorf("Parallelism(%d): %d answers, sequential %d",
				n, par.Answers.Len(), seq.Answers.Len())
		}
	}
}

// TestPipelinedContinuesAcrossBudgets stops the pipeline after one plan;
// the plans the producer pulled ahead must survive the stop and execute —
// in order — on the next Run, with nothing lost or duplicated.
func TestPipelinedContinuesAcrossBudgets(t *testing.T) {
	cfg, mkEng := wideFixture(t)
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ref.Run(mkEng(), Budget{})
	if err != nil {
		t.Fatal(err)
	}

	cfg.Parallelism = 4
	cfg.Obs = obs.NewRegistry()
	var sys *System
	var got []string
	cfg.OnPlan = func(PlanEvent) {
		if len(got) > 0 {
			return
		}
		// Hold the first plan's execution until the producer has begun
		// ordering the next one, so the budget stop always has a plan
		// pulled ahead to stash, however the goroutines are scheduled.
		nextCalls := cfg.Obs.Counter("core." + string(sys.algo) + ".next_calls")
		for deadline := time.Now().Add(5 * time.Second); nextCalls.Value() < 2 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	sys, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := mkEng()
	for {
		res, err := sys.Run(eng, Budget{MaxPlans: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, pq := range res.Executed {
			got = append(got, pq.String())
		}
		if len(got) == 1 && len(sys.stash) == 0 {
			t.Fatal("no plan pulled ahead of the first one-plan budget stop")
		}
		if res.Stopped == StopExhausted {
			break
		}
	}
	if len(got) != len(full.Executed) {
		t.Fatalf("one-plan budgets executed %d plans total, want %d", len(got), len(full.Executed))
	}
	for i, pq := range full.Executed {
		if got[i] != pq.String() {
			t.Errorf("plan %d is %s, sequential %s", i, got[i], pq)
		}
	}
}

// TestConcurrentRunsSerialize hammers one System from many goroutines
// (the concurrent-Run bugfix): Run calls must serialize on the internal
// lock, so every plan executes exactly once across all runs and the
// exhaustion latch stays consistent. Run under -race.
func TestConcurrentRunsSerialize(t *testing.T) {
	cfg, mkEng := wideFixture(t)
	cfg.Parallelism = 4
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := mkEng()

	const goroutines = 8
	results := make([]*Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := sys.Run(eng, Budget{MaxPlans: 2})
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = res
		}(g)
	}
	wg.Wait()

	seen := map[string]bool{}
	total := 0
	for _, res := range results {
		if res == nil {
			continue
		}
		for _, pq := range res.Executed {
			k := pq.String()
			if seen[k] {
				t.Errorf("plan %s executed twice", k)
			}
			seen[k] = true
			total++
		}
	}
	// Enough two-plan budgets to exhaust the space: everything ran once.
	want := len(sequentialPlans(t))
	if total != want {
		t.Errorf("concurrent runs executed %d plans total, want %d", total, want)
	}
}

// sequentialPlans returns the full sequential execution order of the
// wide fixture, as strings.
func sequentialPlans(t *testing.T) []string {
	t.Helper()
	cfg, mkEng := wideFixture(t)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(mkEng(), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(res.Executed))
	for i, pq := range res.Executed {
		out[i] = pq.String()
	}
	return out
}
