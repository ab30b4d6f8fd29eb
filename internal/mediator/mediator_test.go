package mediator

import (
	"context"
	"fmt"
	"testing"

	"qporder/internal/costmodel"
	"qporder/internal/execsim"
	"qporder/internal/lav"
	"qporder/internal/measure"
	"qporder/internal/obs"
	"qporder/internal/schema"
)

// fixture builds the movie mediator with simulated contents.
func fixture(t *testing.T) (Config, *execsim.Engine, *execsim.DB) {
	t.Helper()
	cat := lav.NewCatalog()
	stats := lav.Stats{Tuples: 50, TransmitCost: 1, Overhead: 10}
	for _, d := range []string{
		"V1(A, M) :- play-in(A, M), american(M)",
		"V3(A, M) :- play-in(A, M)",
		"V4(R, M) :- review-of(R, M)",
		"V5(R, M) :- review-of(R, M)",
	} {
		def := schema.MustParseQuery(d)
		cat.MustAdd(def.Name, def, stats)
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
		Measure: func(entries *lav.Catalog) measure.Measure {
			return costmodel.NewChainCost(entries, costmodel.Params{N: 10000})
		},
	}
	return cfg, execsim.NewEngine(cat, store), &world
}

func TestRunToExhaustion(t *testing.T) {
	cfg, eng, world := fixture(t)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(eng, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopExhausted {
		t.Errorf("Stopped = %s", res.Stopped)
	}
	// 2 sources per bucket -> 4 sound plans.
	if len(res.Executed) != 4 {
		t.Errorf("executed %d plans, want 4", len(res.Executed))
	}
	// Utilities non-increasing (chain cost is unconditional).
	for i := 1; i < len(res.Utilities); i++ {
		if res.Utilities[i] > res.Utilities[i-1]+1e-9 {
			t.Errorf("utilities increased at %d: %v", i, res.Utilities)
		}
	}
	// All answers are query answers.
	qa := execsim.NewAnswerSet()
	qa.Add(execsim.Eval(cfg.Query, *world))
	for _, a := range res.Answers.Atoms() {
		if !qa.Contains(schema.Atom{Pred: "Q", Args: a.Args}) {
			t.Errorf("non-answer %v", a)
		}
	}
	if res.Evals == 0 || res.Cost <= 0 {
		t.Error("instrumentation empty")
	}
}

func TestBudgets(t *testing.T) {
	cases := []struct {
		budget Budget
		want   StopReason
	}{
		{Budget{MaxPlans: 1}, StopMaxPlans},
		{Budget{MaxCost: 1}, StopMaxCost},
		{Budget{MinAnswers: 1}, StopMinAnswers},
	}
	for _, c := range cases {
		cfg, eng, _ := fixture(t)
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(eng, c.budget)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stopped != c.want {
			t.Errorf("budget %+v: stopped %s, want %s", c.budget, res.Stopped, c.want)
		}
		if len(res.Executed) == 0 {
			t.Errorf("budget %+v: nothing executed", c.budget)
		}
	}
}

func TestRunContinuesAcrossBudgets(t *testing.T) {
	cfg, eng, _ := fixture(t)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sys.Run(eng, Budget{MaxPlans: 2})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sys.Run(eng, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Executed)+len(r2.Executed) != 4 {
		t.Errorf("runs executed %d + %d plans, want 4 total", len(r1.Executed), len(r2.Executed))
	}
	// No plan executed twice.
	seen := map[string]bool{}
	for _, pq := range append(append([]*schema.Query{}, r1.Executed...), r2.Executed...) {
		k := pq.String()
		if seen[k] {
			t.Errorf("plan %s executed twice", k)
		}
		seen[k] = true
	}
}

func TestAutoAlgorithmSelection(t *testing.T) {
	cfg, _, _ := fixture(t)

	cases := []struct {
		measure func(*lav.Catalog) measure.Measure
		want    string
	}{
		{func(c *lav.Catalog) measure.Measure { return costmodel.NewLinearCost(c) }, "*core.Greedy"},
		{func(c *lav.Catalog) measure.Measure {
			return costmodel.NewChainCost(c, costmodel.Params{N: 100})
		}, "*core.Streamer"},
		{func(c *lav.Catalog) measure.Measure {
			return costmodel.NewChainCost(c, costmodel.Params{N: 100, Caching: true})
		}, "*core.IDrips"},
	}
	for _, c := range cases {
		cfg.Measure = c.measure
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := typeName(sys.Orderer()); got != c.want {
			t.Errorf("auto selected %s, want %s", got, c.want)
		}
	}
}

func typeName(v interface{}) string {
	return fmt.Sprintf("%T", v)
}

func TestReformulators(t *testing.T) {
	for _, r := range []Reformulator{Buckets, InverseRules, MiniCon} {
		cfg, eng, _ := fixture(t)
		cfg.Reformulator = r
		sys, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		res, err := sys.Run(eng, Budget{})
		if err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		if len(res.Executed) != 4 {
			t.Errorf("%s: executed %d plans, want 4", r, len(res.Executed))
		}
	}
}

func TestPhysicalExecutionMatchesLogical(t *testing.T) {
	run := func(physical bool) *Result {
		cfg, eng, _ := fixture(t)
		cfg.Physical = physical
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(eng, Budget{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(false), run(true)
	if a.Answers.Len() != b.Answers.Len() {
		t.Errorf("physical execution changed answers: %d vs %d", a.Answers.Len(), b.Answers.Len())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg, _, _ := fixture(t)
	cfg.Reformulator = "nope"
	if _, err := New(cfg); err == nil {
		t.Error("unknown reformulator accepted")
	}
	cfg, _, _ = fixture(t)
	cfg.Algorithm = "nope"
	if _, err := New(cfg); err == nil {
		t.Error("unknown algorithm accepted")
	}
	// Greedy forced on a non-monotonic measure must fail.
	cfg, _, _ = fixture(t)
	cfg.Algorithm = Greedy
	if _, err := New(cfg); err == nil {
		t.Error("Greedy accepted for chain cost")
	}
}

// TestObservedRun checks the Config.Obs wiring: pipeline counters
// populate, a Run under a registry-bound request trace folds its phase
// spans into the registry, the time-to-first-answer gauge is set, and a
// Run after exhaustion neither calls Next again nor executes more plans.
func TestObservedRun(t *testing.T) {
	cfg, eng, _ := fixture(t)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := obs.WithTrace(context.Background(), obs.NewTrace(reg, "test"))
	res, err := sys.RunContext(ctx, eng, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopExhausted {
		t.Fatalf("Stopped = %s", res.Stopped)
	}

	executed := reg.Counter("mediator.plans_executed").Value()
	if executed != int64(len(res.Executed)) {
		t.Errorf("plans_executed = %d, want %d", executed, len(res.Executed))
	}
	if res.Answers.Len() > 0 && reg.Gauge("mediator.time_to_first_answer_ns").Value() <= 0 {
		t.Error("time_to_first_answer_ns not set")
	}
	if v := reg.Counter("execsim.source_calls").Value(); v == 0 {
		t.Error("execsim.source_calls = 0")
	}

	spans := map[string]bool{}
	for _, st := range reg.Snapshot().Spans {
		spans[st.Name] = true
	}
	for _, name := range []string{
		"mediator/run", "mediator/order", "mediator/soundness", "mediator/execute",
	} {
		if !spans[name] {
			t.Errorf("span %q missing (have %v)", name, spans)
		}
	}

	// Run after exhaustion: the orderer must not be poked again.
	calls := reg.Counter("core.streamer.next_calls").Value() +
		reg.Counter("core.idrips.next_calls").Value() +
		reg.Counter("core.greedy.next_calls").Value() +
		reg.Counter("core.pi.next_calls").Value()
	res2, err := sys.Run(eng, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	after := reg.Counter("core.streamer.next_calls").Value() +
		reg.Counter("core.idrips.next_calls").Value() +
		reg.Counter("core.greedy.next_calls").Value() +
		reg.Counter("core.pi.next_calls").Value()
	if after != calls {
		t.Errorf("Next called %d more times after exhaustion", after-calls)
	}
	if res2.Stopped != StopExhausted || len(res2.Executed) != 0 {
		t.Errorf("post-exhaustion Run: stopped=%s executed=%d", res2.Stopped, len(res2.Executed))
	}
}
