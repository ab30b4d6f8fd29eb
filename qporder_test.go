package qporder_test

import (
	"fmt"
	"testing"

	"qporder"
)

// movieCatalog is the Figure 1 fixture over the public API.
func movieCatalog() *qporder.Catalog {
	cat := qporder.NewCatalog()
	add := func(def string, tuples, transmit, overhead float64) {
		q := qporder.MustParseQuery(def)
		cat.MustAdd(q.Name, q, qporder.Stats{
			Tuples: tuples, TransmitCost: transmit, Overhead: overhead,
		})
	}
	add("V1(A, M) :- play-in(A, M), american(M)", 60, 1.0, 10)
	add("V2(A, M) :- play-in(A, M), russian(M)", 20, 0.5, 5)
	add("V3(A, M) :- play-in(A, M)", 200, 2.0, 20)
	add("V4(R, M) :- review-of(R, M)", 150, 1.5, 10)
	add("V5(R, M) :- review-of(R, M)", 90, 1.0, 15)
	add("V6(R, M) :- review-of(R, M)", 40, 0.8, 25)
	return cat
}

// TestPublicAPIEndToEnd drives the full mediator pipeline through the
// facade: parse → buckets → order → soundness filter → execute.
func TestPublicAPIEndToEnd(t *testing.T) {
	cat := movieCatalog()
	q := qporder.MustParseQuery("Q(M, R) :- play-in(ford, M), review-of(R, M)")
	buckets, err := qporder.BuildBuckets(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	pd := qporder.NewPlanDomain(buckets, cat)
	if pd.Space.Size() != 9 {
		t.Fatalf("plan space = %d", pd.Space.Size())
	}
	m := qporder.NewLinearCost(pd.Entries)
	o, err := qporder.NewGreedy([]*qporder.Space{pd.Space}, m)
	if err != nil {
		t.Fatal(err)
	}
	world := qporder.GenerateWorld(qporder.WorldConfig{
		Relations: []qporder.RelationSpec{
			{Name: "play-in", Arity: 2}, {Name: "review-of", Arity: 2},
			{Name: "american", Arity: 1}, {Name: "russian", Arity: 1},
		},
		TuplesPerRelation: 30, DomainSize: 10, Seed: 4,
	})
	world.Add("play-in", "ford", "c1")
	store := qporder.PopulateSources(cat, world, 1.0, 5)
	engine := qporder.NewEngine(cat, store)
	answers := qporder.NewAnswerSet()
	queryAnswers := qporder.NewAnswerSet()
	queryAnswers.Add(qporder.EvalQuery(q, world))

	seen := 0
	prevU := 0.0
	for {
		plan, pq, u, ok, err := pd.SoundNext(o)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if seen > 0 && u > prevU {
			t.Errorf("utility increased: %g after %g", u, prevU)
		}
		prevU = u
		seen++
		if !plan.Concrete() {
			t.Fatal("abstract plan emitted")
		}
		out, err := engine.ExecutePlan(pq)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range out {
			if !queryAnswers.Contains(qporder.Atom{Pred: "Q", Args: a.Args}) {
				t.Errorf("plan %s produced non-answer %v", pq, a)
			}
		}
		answers.Add(out)
	}
	if seen != 9 {
		t.Errorf("sound plans = %d, want 9", seen)
	}
	if answers.Len() == 0 {
		t.Error("no answers produced")
	}
}

// TestFacadeMeasuresAndOrderers smoke-checks every exported constructor
// combination on a synthetic domain.
func TestFacadeMeasuresAndOrderers(t *testing.T) {
	d := qporder.GenerateWorkload(qporder.WorkloadConfig{
		QueryLen: 2, BucketSize: 4, Universe: 256, Seed: 2,
	})
	spaces := []*qporder.Space{d.Space}
	measures := []qporder.Measure{
		qporder.NewCoverageMeasure(d.Coverage),
		qporder.NewLinearCost(d.Catalog),
		qporder.NewChainCost(d.Catalog, qporder.CostParams{N: 1000, Failure: true}),
		qporder.NewMonetaryPerTuple(d.Catalog, qporder.CostParams{N: 1000}),
		qporder.NewWeighted("mix",
			qporder.WeightedComponent{Measure: qporder.NewCoverageMeasure(d.Coverage), Weight: 1},
			qporder.WeightedComponent{Measure: qporder.NewLinearCost(d.Catalog), Weight: 0.001},
		),
	}
	for _, m := range measures {
		var orderers []qporder.Orderer
		orderers = append(orderers,
			qporder.NewPI(spaces, m),
			qporder.NewExhaustive(spaces, m),
			qporder.NewIDrips(spaces, m, qporder.ByTuples(d.Catalog)))
		if g, err := qporder.NewGreedy(spaces, m); err == nil {
			orderers = append(orderers, g)
		}
		if s, err := qporder.NewStreamer(spaces, m, qporder.ByTuples(d.Catalog)); err == nil {
			orderers = append(orderers, s)
		}
		var first []float64
		for _, o := range orderers {
			_, utils := qporder.Take(o, 3)
			if len(utils) != 3 {
				t.Fatalf("measure %s: got %d plans", m.Name(), len(utils))
			}
			if first == nil {
				first = utils
				continue
			}
			for i := range utils {
				if utils[i] != first[i] {
					t.Errorf("measure %s: utility sequences diverge: %v vs %v",
						m.Name(), utils, first)
					break
				}
			}
		}
	}
}

// TestFacadeMediatorAndOptimizer exercises the remaining facade surface:
// the assembled mediator, the physical optimizer, inverse rules, the
// datalog engine, and the adaptive tracker.
func TestFacadeMediatorAndOptimizer(t *testing.T) {
	cat := movieCatalog()
	q := qporder.MustParseQuery("Q(M, R) :- play-in(ford, M), review-of(R, M)")
	world := qporder.GenerateWorld(qporder.WorldConfig{
		Relations: []qporder.RelationSpec{
			{Name: "play-in", Arity: 2}, {Name: "review-of", Arity: 2},
			{Name: "american", Arity: 1}, {Name: "russian", Arity: 1},
		},
		TuplesPerRelation: 25, DomainSize: 8, Seed: 14,
	})
	world.Add("play-in", "ford", "c2")
	store := qporder.PopulateSources(cat, world, 0.9, 15)

	sys, err := qporder.NewMediator(qporder.MediatorConfig{
		Catalog: cat,
		Query:   q,
		Measure: func(entries *qporder.Catalog) qporder.Measure {
			return qporder.NewChainCost(entries, qporder.CostParams{N: 5000})
		},
		Reformulator: qporder.ViaInverseRules,
		Physical:     true,
		PhysN:        5000,
		Adaptive:     true,
		Parallelism:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := qporder.NewEngine(cat, store)
	res, err := sys.Run(eng, qporder.MediatorBudget{MaxPlans: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Executed) == 0 {
		t.Fatal("mediator executed nothing")
	}
	// Physical optimizer standalone.
	pp, err := qporder.Optimize(res.Executed[0], cat, qporder.PhysOptParams{N: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if len(pp.Steps) != len(res.Executed[0].Body) {
		t.Errorf("physical plan has %d steps", len(pp.Steps))
	}
	// Inverse rules and datalog program.
	rules := qporder.InvertCatalog(cat)
	if len(rules) == 0 {
		t.Fatal("no inverse rules")
	}
	derived, err := qporder.EvalProgram(qporder.DatalogProgram(q, cat), store)
	if err != nil {
		t.Fatal(err)
	}
	clean := qporder.FilterAnswers(derived["Q"], func(a qporder.Atom) bool {
		for _, tm := range a.Args {
			if qporder.IsSkolem(tm) {
				return false
			}
		}
		return true
	})
	for _, a := range clean {
		if !res.Answers.Contains(qporder.Atom{Pred: "P", Args: a.Args}) && res.Stopped == qporder.StopExhausted {
			t.Errorf("program answer %v missing from mediator answers", a)
		}
	}
	// Drift detection standalone: one unbound access returning 50x the
	// estimate trips a single-sample detector.
	cal := qporder.NewCalibration(qporder.ObsCalibConfig{DriftFactor: 2, MinSamples: 1})
	cal.ObserveSource("V1", 60, 3000, 1)
	cal.ObserveSource("V4", 150, 140, 0)
	if got := cal.Drifted(); len(got) != 1 || got[0] != "V1" {
		t.Errorf("Drifted() = %v, want [V1]", got)
	}
}

// ExampleContains demonstrates the containment checker.
func ExampleContains() {
	q1 := qporder.MustParseQuery("P(A) :- play-in(A, M), american(M)")
	q2 := qporder.MustParseQuery("Q(A) :- play-in(A, M)")
	fmt.Println(qporder.Contains(q1, q2))
	fmt.Println(qporder.Contains(q2, q1))
	// Output:
	// true
	// false
}

// ExampleNewMediator runs the assembled pipeline under a budget.
func ExampleNewMediator() {
	cat := qporder.NewCatalog()
	for _, d := range []string{
		"V1(A, M) :- play-in(A, M)",
		"V2(A, M) :- play-in(A, M)",
		"V4(R, M) :- review-of(R, M)",
	} {
		def := qporder.MustParseQuery(d)
		cat.MustAdd(def.Name, def, qporder.Stats{Tuples: 10, TransmitCost: 1, Overhead: 5})
	}
	sys, err := qporder.NewMediator(qporder.MediatorConfig{
		Catalog: cat,
		Query:   qporder.MustParseQuery("Q(M, R) :- play-in(ford, M), review-of(R, M)"),
		Measure: func(entries *qporder.Catalog) qporder.Measure {
			return qporder.NewChainCost(entries, qporder.CostParams{N: 1000})
		},
	})
	if err != nil {
		panic(err)
	}
	world := make(qporder.DB)
	world.Add("play-in", "ford", "witness")
	world.Add("review-of", "4-stars", "witness")
	store := qporder.PopulateSources(cat, world, 1.0, 1)
	res, err := sys.Run(qporder.NewEngine(cat, store), qporder.MediatorBudget{MinAnswers: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Stopped, res.Answers.Len())
	// Output:
	// min-answers 1
}

// ExampleTake shows ordering a synthetic domain with Streamer.
func ExampleTake() {
	d := qporder.GenerateWorkload(qporder.WorkloadConfig{
		QueryLen: 2, BucketSize: 3, Universe: 128, Seed: 8,
	})
	m := qporder.NewChainCost(d.Catalog, qporder.CostParams{N: 1000})
	o, err := qporder.NewStreamer([]*qporder.Space{d.Space}, m, qporder.ByTuples(d.Catalog))
	if err != nil {
		panic(err)
	}
	plans, _ := qporder.Take(o, 2)
	fmt.Println(len(plans))
	// Output:
	// 2
}
