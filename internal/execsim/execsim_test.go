package execsim

import (
	"testing"
	"testing/quick"

	"qporder/internal/lav"
	"qporder/internal/obs"
	"qporder/internal/reformulate"
	"qporder/internal/schema"
)

func TestEvalSimpleJoin(t *testing.T) {
	db := make(DB)
	db.Add("edge", "a", "b")
	db.Add("edge", "b", "c")
	db.Add("edge", "c", "d")
	q := schema.MustParseQuery("Q(X, Z) :- edge(X, Y), edge(Y, Z)")
	got := Eval(q, db)
	want := map[string]bool{"Q(a, c)": true, "Q(b, d)": true}
	if len(got) != len(want) {
		t.Fatalf("Eval = %v", got)
	}
	for _, a := range got {
		if !want[a.String()] {
			t.Errorf("unexpected answer %s", a)
		}
	}
}

func TestEvalConstantsAndDedup(t *testing.T) {
	db := make(DB)
	db.Add("play-in", "ford", "starwars")
	db.Add("play-in", "ford", "witness")
	db.Add("play-in", "hamill", "starwars")
	db.Add("review-of", "r1", "starwars")
	db.Add("review-of", "r2", "starwars")
	q := schema.MustParseQuery("Q(M, R) :- play-in(ford, M), review-of(R, M)")
	got := Eval(q, db)
	if len(got) != 2 {
		t.Fatalf("Eval = %v, want 2 answers", got)
	}
}

func TestAnswerSet(t *testing.T) {
	s := NewAnswerSet()
	a := schema.NewAtom("Q", schema.Const("x"))
	b := schema.NewAtom("Q", schema.Const("y"))
	if n := s.Add([]schema.Atom{a, b, a}); n != 2 {
		t.Errorf("Add returned %d, want 2", n)
	}
	if n := s.Add([]schema.Atom{a}); n != 0 {
		t.Errorf("re-Add returned %d, want 0", n)
	}
	if s.Len() != 2 || !s.Contains(a) {
		t.Error("AnswerSet state wrong")
	}
}

func TestGenerateWorldDeterministic(t *testing.T) {
	cfg := WorldConfig{
		Relations:         []RelationSpec{{Name: "r", Arity: 2}},
		TuplesPerRelation: 20,
		DomainSize:        5,
		Seed:              3,
	}
	a, b := GenerateWorld(cfg), GenerateWorld(cfg)
	if a.Size() != b.Size() || a.Size() == 0 {
		t.Fatalf("sizes %d vs %d", a.Size(), b.Size())
	}
	for i := range a["r"] {
		if !a["r"][i].Equal(b["r"][i]) {
			t.Fatal("worlds differ across identical seeds")
		}
	}
}

func TestGenerateWorldSaturatedDomain(t *testing.T) {
	// Domain 2, arity 1 → at most 2 distinct tuples even if 10 requested.
	db := GenerateWorld(WorldConfig{
		Relations:         []RelationSpec{{Name: "u", Arity: 1}},
		TuplesPerRelation: 10,
		DomainSize:        2,
		Seed:              1,
	})
	if len(db["u"]) > 2 {
		t.Errorf("saturated relation has %d tuples", len(db["u"]))
	}
}

// movieFixture builds a catalog, world, and sources for end-to-end tests.
func movieFixture(t *testing.T, completeness float64, seed int64) (*lav.Catalog, DB, DB, *schema.Query) {
	t.Helper()
	cat := lav.NewCatalog()
	stats := lav.Stats{Tuples: 10, TransmitCost: 1, Overhead: 5, FailureProb: 0.3}
	for _, d := range []string{
		"V1(A, M) :- play-in(A, M), american(M)",
		"V3(A, M) :- play-in(A, M)",
		"V4(R, M) :- review-of(R, M)",
		"V5(R, M) :- review-of(R, M)",
	} {
		def := schema.MustParseQuery(d)
		cat.MustAdd(def.Name, def, stats)
	}
	world := GenerateWorld(WorldConfig{
		Relations: []RelationSpec{
			{Name: "play-in", Arity: 2}, {Name: "review-of", Arity: 2}, {Name: "american", Arity: 1},
		},
		TuplesPerRelation: 30,
		DomainSize:        8,
		Seed:              seed,
	})
	store := PopulateSources(cat, world, completeness, seed+1)
	q := schema.MustParseQuery("Q(M, R) :- play-in(A, M), review-of(R, M)")
	return cat, world, store, q
}

// TestPlanAnswersAreSound: every tuple produced by executing a sound plan
// is an answer of the query on the world — the LAV soundness guarantee,
// end to end through reformulation and execution.
func TestPlanAnswersAreSound(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20}
	prop := func(seed int64) bool {
		cat, world, store, q := movieFixture(t, 0.7, seed)
		b, err := reformulate.BuildBuckets(q, cat)
		if err != nil {
			t.Fatal(err)
		}
		pd := reformulate.NewPlanDomain(b, cat)
		queryAnswers := NewAnswerSet()
		queryAnswers.Add(Eval(q, world))
		eng := NewEngine(cat, store)
		for _, p := range pd.Space.Enumerate() {
			sound, err := pd.IsSound(p)
			if err != nil {
				t.Fatal(err)
			}
			if !sound {
				continue
			}
			pq, err := pd.PlanQuery(p)
			if err != nil {
				t.Fatal(err)
			}
			out, err := eng.ExecutePlan(pq)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range out {
				if !queryAnswers.Contains(schema.Atom{Pred: "Q", Args: a.Args}) {
					t.Logf("seed=%d plan %s produced non-answer %v", seed, pq, a)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestUnionOfPlansWithCompleteSources: when sources are complete, the
// union over all sound plans recovers every query answer derivable from
// described relations.
func TestUnionOfPlansWithCompleteSources(t *testing.T) {
	cat, world, store, q := movieFixture(t, 1.0, 42)
	b, err := reformulate.BuildBuckets(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	pd := reformulate.NewPlanDomain(b, cat)
	eng := NewEngine(cat, store)
	got := NewAnswerSet()
	for _, p := range pd.Space.Enumerate() {
		sound, err := pd.IsSound(p)
		if err != nil {
			t.Fatal(err)
		}
		if !sound {
			continue
		}
		pq, _ := pd.PlanQuery(p)
		out, err := eng.ExecutePlan(pq)
		if err != nil {
			t.Fatal(err)
		}
		got.Add(out)
	}
	want := Eval(q, world)
	for _, a := range want {
		if !got.Contains(schema.Atom{Pred: "P", Args: a.Args}) {
			// Plans are named P; compare on args via a P-probe.
			t.Errorf("answer %v not recovered by any plan", a)
		}
	}
}

func TestEngineCostAccounting(t *testing.T) {
	cat := lav.NewCatalog()
	def := schema.MustParseQuery("S(X) :- r(X)")
	cat.MustAdd("S", def, lav.Stats{Tuples: 3, TransmitCost: 2, Overhead: 7})
	store := make(DB)
	store.Add("S", "a")
	store.Add("S", "b")
	eng := NewEngine(cat, store)
	pq := schema.MustParseQuery("P(X) :- S(X)")
	out, err := eng.ExecutePlan(pq)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d answers", len(out))
	}
	// cost = overhead 7 + 2 tuples * 2 = 11.
	if eng.Cost != 11 {
		t.Errorf("Cost = %g, want 11", eng.Cost)
	}
	if eng.Accesses != 1 {
		t.Errorf("Accesses = %d, want 1", eng.Accesses)
	}
}

func TestEngineCaching(t *testing.T) {
	cat := lav.NewCatalog()
	def := schema.MustParseQuery("S(X) :- r(X)")
	cat.MustAdd("S", def, lav.Stats{Tuples: 3, TransmitCost: 2, Overhead: 7})
	store := make(DB)
	store.Add("S", "a")
	eng := NewEngine(cat, store)
	eng.Caching = true
	pq := schema.MustParseQuery("P(X) :- S(X)")
	if _, err := eng.ExecutePlan(pq); err != nil {
		t.Fatal(err)
	}
	c1 := eng.Cost
	if _, err := eng.ExecutePlan(pq); err != nil {
		t.Fatal(err)
	}
	if eng.Cost != c1 {
		t.Errorf("cached re-execution accrued cost: %g -> %g", c1, eng.Cost)
	}
	if eng.CacheHits == 0 {
		t.Error("no cache hits recorded")
	}
}

func TestEngineFailuresRetryAndCost(t *testing.T) {
	cat := lav.NewCatalog()
	def := schema.MustParseQuery("S(X) :- r(X)")
	cat.MustAdd("S", def, lav.Stats{Tuples: 3, TransmitCost: 0, Overhead: 1, FailureProb: 0.8})
	store := make(DB)
	store.Add("S", "a")
	eng := NewEngine(cat, store)
	eng.EnableFailures(7)
	pq := schema.MustParseQuery("P(X) :- S(X)")
	const runs = 25
	for i := 0; i < runs; i++ {
		out, err := eng.ExecutePlan(pq)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 {
			t.Fatalf("answers = %v", out)
		}
	}
	// With failure probability 0.8, 25 accesses see failures w.p.
	// 1-0.2^25; each failed attempt costs one overhead unit.
	if eng.FailedAttempts == 0 {
		t.Error("expected some failed attempts at p=0.8 over 25 runs")
	}
	if eng.Cost != float64(runs+eng.FailedAttempts) {
		t.Errorf("Cost = %g, want %d", eng.Cost, runs+eng.FailedAttempts)
	}
}

func TestExecutePlanRejectsUnknownSource(t *testing.T) {
	cat := lav.NewCatalog()
	eng := NewEngine(cat, make(DB))
	if _, err := eng.ExecutePlan(schema.MustParseQuery("P(X) :- nosuch(X)")); err == nil {
		t.Error("expected error for unknown source")
	}
}

// TestCalibrationPairingContract: an unbound access records one
// estimate/actual pair carrying its failed attempts; bound accesses and
// cache hits record nothing.
func TestCalibrationPairingContract(t *testing.T) {
	cat := lav.NewCatalog()
	cat.MustAdd("S", schema.MustParseQuery("S(X, Y) :- r(X, Y)"), lav.Stats{Tuples: 10, Overhead: 1, FailureProb: 0.8})
	cat.MustAdd("T", schema.MustParseQuery("T(Y, Z) :- t(Y, Z)"), lav.Stats{Tuples: 10, Overhead: 1, FailureProb: 0.8})
	store := make(DB)
	store.Add("S", "a", "b")
	store.Add("S", "c", "d")
	store.Add("T", "b", "e")
	store.Add("T", "d", "f")
	cal := obs.NewCalibration(obs.CalibConfig{})
	eng := NewEngine(cat, store)
	eng.Caching = true
	eng.EnableFailures(6)
	eng.SetCalibration(cal)
	var accesses []string
	sFailed := 0
	eng.OnAccess = func(source string, _, failed int) {
		accesses = append(accesses, source)
		if len(accesses) == 1 {
			sFailed = failed
		}
	}

	// S is accessed once unbound; T once per binding of Y.
	join := schema.MustParseQuery("P(X, Z) :- S(X, Y), T(Y, Z)")
	if _, err := eng.ExecutePlan(join); err != nil {
		t.Fatal(err)
	}
	if len(accesses) != 3 || accesses[0] != "S" || sFailed == 0 {
		t.Fatalf("accesses = %v, first S failed attempts = %d; want S, T, T with S failures to pair", accesses, sFailed)
	}
	// The rerun is served from the cache; the constant makes S bound.
	if _, err := eng.ExecutePlan(join); err != nil {
		t.Fatal(err)
	}
	if eng.CacheHits != 3 {
		t.Fatalf("CacheHits = %d, want 3", eng.CacheHits)
	}
	if _, err := eng.ExecutePlan(schema.MustParseQuery("P(Y) :- S(a, Y)")); err != nil {
		t.Fatal(err)
	}

	snap := cal.Snapshot()
	if len(snap.Sources) != 1 || snap.Sources[0].Name != "S" || snap.Sources[0].Samples != 1 {
		t.Fatalf("source series = %+v, want one S sample", snap.Sources)
	}
	if s := snap.Sources[0]; s.EstMean != 10 || s.ActMean != 2 {
		t.Errorf("S pair = (%g, %g), want (10, 2)", s.EstMean, s.ActMean)
	}
	mean, failRate, ok := cal.SourceObserved("S")
	want := float64(sFailed) / float64(1+sFailed)
	if !ok || mean != 2 || failRate != want {
		t.Errorf("SourceObserved(S) = (%g, %g, %v), want (2, %g, true)", mean, failRate, ok, want)
	}
}
