package mediator

import (
	"testing"

	"qporder/internal/costmodel"
	"qporder/internal/execsim"
	"qporder/internal/lav"
	"qporder/internal/measure"
	"qporder/internal/obs"
	"qporder/internal/planspace"
	"qporder/internal/schema"
	"qporder/internal/workload"
)

// mispricedFixture builds a domain where one source's tuple estimate is
// wildly wrong: "Flood" claims 10 tuples but actually returns hundreds.
func mispricedFixture(t *testing.T) (Config, *execsim.Engine) {
	t.Helper()
	cat, store := mispricedWorld()
	return adaptiveConfig(cat), execsim.NewEngine(cat, store)
}

// mispricedWorld builds mispricedFixture's catalog and source store.
// Sources named in exact carry Tuples equal to their stored size.
func mispricedWorld(exact ...string) (*lav.Catalog, execsim.DB) {
	catalog := func(sizes map[string]float64) *lav.Catalog {
		cat := lav.NewCatalog()
		add := func(name, def string, tuples float64) {
			if n, ok := sizes[name]; ok {
				tuples = n
			}
			cat.MustAdd(name, schema.MustParseQuery(def), lav.Stats{Tuples: tuples, TransmitCost: 1, Overhead: 1})
		}
		add("Flood", "Flood(A, B) :- r0(A, B)", 10)
		add("Calm", "Calm(A, B) :- r0(A, B)", 60)
		add("Rev1", "Rev1(A, B) :- r1(A, B)", 50)
		add("Rev2", "Rev2(A, B) :- r1(A, B)", 55)
		return cat
	}
	cat := catalog(nil)

	world := execsim.GenerateWorld(execsim.WorldConfig{
		Relations:         []execsim.RelationSpec{{Name: "r0", Arity: 2}, {Name: "r1", Arity: 2}},
		TuplesPerRelation: 400,
		DomainSize:        25,
		Seed:              12,
	})
	// Flood really has everything; Calm is small.
	completeness := func(name string) float64 {
		switch name {
		case "Flood":
			return 1.0
		case "Calm":
			return 0.15
		default:
			return 0.5
		}
	}
	store := execsim.PopulateSourcesWith(cat, world, completeness, 13)
	sizes := make(map[string]float64)
	for _, name := range exact {
		sizes[name] = float64(len(store[name]))
	}
	return catalog(sizes), store
}

// adaptiveConfig orders mispricedWorld's plans by chain cost, adaptively.
func adaptiveConfig(cat *lav.Catalog) Config {
	return Config{
		Catalog: cat,
		Query:   schema.MustParseQuery("Q(X, Z) :- r0(X, Y), r1(Y, Z)"),
		Measure: func(entries *lav.Catalog) measure.Measure {
			return costmodel.NewChainCost(entries, costmodel.Params{N: 1000})
		},
		Adaptive: true,
	}
}

func TestAdaptiveRunReordersOnDrift(t *testing.T) {
	cfg, eng := mispricedFixture(t)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(eng, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reorders == 0 {
		t.Fatal("no adaptive re-ordering despite a 40x mispriced source")
	}
	if len(res.Executed) != 4 {
		t.Fatalf("executed %d plans, want all 4", len(res.Executed))
	}
	// No duplicates after rebuilding over remaining spaces.
	seen := map[string]bool{}
	for _, pq := range res.Executed {
		k := pq.String()
		if seen[k] {
			t.Errorf("plan %s executed twice after re-ordering", k)
		}
		seen[k] = true
	}
	// After the first Flood access reveals the misprice, the rebuilt
	// ordering must prefer Calm-based plans next.
	if len(res.Executed) >= 2 {
		second := res.Executed[1].String()
		if !contains(second, "Calm") {
			t.Errorf("second plan should use Calm after drift, got %s", second)
		}
	}
}

func TestAdaptiveOffNeverReorders(t *testing.T) {
	cfg, eng := mispricedFixture(t)
	cfg.Adaptive = false
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(eng, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reorders != 0 {
		t.Errorf("Reorders = %d with Adaptive off", res.Reorders)
	}
}

// TestAdaptiveWithPipelined: adaptive re-ordering over the pipelined
// supplier must still execute every plan exactly once.
func TestAdaptiveWithPipelined(t *testing.T) {
	cfg, eng := mispricedFixture(t)
	cfg.Parallelism = 2
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(eng, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Executed) != 4 {
		t.Fatalf("executed %d plans, want 4", len(res.Executed))
	}
	seen := map[string]bool{}
	for _, pq := range res.Executed {
		if k := pq.String(); seen[k] {
			t.Errorf("duplicate plan %s", k)
		} else {
			seen[k] = true
		}
	}
}

// TestAdaptiveIgnoresBoundAccesses: Rev1 and Rev2 are only ever accessed
// bound, with one binding pushed per access, so their per-access result
// sizes measure join selectivity. With their Tuples exact, only Flood's
// drift may trigger a re-ordering.
func TestAdaptiveIgnoresBoundAccesses(t *testing.T) {
	cat, store := mispricedWorld("Rev1", "Rev2")
	sys, err := New(adaptiveConfig(cat))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(execsim.NewEngine(cat, store), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reorders != 1 {
		t.Errorf("Reorders = %d, want 1 (Flood only)", res.Reorders)
	}
	if len(res.Executed) != 4 {
		t.Fatalf("executed %d plans, want all 4", len(res.Executed))
	}
	for i, pq := range res.Executed[1:3] {
		if !contains(pq.String(), "Calm") {
			t.Errorf("plan %d = %s, want the Calm plans after Flood's drift", i+2, pq)
		}
	}
}

// TestAdaptiveCalibThreshold: the private calibration trips on a single
// sample off by more than 2x in either direction, and only then.
func TestAdaptiveCalibThreshold(t *testing.T) {
	cal := obs.NewCalibration(adaptiveCalib)
	cal.ObserveSource("near", 100, 105, 0)
	cal.ObserveSource("twice", 100, 50, 0)
	cal.ObserveSource("under", 50, 500, 0)
	cal.ObserveSource("over", 101, 50, 0)
	got := cal.Drifted()
	if len(got) != 2 || got[0] != "over" || got[1] != "under" {
		t.Errorf("Drifted() = %v, want [over under]", got)
	}
}

func reviseCatalog() *lav.Catalog {
	cat := lav.NewCatalog()
	cat.MustAdd("A", nil, lav.Stats{Tuples: 100, TransmitCost: 1, Overhead: 5, FailureProb: 0.1})
	cat.MustAdd("B", nil, lav.Stats{Tuples: 50, TransmitCost: 1, Overhead: 5})
	return cat
}

// TestReviseReplacesDriftedStats: a drifted source adopts its observed mean
// and failure rate; an accurate one and the catalog stay untouched.
func TestReviseReplacesDriftedStats(t *testing.T) {
	cat := reviseCatalog()
	cal := obs.NewCalibration(adaptiveCalib)
	cal.ObserveSource("A", 100, 105, 0)
	cal.ObserveSource("B", 50, 500, 1) // observed 500, failures 1/2
	revised := map[lav.SourceID]lav.Stats{}
	if !reviseDrifted(cal, cat, revised) {
		t.Fatal("reviseDrifted added nothing")
	}
	if _, ok := revised[0]; ok || len(revised) != 1 {
		t.Fatalf("revised = %v, want only B", revised)
	}
	want := lav.Stats{Tuples: 500, TransmitCost: 1, Overhead: 5, FailureProb: 0.5}
	if got := revised[1]; got != want {
		t.Errorf("B revised to %+v, want %+v", got, want)
	}
	if got := cat.Source(1).Stats.Tuples; got != 50 {
		t.Errorf("catalog mutated: B tuples = %g", got)
	}
	// A drift already acted on does not count again.
	cal.ObserveSource("B", 50, 500, 0)
	if reviseDrifted(cal, cat, revised) {
		t.Error("reviseDrifted re-added B")
	}
}

// TestReviseZeroTuplesClampsToOne: an empty source revises to one tuple,
// never zero.
func TestReviseZeroTuplesClampsToOne(t *testing.T) {
	cat := reviseCatalog()
	cal := obs.NewCalibration(adaptiveCalib)
	cal.ObserveSource("B", 50, 0, 0) // empty source: estimate 50 vs observed 0
	revised := map[lav.SourceID]lav.Stats{}
	if !reviseDrifted(cal, cat, revised) {
		t.Fatal("reviseDrifted added nothing")
	}
	if got := revised[1].Tuples; got != 1 {
		t.Errorf("clamped tuples = %g, want 1", got)
	}
}

func TestRemainingSpaces(t *testing.T) {
	d := workload.Generate(workload.Config{QueryLen: 2, BucketSize: 3, Universe: 128, Seed: 2})
	all := d.Space.Enumerate()
	executed := []*planspace.Plan{all[0], all[4]}
	spaces := remainingSpaces([]*planspace.Space{d.Space}, executed)
	total := int64(0)
	seen := map[string]bool{}
	for _, s := range spaces {
		total += s.Size()
		for _, p := range s.Enumerate() {
			seen[p.Key()] = true
		}
	}
	if total != int64(len(all)-2) {
		t.Fatalf("remaining %d plans, want %d", total, len(all)-2)
	}
	for _, e := range executed {
		if seen[e.Key()] {
			t.Errorf("executed plan %s still present", e.Key())
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
