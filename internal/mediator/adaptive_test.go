package mediator

import (
	"testing"

	"qporder/internal/costmodel"
	"qporder/internal/execsim"
	"qporder/internal/lav"
	"qporder/internal/measure"
	"qporder/internal/schema"
)

// mispricedFixture builds a domain where one source's tuple estimate is
// wildly wrong: "Flood" claims 10 tuples but actually returns hundreds.
func mispricedFixture(t *testing.T) (Config, *execsim.Engine) {
	t.Helper()
	cat := lav.NewCatalog()
	add := func(name, def string, st lav.Stats) {
		cat.MustAdd(name, schema.MustParseQuery(def), st)
	}
	add("Flood", "Flood(A, B) :- r0(A, B)", lav.Stats{Tuples: 10, TransmitCost: 1, Overhead: 1})
	add("Calm", "Calm(A, B) :- r0(A, B)", lav.Stats{Tuples: 60, TransmitCost: 1, Overhead: 1})
	add("Rev1", "Rev1(A, B) :- r1(A, B)", lav.Stats{Tuples: 50, TransmitCost: 1, Overhead: 1})
	add("Rev2", "Rev2(A, B) :- r1(A, B)", lav.Stats{Tuples: 55, TransmitCost: 1, Overhead: 1})

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
	cfg := Config{
		Catalog: cat,
		Query:   schema.MustParseQuery("Q(X, Z) :- r0(X, Y), r1(Y, Z)"),
		Measure: func(entries *lav.Catalog) measure.Measure {
			return costmodel.NewChainCost(entries, costmodel.Params{N: 1000})
		},
		Adaptive: true,
	}
	return cfg, execsim.NewEngine(cat, store)
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

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
