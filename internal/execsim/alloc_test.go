package execsim

import (
	"fmt"
	"testing"

	"qporder/internal/lav"
	"qporder/internal/schema"
)

// The per-tuple paths of execution must not allocate. Each gate runs
// only without -race, whose instrumentation allocates.

func TestMatchAtomMismatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	pattern := schema.MustParseQuery("Q(X) :- rel0(X, c)").Body[0]
	tuple := groundAtom("rel0", "a", "d")
	sub := schema.Subst{schema.Var("Y"): schema.Const("b")}
	if got := testing.AllocsPerRun(100, func() {
		if _, ok := schema.MatchAtom(pattern, tuple, sub); ok {
			t.Fatal("mismatch matched")
		}
	}); got != 0 {
		t.Fatalf("MatchAtom mismatch allocates %.1f allocs/run, want 0", got)
	}
}

func TestAccessCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	cat := lav.NewCatalog()
	cat.MustAdd("S", schema.MustParseQuery("S(X, Y) :- r(X, Y)"), lav.Stats{Tuples: 2, TransmitCost: 1, Overhead: 1})
	store := make(DB)
	store.Add("S", "a", "b")
	store.Add("S", "a", "c")
	eng := NewEngine(cat, store)
	eng.Caching = true
	goal := schema.NewAtom("S", schema.Const("a"), schema.Var("Y"))
	if got := len(eng.access(1, goal)); got != 2 {
		t.Fatalf("access returned %d tuples, want 2", got)
	}
	if got := testing.AllocsPerRun(100, func() { eng.access(1, goal) }); got != 0 {
		t.Fatalf("cached access allocates %.1f allocs/run, want 0", got)
	}
	if eng.Accesses != 1 {
		t.Fatalf("Accesses = %d, want 1: hits must not reach the source", eng.Accesses)
	}
}

func TestDuplicateHeadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	s := NewAnswerSet()
	head := groundAtom("P", "a", "b")
	if !s.put(head) {
		t.Fatal("first put not fresh")
	}
	if got := testing.AllocsPerRun(100, func() {
		if s.put(head) {
			t.Fatal("duplicate put fresh")
		}
	}); got != 0 {
		t.Fatalf("duplicate head allocates %.1f allocs/run, want 0", got)
	}
}

func TestExtendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	q := schema.MustParseQuery("P(X, Z) :- S(X, Y), T(Y, c, Z, Z)")
	p := compile(q.HeadAtom(), q.Body)
	if !p.extend(0, groundAtom("S", "a", "b")) {
		t.Fatal("first step did not match")
	}
	match, mismatch := groundAtom("T", "b", "c", "d", "d"), groundAtom("T", "b", "c", "d", "e")
	if got := testing.AllocsPerRun(100, func() {
		if !p.extend(1, match) || p.extend(1, mismatch) {
			t.Fatal("extend decided wrongly")
		}
	}); got != 0 {
		t.Fatalf("extend allocates %.1f allocs/run, want 0", got)
	}
}

// TestExecuteAllocsPerPlan gates the answer path: re-running a plan on
// a warmed engine allocates a small constant per plan (the compiled
// program, the sorted result slice, an occasional slab chunk), whatever
// the number of answers. A clone per answer and a rendered sort key
// per answer would cost two allocations per answer.
func TestExecuteAllocsPerPlan(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	allocs := func(answers int) float64 {
		cat := lav.NewCatalog()
		cat.MustAdd("S", schema.MustParseQuery("S(X, Y) :- r(X, Y)"), lav.Stats{Tuples: float64(answers), TransmitCost: 1, Overhead: 1})
		store := make(DB)
		for i := 0; i < answers; i++ {
			store.Add("S", fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%7))
		}
		eng := NewEngine(cat, store)
		plan := schema.MustParseQuery("P(Y, X) :- S(X, Y)")
		run := func() {
			got, err := eng.ExecutePlan(plan)
			if err != nil || len(got) != answers {
				t.Fatalf("ExecutePlan returned %d answers (%v), want %d", len(got), err, answers)
			}
		}
		run() // warm: index, slab and sort scratch
		return testing.AllocsPerRun(20, run)
	}
	small, large := allocs(128), allocs(1024)
	t.Logf("allocs per plan: %.1f with 128 answers, %.1f with 1024", small, large)
	if small > 32 {
		t.Fatalf("a plan with 128 answers allocates %.1f times, want at most 32", small)
	}
	if large > small+4 {
		t.Fatalf("allocations grow with answers: %.1f with 128, %.1f with 1024", small, large)
	}
}
