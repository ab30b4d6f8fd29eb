package execsim

import (
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
