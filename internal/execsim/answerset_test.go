package execsim

import (
	"fmt"
	"testing"

	"qporder/internal/schema"
)

func groundAtom(pred string, vals ...string) schema.Atom {
	args := make([]schema.Term, len(vals))
	for i, v := range vals {
		args[i] = schema.Const(v)
	}
	return schema.Atom{Pred: pred, Args: args}
}

func TestAnswerSetDedup(t *testing.T) {
	s := NewAnswerSet()
	a := groundAtom("ans", "x", "y")
	b := groundAtom("ans", "x", "z")
	if got := s.Add([]schema.Atom{a, b, a}); got != 2 {
		t.Fatalf("Add returned %d fresh, want 2", got)
	}
	if got := s.Add([]schema.Atom{b}); got != 0 {
		t.Fatalf("re-Add returned %d fresh, want 0", got)
	}
	if s.Len() != 2 {
		t.Fatalf("Len=%d, want 2", s.Len())
	}
	if !s.Contains(a) || !s.Contains(b) {
		t.Fatal("Contains misses an added atom")
	}
	if s.Contains(groundAtom("ans", "x", "w")) {
		t.Fatal("Contains reports an atom that was never added")
	}
	// Same arguments under a different predicate is a different answer.
	if s.Contains(groundAtom("other", "x", "y")) {
		t.Fatal("Contains conflates predicates")
	}
}

func TestAnswerSetDistinguishesArity(t *testing.T) {
	// Value keys must not conflate a short atom with a longer one that
	// shares its prefix (the inline key zero-pads unused slots).
	s := NewAnswerSet()
	short := groundAtom("p", "a")
	long := groundAtom("p", "a", "")
	if s.Add([]schema.Atom{short, long}) != 2 {
		t.Fatal("atoms differing only in arity conflated")
	}
}

func TestAnswerSetWideAtoms(t *testing.T) {
	vals := make([]string, atomKeyArity+3)
	for i := range vals {
		vals[i] = fmt.Sprintf("c%d", i)
	}
	wide := groundAtom("w", vals...)
	s := NewAnswerSet()
	if s.Add([]schema.Atom{wide, wide}) != 1 {
		t.Fatal("wide atom not deduplicated")
	}
	if !s.Contains(wide) {
		t.Fatal("Contains misses a wide atom")
	}
	if s.Len() != 1 {
		t.Fatalf("Len=%d, want 1", s.Len())
	}
}

// TestAnswerSetAddAllocs is the satellite gate: re-adding answers the
// set already holds — the common case when later plans re-derive
// earlier plans' tuples — must not allocate (the value key replaced the
// per-Add Atom.String rendering).
func TestAnswerSetAddAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	s := NewAnswerSet()
	batch := make([]schema.Atom, 64)
	for i := range batch {
		batch[i] = groundAtom("ans", fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))
	}
	s.Add(batch)
	if got := testing.AllocsPerRun(100, func() {
		if s.Add(batch) != 0 {
			t.Fatal("batch unexpectedly fresh")
		}
	}); got != 0 {
		t.Fatalf("duplicate Add allocates %.1f allocs/run, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		if !s.Contains(batch[0]) {
			t.Fatal("Contains misses a held atom")
		}
	}); got != 0 {
		t.Fatalf("Contains allocates %.1f allocs/run, want 0", got)
	}
}

// TestAnswersSurviveReset checks the slab's ownership rule: the atoms a
// plan's execution returned stay intact while the engine's reused set
// is reset and refilled by later plans, and appending to one answer's
// arguments cannot overwrite another's.
func TestAnswersSurviveReset(t *testing.T) {
	s := NewAnswerSet()
	var kept []schema.Atom
	var want []string
	for plan := 0; plan < 40; plan++ {
		s.reset()
		for i := 0; i < 7; i++ {
			s.put(groundAtom("P", fmt.Sprintf("p%d", plan), fmt.Sprintf("a%d", i)))
		}
		for _, a := range s.sorted() {
			kept = append(kept, a)
			want = append(want, a.String())
		}
	}
	_ = append(kept[0].Args, schema.Const("appended"))
	for i, a := range kept {
		if got := a.String(); got != want[i] {
			t.Fatalf("answer %d reads %s after later plans, want %s", i, got, want[i])
		}
	}
}
