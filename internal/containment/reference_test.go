package containment

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"qporder/internal/schema"
)

// containsReference is Contains as it was before the compiled kernel:
// both queries renamed apart, and the homomorphism grown by cloning the
// substitution for every candidate atom.
func containsReference(q1, q2 *schema.Query) bool {
	if len(q1.Head) != len(q2.Head) {
		return false
	}
	q2 = q2.Rename("_c2")
	q1 = q1.Rename("_c1")
	h := make(schema.Subst)
	for i := range q2.Head {
		t2, t1 := q2.Head[i], q1.Head[i]
		if t2.Const {
			if t2 != t1 {
				return false
			}
			continue
		}
		if img, ok := h[t2]; ok {
			if img != t1 {
				return false
			}
			continue
		}
		h[t2] = t1
	}
	return mapAtomsReference(q2.Body, q1.Body, h)
}

func mapAtomsReference(src, dst []schema.Atom, h schema.Subst) bool {
	if len(src) == 0 {
		return true
	}
	for _, b := range dst {
		if ext, ok := mapAtomReference(src[0], b, h); ok && mapAtomsReference(src[1:], dst, ext) {
			return true
		}
	}
	return false
}

func mapAtomReference(a, b schema.Atom, h schema.Subst) (schema.Subst, bool) {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return nil, false
	}
	ext := h.Clone()
	for i, ta := range a.Args {
		tb := b.Args[i]
		if ta.Const {
			if ta != tb {
				return nil, false
			}
			continue
		}
		if img, ok := ext[ta]; ok {
			if img != tb {
				return nil, false
			}
			continue
		}
		ext[ta] = tb
	}
	return ext, true
}

// randomPair returns two random queries over the same variable names
// X0..X3, with constants in heads and bodies and heads of equal arity,
// so shared names, repeated variables and head constants all occur.
func randomPair(rng *rand.Rand) (*schema.Query, *schema.Query) {
	term := func() schema.Term {
		if rng.Intn(4) == 0 {
			return schema.Const(fmt.Sprintf("c%d", rng.Intn(2)))
		}
		return schema.Var(fmt.Sprintf("X%d", rng.Intn(4)))
	}
	arity := 1 + rng.Intn(2)
	cq := func() *schema.Query {
		body := make([]schema.Atom, 1+rng.Intn(4))
		for i := range body {
			body[i] = schema.NewAtom(fmt.Sprintf("r%d", rng.Intn(2)), term(), term())
		}
		head := make([]schema.Term, arity)
		for i := range head {
			head[i] = term()
		}
		return &schema.Query{Name: "Q", Head: head, Body: body}
	}
	return cq(), cq()
}

// TestContainsMatchesRenamingReference compares the compiled kernel
// with the renaming reference on random query pairs that share variable
// names, in both directions.
func TestContainsMatchesRenamingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	held := 0
	for i := 0; i < 20000; i++ {
		q1, q2 := randomPair(rng)
		for _, p := range [][2]*schema.Query{{q1, q2}, {q2, q1}} {
			got, want := Contains(p[0], p[1]), containsReference(p[0], p[1])
			if got != want {
				t.Fatalf("Contains(%s, %s) = %v, reference %v", p[0], p[1], got, want)
			}
			if got {
				held++
			}
		}
	}
	if held == 0 {
		t.Fatal("no random pair was contained; the comparison is vacuous")
	}
}

// TestContainsUndoesFailedCandidates needs backtracking: the first
// candidate for e(X, Y) binds Y to b, f(b) is missing, and only with
// that binding undone does the second candidate e(a, c) succeed.
func TestContainsUndoesFailedCandidates(t *testing.T) {
	q1 := schema.MustParseQuery("P(Z) :- e(Z, b), e(Z, c), f(c)")
	q2 := schema.MustParseQuery("Q(X) :- e(X, Y), f(Y)")
	if !Contains(q1, q2) {
		t.Fatalf("Contains(%s, %s) = false, want true", q1, q2)
	}
}

// TestContainsHeadConstraint checks the head seeding: without it both
// bodies map into each other, with it the swapped head is rejected.
func TestContainsHeadConstraint(t *testing.T) {
	q1 := schema.MustParseQuery("P(X, Y) :- e(X, Y), e(Y, Z)")
	q2 := schema.MustParseQuery("Q(Y, X) :- e(X, Y)")
	if Contains(q1, q2) {
		t.Fatalf("Contains(%s, %s) = true, want false", q1, q2)
	}
	if !Contains(q1, schema.MustParseQuery("Q(A, B) :- e(A, B)")) {
		t.Fatal("the unswapped head should be contained")
	}
}

// TestCompiledConcurrent runs one Compiled value from several
// goroutines; under -race it checks that calls share no state.
func TestCompiledConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q2 := schema.MustParseQuery("Q(X0) :- r0(X0, X1), r1(X1, X2)")
	var q1s []*schema.Query
	for len(q1s) < 64 {
		if q1, _ := randomPair(rng); len(q1.Head) == len(q2.Head) {
			q1s = append(q1s, q1)
		}
	}
	c := Compile(q2)
	want := make([]bool, len(q1s))
	held := 0
	for i, q1 := range q1s {
		if want[i] = containsReference(q1, q2); want[i] {
			held++
		}
	}
	if held == 0 || held == len(q1s) {
		t.Fatalf("%d of %d queries contained; the test needs both outcomes", held, len(q1s))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				for i, q1 := range q1s {
					if c.Contains(q1.Head, q1.Body) != want[i] {
						t.Errorf("concurrent Contains(%s, %s) != %v", q1, q2, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestCompiledContainsZeroAllocs: a warm test on a compiled query takes
// its binding state from the pool and allocates nothing.
func TestCompiledContainsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	q1 := schema.MustParseQuery("P(Z) :- e(Z, b), e(Z, c), f(c)")
	c := Compile(schema.MustParseQuery("Q(X) :- e(X, Y), f(Y)"))
	if n := testing.AllocsPerRun(100, func() {
		if !c.Contains(q1.Head, q1.Body) {
			t.Fatal("lost containment")
		}
	}); n != 0 {
		t.Fatalf("Compiled.Contains allocates %.1f times per call, want 0", n)
	}
}
