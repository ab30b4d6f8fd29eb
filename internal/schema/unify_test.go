package schema

import (
	"math/rand"
	"testing"
)

// TestMatchAtomSemantics pins MatchAtom's contract case by case: the
// extension it returns on a match, a failure on a mismatch, and an input
// substitution left as it was on both outcomes.
func TestMatchAtomSemantics(t *testing.T) {
	X, Y, A, B := Var("X"), Var("Y"), Var("A"), Var("B")
	a, b, c, d := Const("a"), Const("b"), Const("c"), Const("d")
	cases := []struct {
		name    string
		pattern Atom
		ground  Atom
		in      Subst
		want    Subst // nil: no match
	}{
		{"repeated variable, equal values", NewAtom("p", X, X), NewAtom("p", a, a), Subst{}, Subst{X: a}},
		{"repeated variable, distinct values", NewAtom("p", X, X), NewAtom("p", a, b), Subst{}, nil},
		{"repeated variable, bound first", NewAtom("p", X, X), NewAtom("p", a, a), Subst{X: b}, nil},
		{"chained substitution", NewAtom("p", A), NewAtom("p", c), Subst{A: B, B: c}, Subst{A: B, B: c}},
		{"chained substitution, mismatch", NewAtom("p", A), NewAtom("p", d), Subst{A: B, B: c}, nil},
		{"chain to an unbound variable", NewAtom("p", A, B), NewAtom("p", c, d), Subst{A: B}, nil},
		{"chain to an unbound variable, agreeing", NewAtom("p", A, B), NewAtom("p", c, c), Subst{A: B}, Subst{A: B, B: c}},
		{"constant after a variable", NewAtom("rel0", X, c), NewAtom("rel0", a, c), Subst{}, Subst{X: a}},
		{"constant after a variable, mismatch", NewAtom("rel0", X, c), NewAtom("rel0", a, d), Subst{}, nil},
		{"existing bindings carried", NewAtom("rel0", X, Y), NewAtom("rel0", a, b), Subst{A: d}, Subst{A: d, X: a, Y: b}},
		{"predicate differs", NewAtom("p", X), NewAtom("q", a), Subst{}, nil},
		{"arity differs", NewAtom("p", X), NewAtom("p", a, b), Subst{}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := tc.in.String()
			got, ok := MatchAtom(tc.pattern, tc.ground, tc.in)
			if after := tc.in.String(); after != before {
				t.Fatalf("input substitution changed: %s -> %s", before, after)
			}
			if ok != (tc.want != nil) {
				t.Fatalf("MatchAtom(%s, %s, %s) ok = %v, want %v", tc.pattern, tc.ground, before, ok, tc.want != nil)
			}
			if !ok {
				return
			}
			if got.String() != tc.want.String() {
				t.Fatalf("MatchAtom(%s, %s, %s) = %s, want %s", tc.pattern, tc.ground, before, got, tc.want)
			}
			// The extension is a copy: writing to it leaves the input alone.
			got[Var("Fresh")] = a
			if tc.in.String() != before {
				t.Fatal("the returned substitution aliases the input")
			}
		})
	}
}

// unifyAtomsReference is UnifyAtoms as it was before it copied s once:
// UnifyTerms, which clones the whole substitution on every new binding,
// applied position by position.
func unifyAtomsReference(a, b Atom, s Subst) (Subst, bool) {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return s, false
	}
	cur := s
	for i := range a.Args {
		var ok bool
		cur, ok = UnifyTerms(a.Args[i], b.Args[i], cur)
		if !ok {
			return s, false
		}
	}
	return cur, true
}

// TestUnifyAtomsLeavesInputAlone checks that neither a success nor a
// failure writes to the caller's substitution, and that a success's
// result is not the caller's map once a binding was added.
func TestUnifyAtomsLeavesInputAlone(t *testing.T) {
	X, Y, A := Var("X"), Var("Y"), Var("A")
	a, b := Const("a"), Const("b")
	in := Subst{A: X}
	before := in.String()
	got, ok := UnifyAtoms(NewAtom("p", A, Y), NewAtom("p", a, X), in)
	if !ok || got.String() != "{A→X, X→a, Y→a}" {
		t.Fatalf("UnifyAtoms = %s, %v", got, ok)
	}
	if in.String() != before {
		t.Fatalf("success changed the input: %s -> %s", before, in)
	}
	got[Var("Fresh")] = b
	if in.String() != before {
		t.Fatal("the returned substitution aliases the input")
	}
	if _, ok := UnifyAtoms(NewAtom("p", A, A), NewAtom("p", a, b), in); ok {
		t.Fatal("UnifyAtoms unified X with two constants")
	}
	if in.String() != before {
		t.Fatalf("failure changed the input: %s -> %s", before, in)
	}
}

// TestUnifyAtomsMatchesReference compares UnifyAtoms with the
// clone-per-binding reference on random atoms over few variables and
// constants, so repeated variables, chains and constant clashes all
// occur, with and without a non-empty starting substitution.
func TestUnifyAtomsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	terms := []Term{Var("X"), Var("Y"), Var("Z"), Var("W"), Const("a"), Const("b")}
	atom := func() Atom {
		args := make([]Term, 1+rng.Intn(4))
		for i := range args {
			args[i] = terms[rng.Intn(len(terms))]
		}
		return Atom{Pred: "p", Args: args}
	}
	for i := 0; i < 20000; i++ {
		a, b := atom(), atom()
		if rng.Intn(8) == 0 {
			b.Pred = "q"
		}
		s := Subst{}
		for j := rng.Intn(3); j > 0; j-- {
			s, _ = unifyAtomsReference(NewAtom("s", terms[rng.Intn(4)]), NewAtom("s", terms[rng.Intn(len(terms))]), s)
		}
		before := s.String()
		got, ok := UnifyAtoms(a, b, s)
		want, wantOK := unifyAtomsReference(a, b, s)
		if ok != wantOK || got.String() != want.String() {
			t.Fatalf("UnifyAtoms(%s, %s, %s) = %s, %v; reference %s, %v", a, b, before, got, ok, want, wantOK)
		}
		if s.String() != before {
			t.Fatalf("UnifyAtoms(%s, %s, %s) changed its input to %s", a, b, before, s)
		}
	}
}

// TestIsSafeZeroAllocs gates the plan-query safety check, which runs on
// every built plan query: it scans the body without collecting its
// variables.
func TestIsSafeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	q := MustParseQuery("Q(A, M, R) :- play-in(A, M), review-of(R, M), american(M)")
	if n := testing.AllocsPerRun(100, func() {
		if !q.IsSafe() {
			t.Fatal("safe query reported unsafe")
		}
	}); n != 0 {
		t.Fatalf("IsSafe allocates %.1f times per call, want 0", n)
	}
}
