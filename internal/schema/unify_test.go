package schema

import "testing"

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
