package schema

import (
	"strings"
	"testing"
)

func TestParseQueryFigure1(t *testing.T) {
	q, err := ParseQuery(`Q(M, R) :- play-in(ford, M), review-of(R, M)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "Q" {
		t.Errorf("Name = %q", q.Name)
	}
	if len(q.Head) != 2 || q.Head[0] != Var("M") || q.Head[1] != Var("R") {
		t.Errorf("Head = %v", q.Head)
	}
	if len(q.Body) != 2 {
		t.Fatalf("Body = %v", q.Body)
	}
	if q.Body[0].Pred != "play-in" || q.Body[0].Args[0] != Const("ford") {
		t.Errorf("Body[0] = %v", q.Body[0])
	}
}

func TestParseQuotedConstantsAndEscapes(t *testing.T) {
	q, err := ParseQuery(`Q(X) :- name(X, "Harrison \"Indy\" Ford")`)
	if err != nil {
		t.Fatal(err)
	}
	got := q.Body[0].Args[1]
	if !got.Const || got.Name != `Harrison "Indy" Ford` {
		t.Errorf("quoted constant = %+v", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, src := range []string{
		"Q(M, R) :- play-in(ford, M), review-of(R, M)",
		"V1(A, M) :- play-in(A, M), american(M)",
		`Q(X) :- r(X, "two words")`,
		"Q(X, Y) :- edge(X, Z), edge(Z, Y)",
	} {
		q := MustParseQuery(src)
		q2, err := ParseQuery(q.String())
		if err != nil {
			t.Fatalf("re-parse of %q (%q) failed: %v", src, q.String(), err)
		}
		if q.String() != q2.String() {
			t.Errorf("round trip: %q -> %q", q.String(), q2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"Q(X)",                 // no body
		"Q(X) :- ",             // empty body
		"Q(X) :- r(X",          // unterminated args
		"Q(X) :- r(X) junk",    // trailing garbage
		"Q(X) :- r(Y)",         // unsafe head
		`Q(X) :- r("unclosed)`, // unterminated string
		"Q(X) :- (X)",          // missing predicate
	} {
		if _, err := ParseQuery(src); err == nil {
			t.Errorf("ParseQuery(%q) succeeded, want error", src)
		}
	}
}

func TestParseProgramCommentsAndBlank(t *testing.T) {
	prog := `
% a comment
# another comment
V1(A, M) :- play-in(A, M), american(M).
V2(A, M) :- play-in(A, M)  // trailing comment

`
	qs, err := ParseProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 {
		t.Fatalf("got %d rules, want 2", len(qs))
	}
	if qs[0].Name != "V1" || qs[1].Name != "V2" {
		t.Errorf("rules = %v, %v", qs[0], qs[1])
	}
}

func TestParseProgramReportsLine(t *testing.T) {
	_, err := ParseProgram("V1(A) :- r(A)\nbroken(")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want line 2 mention", err)
	}
}

func TestQueryVarsAndSafety(t *testing.T) {
	q := MustParseQuery("Q(X, Y) :- edge(X, Z), edge(Z, Y)")
	vs := q.Vars()
	if len(vs) != 3 {
		t.Errorf("Vars = %v", vs)
	}
	ex := q.ExistentialVars()
	if len(ex) != 1 || ex[0] != Var("Z") {
		t.Errorf("ExistentialVars = %v", ex)
	}
	if !q.IsSafe() {
		t.Error("q should be safe")
	}
	unsafe := &Query{Name: "Q", Head: []Term{Var("W")}, Body: q.Body}
	if unsafe.IsSafe() {
		t.Error("unsafe query reported safe")
	}
}

func TestRenameDisjointness(t *testing.T) {
	q := MustParseQuery("Q(X, Y) :- edge(X, Z), edge(Z, Y)")
	r := q.Rename("_1")
	for _, v := range r.Vars() {
		for _, o := range q.Vars() {
			if v == o {
				t.Errorf("renamed var %v collides with original", v)
			}
		}
	}
	if r.String() == q.String() {
		t.Error("rename did not change variables")
	}
	// Structure is preserved.
	if len(r.Body) != len(q.Body) || r.Body[0].Pred != q.Body[0].Pred {
		t.Error("rename broke structure")
	}
}

func TestUnifyAtoms(t *testing.T) {
	a := NewAtom("p", Var("X"), Const("c"))
	b := NewAtom("p", Const("d"), Var("Y"))
	sub, ok := UnifyAtoms(a, b, Subst{})
	if !ok {
		t.Fatal("unification failed")
	}
	if sub.Apply(Var("X")) != Const("d") || sub.Apply(Var("Y")) != Const("c") {
		t.Errorf("sub = %v", sub)
	}
	// Conflicting constants fail.
	if _, ok := UnifyAtoms(NewAtom("p", Const("a")), NewAtom("p", Const("b")), Subst{}); ok {
		t.Error("unified distinct constants")
	}
	// Predicate mismatch fails.
	if _, ok := UnifyAtoms(NewAtom("p", Var("X")), NewAtom("q", Var("X")), Subst{}); ok {
		t.Error("unified distinct predicates")
	}
}

func TestUnifyChains(t *testing.T) {
	// X=Y then Y=c must give X→c transitively via Resolve.
	s, ok := UnifyTerms(Var("X"), Var("Y"), Subst{})
	if !ok {
		t.Fatal("var-var unify failed")
	}
	s, ok = UnifyTerms(Var("Y"), Const("c"), s)
	if !ok {
		t.Fatal("var-const unify failed")
	}
	if got := s.Resolve(Var("X")); got != Const("c") {
		t.Errorf("Resolve(X) = %v, want c", got)
	}
}

func TestMatchAtom(t *testing.T) {
	pattern := NewAtom("r", Var("X"), Const("k"), Var("X"))
	if _, ok := MatchAtom(pattern, NewAtom("r", Const("a"), Const("k"), Const("b")), Subst{}); ok {
		t.Error("matched with inconsistent repeated variable")
	}
	sub, ok := MatchAtom(pattern, NewAtom("r", Const("a"), Const("k"), Const("a")), Subst{})
	if !ok {
		t.Fatal("match failed")
	}
	if sub.Apply(Var("X")) != Const("a") {
		t.Errorf("sub = %v", sub)
	}
}

func TestSubstCompose(t *testing.T) {
	s := Subst{Var("X"): Var("Y")}
	u := Subst{Var("Y"): Const("c"), Var("Z"): Const("d")}
	c := s.Compose(u)
	if c.Apply(Var("X")) != Const("c") {
		t.Errorf("Compose: X → %v, want c", c.Apply(Var("X")))
	}
	if c.Apply(Var("Z")) != Const("d") {
		t.Errorf("Compose: Z → %v, want d", c.Apply(Var("Z")))
	}
}

func TestTermQuoting(t *testing.T) {
	if got := Const("UpperStart").String(); got != `"UpperStart"` {
		t.Errorf("constant needing quote rendered %q", got)
	}
	if got := Const("plain-id.9").String(); got != "plain-id.9" {
		t.Errorf("plain constant rendered %q", got)
	}
	if got := Var("X1").String(); got != "X1" {
		t.Errorf("var rendered %q", got)
	}
}

// TestQuotedConstantRoundTrip checks that every constant renders to a
// form that parses back to the same constant, backslashes included.
func TestQuotedConstantRoundTrip(t *testing.T) {
	for _, tc := range []struct{ name, rendered string }{
		{`x\`, `"x\\"`},
		{`a\b`, `"a\\b"`},
		{`"`, `"\""`},
		{`a"b\`, `"a\"b\\"`},
		{`\\`, `"\\\\"`},
		{`two words`, `"two words"`},
		{`UpperStart`, `"UpperStart"`},
		{`plain-id.9`, `plain-id.9`},
	} {
		c := Const(tc.name)
		if got := c.String(); got != tc.rendered {
			t.Errorf("Const(%q) renders %s, want %s", tc.name, got, tc.rendered)
		}
		q, err := ParseQuery("Q(X) :- r(X, " + c.String() + ")")
		if err != nil {
			t.Errorf("Const(%q): rendering %s does not parse: %v", tc.name, c, err)
			continue
		}
		if got := q.Body[0].Args[1]; got != c {
			t.Errorf("Const(%q) renders %s, which parses back as %#v", tc.name, c, got)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := MustParseQuery("Q(X) :- r(X)").Validate(); err != nil {
		t.Error(err)
	}
	bad := &Query{Name: "", Head: nil, Body: []Atom{NewAtom("r")}}
	if err := bad.Validate(); err == nil {
		t.Error("empty-name query validated")
	}
}
