package schema

import (
	"fmt"
	"strings"
)

// Query is a conjunctive query (or view definition):
//
//	Head(Ȳ) :- Body1(Ȳ1), ..., Bodym(Ȳm)
//
// The same type represents user queries, LAV source descriptions, and plan
// expansions.
type Query struct {
	// Name is the head predicate, e.g. "Q" or "V1".
	Name string
	// Head lists the distinguished terms Ȳ.
	Head []Term
	// Body lists the subgoals.
	Body []Atom
}

// Clone returns a deep copy.
func (q *Query) Clone() *Query {
	c := &Query{Name: q.Name, Head: make([]Term, len(q.Head)), Body: make([]Atom, len(q.Body))}
	copy(c.Head, q.Head)
	for i, a := range q.Body {
		c.Body[i] = a.Clone()
	}
	return c
}

// HeadAtom returns the head as an atom.
func (q *Query) HeadAtom() Atom { return Atom{Pred: q.Name, Args: q.Head} }

// Vars returns the distinct variables of the query (head first, then body)
// in order of first occurrence.
func (q *Query) Vars() []Term {
	var vs []Term
	vs = Atom{Args: q.Head}.Vars(vs)
	for _, a := range q.Body {
		vs = a.Vars(vs)
	}
	return vs
}

// DistinguishedVars returns the variables occurring in the head.
func (q *Query) DistinguishedVars() []Term {
	var vs []Term
	return Atom{Args: q.Head}.Vars(vs)
}

// ExistentialVars returns body variables that do not occur in the head,
// in order of first occurrence.
func (q *Query) ExistentialVars() []Term {
	var out []Term
	for _, a := range q.Body {
		for _, t := range a.Args {
			if t.IsVar() && !containsTerm(q.Head, t) && !containsTerm(out, t) {
				out = append(out, t)
			}
		}
	}
	return out
}

// IsSafe reports whether every head variable appears in the body (range
// restriction), the usual safety condition for conjunctive queries. It
// scans the body once per head variable and allocates nothing.
func (q *Query) IsSafe() bool {
	for _, t := range q.Head {
		if t.IsVar() && !q.bodyHas(t) {
			return false
		}
	}
	return true
}

// bodyHas reports whether t occurs as an argument of some body atom.
func (q *Query) bodyHas(t Term) bool {
	for _, a := range q.Body {
		if containsTerm(a.Args, t) {
			return true
		}
	}
	return false
}

// Validate returns an error describing the first well-formedness problem:
// empty name, empty body, or an unsafe head variable.
func (q *Query) Validate() error {
	if q.Name == "" {
		return fmt.Errorf("schema: query has empty head predicate")
	}
	if len(q.Body) == 0 {
		return fmt.Errorf("schema: query %s has empty body", q.Name)
	}
	if !q.IsSafe() {
		return fmt.Errorf("schema: query %s is unsafe (head variable missing from body)", q.Name)
	}
	return nil
}

// Rename returns a copy of q whose variables are renamed by appending the
// given suffix, making them disjoint from any other query's variables.
// Constants are untouched.
func (q *Query) Rename(suffix string) *Query {
	m := make(map[Term]Term)
	for _, v := range q.Vars() {
		m[v] = Var(v.Name + suffix)
	}
	s := Subst(m)
	c := q.Clone()
	for i, t := range c.Head {
		c.Head[i] = s.Apply(t)
	}
	for i := range c.Body {
		c.Body[i] = s.ApplyAtom(c.Body[i])
	}
	return c
}

// String renders the query in datalog syntax.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString(q.HeadAtom().String())
	b.WriteString(" :- ")
	for i, a := range q.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	return b.String()
}
