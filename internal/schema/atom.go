package schema

import "strings"

// Atom is a predicate applied to terms, e.g. play-in(ford, M). It serves
// both as a query subgoal and as a tuple pattern over a relation.
type Atom struct {
	Pred string
	Args []Term
}

// NewAtom constructs an atom.
func NewAtom(pred string, args ...Term) Atom {
	return Atom{Pred: pred, Args: args}
}

// Arity returns the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// Clone returns a deep copy of the atom.
func (a Atom) Clone() Atom {
	args := make([]Term, len(a.Args))
	copy(args, a.Args)
	return Atom{Pred: a.Pred, Args: args}
}

// Equal reports structural equality.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// Vars appends the distinct variables of the atom, in order of first
// occurrence, to dst and returns the extended slice.
func (a Atom) Vars(dst []Term) []Term {
	for _, t := range a.Args {
		if t.IsVar() && !containsTerm(dst, t) {
			dst = append(dst, t)
		}
	}
	return dst
}

func containsTerm(ts []Term, t Term) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}

// String renders "pred(a, B, c)".
func (a Atom) String() string {
	var b strings.Builder
	n := len(a.Pred) + 2
	for _, t := range a.Args {
		n += len(t.Name) + 2
	}
	b.Grow(n)
	b.WriteString(a.Pred)
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte(')')
	return b.String()
}
