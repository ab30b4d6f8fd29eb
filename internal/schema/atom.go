package schema

import (
	"bytes"
	"cmp"
	"slices"
)

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
	var buf [64]byte // renderings that fit cost only the string
	return string(a.AppendTo(buf[:0]))
}

// AppendTo appends a's rendering, exactly String's bytes, to dst.
func (a Atom) AppendTo(dst []byte) []byte {
	dst = append(dst, a.Pred...)
	dst = append(dst, '(')
	for i, t := range a.Args {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = t.AppendTo(dst)
	}
	return append(dst, ')')
}

// AtomSorter orders atoms as sorting them by String would, rendering
// each atom once into scratch space that it keeps for the next call, so
// a warm sorter allocates nothing per atom. Atoms with equal renderings
// keep their input order. The zero value is ready to use; a sorter is
// not safe for concurrent use.
type AtomSorter struct {
	buf   []byte
	spans []renderSpan
}

// renderSpan is one atom's rendering, buf[lo:hi], and its input index.
type renderSpan struct{ lo, hi, i int32 }

// AppendSorted appends atoms to dst in rendering order and returns the
// extended slice; atoms itself is not reordered.
func (s *AtomSorter) AppendSorted(dst, atoms []Atom) []Atom {
	s.buf, s.spans = s.buf[:0], slices.Grow(s.spans[:0], len(atoms))
	for i, a := range atoms {
		lo := len(s.buf)
		s.buf = a.AppendTo(s.buf)
		s.spans = append(s.spans, renderSpan{int32(lo), int32(len(s.buf)), int32(i)})
	}
	buf := s.buf
	slices.SortFunc(s.spans, func(x, y renderSpan) int {
		if c := bytes.Compare(buf[x.lo:x.hi], buf[y.lo:y.hi]); c != 0 {
			return c
		}
		return cmp.Compare(x.i, y.i)
	})
	for _, sp := range s.spans {
		dst = append(dst, atoms[sp.i])
	}
	return dst
}
