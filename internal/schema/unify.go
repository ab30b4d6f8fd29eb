package schema

// UnifyTerms extends substitution s so that s(a) == s(b), returning the
// extended substitution and true on success. Terms here are flat (no
// function symbols), so unification needs no occurs check beyond
// variable-to-variable chains, which we resolve eagerly.
func UnifyTerms(a, b Term, s Subst) (Subst, bool) {
	a = resolve(a, s)
	b = resolve(b, s)
	switch {
	case a == b:
		return s, true
	case a.IsVar():
		out := s.Clone()
		out[a] = b
		return out, true
	case b.IsVar():
		out := s.Clone()
		out[b] = a
		return out, true
	default: // distinct constants
		return s, false
	}
}

// resolve follows variable bindings in s until reaching a constant or an
// unbound variable.
func resolve(t Term, s Subst) Term {
	for t.IsVar() {
		img, ok := s[t]
		if !ok || img == t {
			return t
		}
		t = img
	}
	return t
}

// UnifyAtoms extends s to unify atoms a and b (same predicate and arity
// required). It returns the extended substitution and true on success.
//
// s itself is never modified: the first new binding copies it once and
// later bindings go into that copy. A success that needs no new binding
// returns s, a failure returns s and false.
func UnifyAtoms(a, b Atom, s Subst) (Subst, bool) {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return s, false
	}
	cur := s
	copied := false
	for i := range a.Args {
		x := resolve(a.Args[i], cur)
		y := resolve(b.Args[i], cur)
		if x == y {
			continue
		}
		if !x.IsVar() {
			if !y.IsVar() {
				return s, false // distinct constants
			}
			x, y = y, x
		}
		if !copied {
			cur = make(Subst, len(s)+len(a.Args)-i)
			for k, v := range s {
				cur[k] = v
			}
			copied = true
		}
		cur[x] = y
	}
	return cur, true
}

// MatchAtom attempts to extend s so that s(pattern) == ground, where
// ground contains only constants. Unlike full unification it never binds
// anything inside ground. Returns the extended substitution and success.
//
// The match is decided before anything is allocated: each argument is
// compared under s, and a variable s leaves unbound must agree with the
// ground value at its first occurrence in pattern. Only a success copies
// s; s itself is never modified.
func MatchAtom(pattern, ground Atom, s Subst) (Subst, bool) {
	if pattern.Pred != ground.Pred || len(pattern.Args) != len(ground.Args) {
		return s, false
	}
	for i, pt := range pattern.Args {
		gt := ground.Args[i]
		if pt = resolve(pt, s); pt.Const {
			if pt != gt {
				return s, false
			}
			continue
		}
		for j := 0; j < i; j++ {
			if resolve(pattern.Args[j], s) == pt {
				if ground.Args[j] != gt {
					return s, false
				}
				break
			}
		}
	}
	cur := make(Subst, len(s)+len(pattern.Args))
	for k, v := range s {
		cur[k] = v
	}
	for i, pt := range pattern.Args {
		if pt = resolve(pt, s); !pt.Const {
			cur[pt] = ground.Args[i]
		}
	}
	return cur, true
}
