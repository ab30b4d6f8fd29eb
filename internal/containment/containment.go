// Package containment decides conjunctive-query containment via
// containment mappings (Chandra & Merlin). The bucket algorithm uses it as
// the soundness test: a candidate plan is sound iff its expansion is
// contained in the user query.
//
// Q1 ⊆ Q2 holds iff there is a homomorphism h from the terms of Q2 to the
// terms of Q1 such that h maps Q2's head to Q1's head and every body atom
// of Q2 to some body atom of Q1. Constants must map to themselves.
//
// h's domain is Q2's variables and Q1's terms are only compared, never
// bound, so the two queries may share variable names: nothing is renamed.
package containment

import (
	"slices"
	"sync"

	"qporder/internal/schema"
)

// Contains reports whether q1 ⊆ q2, i.e. every answer of q1 (on every
// database) is an answer of q2. Head arities must match; mismatched heads
// are simply not contained.
func Contains(q1, q2 *schema.Query) bool {
	return Compile(q2).Contains(q1.Head, q1.Body)
}

// Equivalent reports whether q1 and q2 are equivalent (mutual containment).
func Equivalent(q1, q2 *schema.Query) bool {
	return Contains(q1, q2) && Contains(q2, q1)
}

// Compiled is a containing query Q2 prepared for repeated containment
// tests: each of its variables owns a fixed slot, so a test binds h in a
// slot array and undoes bindings through a trail on backtrack instead of
// copying a substitution per candidate atom. A Compiled value is
// read-only after Compile and safe for concurrent use; each call takes
// its scratch state from a pool, so a warm test allocates nothing.
type Compiled struct {
	head  []arg
	body  []pattern
	nvars int
	pool  sync.Pool // *matcher
}

// arg is one compiled argument of Q2: a variable's slot, or the constant
// itself when slot < 0.
type arg struct {
	slot int
	c    schema.Term
}

// pattern is one compiled body atom of Q2.
type pattern struct {
	pred string
	args []arg
}

// matcher is one containment test's binding state: img[v] is h(v) when
// set[v], and trail lists the slots bound so far, in binding order.
type matcher struct {
	img   []schema.Term
	set   []bool
	trail []int
}

// Compile prepares q2 as the containing side of Contains tests.
func Compile(q2 *schema.Query) *Compiled {
	c := &Compiled{}
	var vars []schema.Term
	compile := func(ts []schema.Term) []arg {
		out := make([]arg, len(ts))
		for i, t := range ts {
			if t.Const {
				out[i] = arg{slot: -1, c: t}
				continue
			}
			slot := slices.Index(vars, t)
			if slot < 0 {
				slot = len(vars)
				vars = append(vars, t)
			}
			out[i] = arg{slot: slot}
		}
		return out
	}
	c.head = compile(q2.Head)
	c.body = make([]pattern, len(q2.Body))
	for i, a := range q2.Body {
		c.body[i] = pattern{pred: a.Pred, args: compile(a.Args)}
	}
	c.nvars = len(vars)
	c.pool.New = func() any {
		return &matcher{
			img:   make([]schema.Term, c.nvars),
			set:   make([]bool, c.nvars),
			trail: make([]int, 0, c.nvars),
		}
	}
	return c
}

// Contains reports whether the query with the given head and body (Q1)
// is contained in the compiled query: some homomorphism maps the compiled
// head onto head and every compiled body atom into body.
func (c *Compiled) Contains(head []schema.Term, body []schema.Atom) bool {
	if len(head) != len(c.head) {
		return false
	}
	m := c.pool.Get().(*matcher)
	defer c.pool.Put(m)
	clear(m.set)
	m.trail = m.trail[:0]
	// Seed h with the head constraint h(head2[i]) = head1[i].
	if !m.bind(c.head, head) {
		return false
	}
	return c.mapAtoms(m, 0, body)
}

// mapAtoms extends h so compiled atoms k.. each map into some atom of
// body: a backtracking search over candidate target atoms, pruned by
// predicate, that undoes a failed candidate's bindings before the next.
func (c *Compiled) mapAtoms(m *matcher, k int, body []schema.Atom) bool {
	if k == len(c.body) {
		return true
	}
	p := c.body[k]
	for _, b := range body {
		if b.Pred != p.pred || len(b.Args) != len(p.args) {
			continue
		}
		mark := len(m.trail)
		if m.bind(p.args, b.Args) && c.mapAtoms(m, k+1, body) {
			return true
		}
		m.undo(mark)
	}
	return false
}

// bind extends h so h(args[i]) == ts[i] for every i; the terms of ts are
// rigid. On failure the bindings it made stay on the trail for the
// caller's undo.
func (m *matcher) bind(args []arg, ts []schema.Term) bool {
	for i, a := range args {
		t := ts[i]
		if a.slot < 0 {
			if a.c != t {
				return false
			}
			continue
		}
		if m.set[a.slot] {
			if m.img[a.slot] != t {
				return false
			}
			continue
		}
		m.set[a.slot] = true
		m.img[a.slot] = t
		m.trail = append(m.trail, a.slot)
	}
	return true
}

// undo unbinds every slot bound after the trail had length mark.
func (m *matcher) undo(mark int) {
	for _, v := range m.trail[mark:] {
		m.set[v] = false
	}
	m.trail = m.trail[:mark]
}
