// Package planspace represents query plans and plan spaces.
//
// A plan space is the Cartesian product of a set of buckets (Section 2).
// A plan assigns one abstraction node to each bucket position: if all
// nodes are leaves the plan is concrete, otherwise it is an abstract plan
// representing the Cartesian product of its nodes' members (Section 5.1).
package planspace

import (
	"strconv"
	"strings"
	"sync/atomic"

	"qporder/internal/abstraction"
	"qporder/internal/lav"
)

// Plan is a (possibly abstract) query plan: one node per query subgoal.
// Plans are immutable; Nodes must not be modified after construction.
// Key is safe to call from concurrent goroutines (the parallel ordering
// paths share plans across workers).
type Plan struct {
	Nodes []*abstraction.Node
	key   atomic.Pointer[string] // lazily built canonical key
}

// New returns a plan over the given nodes.
func New(nodes ...*abstraction.Node) *Plan {
	if len(nodes) == 0 {
		panic("planspace: empty plan")
	}
	return &Plan{Nodes: nodes}
}

// Len returns the number of positions (the query length).
func (p *Plan) Len() int { return len(p.Nodes) }

// Concrete reports whether every position is a single source.
func (p *Plan) Concrete() bool {
	for _, n := range p.Nodes {
		if !n.IsLeaf() {
			return false
		}
	}
	return true
}

// NumConcrete returns the number of concrete plans this plan represents.
func (p *Plan) NumConcrete() int64 {
	n := int64(1)
	for _, nd := range p.Nodes {
		n *= int64(nd.Size())
	}
	return n
}

// Sources returns the source at each position; it panics if the plan is
// abstract.
func (p *Plan) Sources() []lav.SourceID {
	out := make([]lav.SourceID, len(p.Nodes))
	for i, n := range p.Nodes {
		out[i] = n.Source()
	}
	return out
}

// Key returns a canonical string identity for the plan. Concrete plans of
// the same sources share a key even when built from distinct node objects.
// Racing callers may build the key twice; both build the same string, so
// the duplicated work is benign and the published value is stable.
func (p *Plan) Key() string {
	if k := p.key.Load(); k != nil {
		return *k
	}
	var b strings.Builder
	for i, n := range p.Nodes {
		if i > 0 {
			b.WriteByte('|')
		}
		if n.IsLeaf() {
			b.WriteString(strconv.Itoa(int(n.Sources[0])))
			continue
		}
		b.WriteByte('{')
		for j, s := range n.Sources {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(int(s)))
		}
		b.WriteByte('}')
	}
	k := b.String()
	p.key.Store(&k)
	return k
}

// KeyLess reports whether a.Key() < b.Key() without building either key,
// so deterministic tie-breaks cost no allocation. A key is the nodes'
// renderings joined by '|': a leaf renders as its source's digits, a
// group as "{" + Node.Key() + "}". KeyLess walks the plans position by
// position, skips pointer-equal nodes, and compares only the first pair
// of differing renderings: leaves through digits rendered on the stack,
// groups through their cached Node.Key.
//
// Equivalence contract: KeyLess(a, b) == (a.Key() < b.Key()) for every
// pair of plans. The one delicate case is a leaf rendering that is a
// proper prefix of the other's ("1" against "12"): in the full key the
// shorter one is followed by '|', which sorts after every digit, or, at
// the last position, by the end of the key, which sorts first. A group
// rendering ends in '}' and so is never a proper prefix of another
// node's.
func KeyLess(a, b *Plan) bool {
	n := min(len(a.Nodes), len(b.Nodes))
	for i := 0; i < n; i++ {
		x, y := a.Nodes[i], b.Nodes[i]
		if x == y {
			continue
		}
		switch xl, yl := x.IsLeaf(), y.IsLeaf(); {
		case xl && yl:
			var xb, yb [20]byte
			xs := strconv.AppendInt(xb[:0], int64(x.Sources[0]), 10)
			ys := strconv.AppendInt(yb[:0], int64(y.Sources[0]), 10)
			if c, decided := cmpRendering(xs, ys, follow(a, i), follow(b, i)); decided {
				return c < 0
			}
		case xl != yl:
			// A leaf starts with a digit or '-', a group with '{'.
			return xl
		default:
			// Both groups: compare Key()+"}" against Key()+"}".
			if c, decided := cmpRendering(x.Key(), y.Key(), '}', '}'); decided {
				return c < 0
			}
		}
	}
	return len(a.Nodes) < len(b.Nodes)
}

// follow returns the byte of p's key that follows position i's
// rendering: the '|' separator, or -1 for the end of the key.
func follow(p *Plan, i int) int {
	if i+1 < len(p.Nodes) {
		return '|'
	}
	return -1
}

// cmpRendering compares x+tx against y+ty, where the terminators tx and
// ty are single bytes (or -1 for the end of the key) that never occur in
// x or y. It reports decided=false when x and y are equal: the two
// renderings match and the comparison moves on to the next position.
func cmpRendering[S string | []byte](x, y S, tx, ty int) (c int, decided bool) {
	m := min(len(x), len(y))
	for j := 0; j < m; j++ {
		if x[j] != y[j] {
			return int(x[j]) - int(y[j]), true
		}
	}
	switch {
	case len(x) == len(y):
		return 0, false
	case len(x) < len(y):
		return tx - int(y[m]), true
	default:
		return int(x[m]) - ty, true
	}
}

// Refine replaces the largest abstract node (earliest position on ties)
// with each of its children, returning the resulting lower-level plans.
// It panics on concrete plans.
func (p *Plan) Refine() []*Plan {
	pos := -1
	size := 1
	for i, n := range p.Nodes {
		if n.Size() > size {
			pos, size = i, n.Size()
		}
	}
	if pos < 0 {
		panic("planspace: Refine on concrete plan " + p.Key())
	}
	node := p.Nodes[pos]
	// One plan slab and one node slab for the whole sibling set (the
	// refinement loops churn through frontiers of these), not two
	// allocations per child.
	q := len(p.Nodes)
	n := len(node.Children)
	out := make([]*Plan, n)
	plans := make([]Plan, n)
	slab := make([]*abstraction.Node, n*q)
	for ci, ch := range node.Children {
		nodes := slab[ci*q : (ci+1)*q : (ci+1)*q]
		copy(nodes, p.Nodes)
		nodes[pos] = ch
		plans[ci].Nodes = nodes
		out[ci] = &plans[ci]
	}
	return out
}

// String renders "V1 V5" or "{V1 V2} V5" style, using catalog names when
// cat is non-nil.
func (p *Plan) String() string {
	parts := make([]string, len(p.Nodes))
	for i, n := range p.Nodes {
		parts[i] = n.String()
	}
	return strings.Join(parts, " ")
}

// Format renders the plan with catalog source names, e.g. "V1 V5".
func (p *Plan) Format(cat *lav.Catalog) string {
	parts := make([]string, len(p.Nodes))
	for i, n := range p.Nodes {
		if n.IsLeaf() {
			parts[i] = cat.Source(n.Source()).Name
			continue
		}
		names := make([]string, len(n.Sources))
		for j, s := range n.Sources {
			names[j] = cat.Source(s).Name
		}
		parts[i] = "{" + strings.Join(names, " ") + "}"
	}
	return strings.Join(parts, " ")
}

// SameSources reports whether two concrete plans access the same source at
// every position.
func SameSources(a, b *Plan) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Nodes {
		if !a.Nodes[i].IsLeaf() || !b.Nodes[i].IsLeaf() {
			return false
		}
		if a.Nodes[i].Source() != b.Nodes[i].Source() {
			return false
		}
	}
	return true
}
