// Package abstraction builds the per-bucket source-abstraction hierarchies
// used by Drips, iDrips, and Streamer (Section 5 of the paper).
//
// An abstract source is a group of concrete sources that are "similar": a
// grouping heuristic orders a bucket so that similar sources are adjacent,
// and a balanced binary tree over that order becomes the hierarchy. The
// root abstracts the whole bucket; refining a node exposes its two
// children; leaves are concrete sources.
package abstraction

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"qporder/internal/lav"
)

// Node is an abstract source: a set of concrete member sources within one
// bucket. A leaf has exactly one member and nil Children. Nodes are
// immutable after construction; identity is pointer identity.
type Node struct {
	// Bucket is the subgoal index this node's sources belong to.
	Bucket int
	// Sources lists the member source IDs in ascending order.
	Sources []lav.SourceID
	// Children are the refinement of this node (nil for leaves).
	Children []*Node

	key atomic.Pointer[string] // lazily built canonical key
}

// IsLeaf reports whether the node is a single concrete source.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Size returns the number of member sources.
func (n *Node) Size() int { return len(n.Sources) }

// Source returns the single member of a leaf; it panics on abstract nodes.
func (n *Node) Source() lav.SourceID {
	if !n.IsLeaf() {
		panic("abstraction: Source() on abstract node")
	}
	return n.Sources[0]
}

// Min returns the smallest member ID (used for deterministic tie-breaks).
func (n *Node) Min() lav.SourceID { return n.Sources[0] }

// Key returns a canonical content key for the node's member set: "7" for
// the leaf V7, "1,5,9" for a group over sources {1,5,9}. Two nodes with
// the same members share a key even when they are distinct objects —
// iDrips abstracts every subspace a split creates afresh, and every
// orderer builds hierarchies of its own, so shared caches keyed by
// pointer identity would miss across them. Everything memoized
// under a key (answer sets, source statistics) is a function of the
// member set alone, so the bucket index is deliberately excluded. The key
// is built once and cached; concurrent callers may race to build it, but
// they build identical strings, so last-write-wins is benign.
func (n *Node) Key() string {
	if k := n.key.Load(); k != nil {
		return *k
	}
	var b strings.Builder
	b.Grow(4 * len(n.Sources)) // room for IDs below 1000
	for i, s := range n.Sources {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(s)))
	}
	k := b.String()
	n.key.Store(&k)
	return k
}

// String renders a leaf as "V7" and a group as "{V3 V7 V9}".
func (n *Node) String() string {
	if n.IsLeaf() {
		return fmt.Sprintf("V%d", n.Sources[0])
	}
	parts := make([]string, len(n.Sources))
	for i, s := range n.Sources {
		parts[i] = fmt.Sprintf("V%d", s)
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// Heuristic orders a bucket's sources so that similar sources become
// adjacent; the hierarchy groups adjacent runs. Implementations must
// return a permutation of the input (Build verifies it).
type Heuristic interface {
	// Name identifies the heuristic in experiment output.
	Name() string
	// Order returns the grouping order for the given bucket.
	Order(bucket int, sources []lav.SourceID) []lav.SourceID
}

// keyHeuristic orders sources by a numeric similarity key.
type keyHeuristic struct {
	name string
	key  func(bucket int, id lav.SourceID) float64
}

func (h keyHeuristic) Name() string { return h.name }

// Order sorts stably by key, then ID. Keys compare with < and >, so a
// NaN key, neither below nor above any other, compares equal to every
// key and keeps its place as under sort.SliceStable (cmp.Compare on the
// keys would move NaNs first).
func (h keyHeuristic) Order(bucket int, sources []lav.SourceID) []lav.SourceID {
	out := append([]lav.SourceID(nil), sources...)
	slices.SortStableFunc(out, func(a, b lav.SourceID) int {
		if ka, kb := h.key(bucket, a), h.key(bucket, b); ka != kb {
			switch {
			case ka < kb:
				return -1
			case ka > kb:
				return 1
			}
			return 0
		}
		return cmp.Compare(a, b)
	})
	return out
}

// ByKey returns a heuristic that sorts sources by an arbitrary numeric
// similarity key (smaller keys first, adjacent keys grouped together).
func ByKey(name string, key func(bucket int, id lav.SourceID) float64) Heuristic {
	return keyHeuristic{name: name, key: key}
}

// ByTuples is the paper's heuristic: group sources with similar expected
// numbers of output tuples (n_i).
func ByTuples(cat *lav.Catalog) Heuristic {
	return ByKey("by-tuples", func(_ int, id lav.SourceID) float64 {
		return cat.Source(id).Stats.Tuples
	})
}

// ByAccessCost groups sources by their standalone expected access cost
// h/(1-f) + α·n, a natural heuristic for the cost measures.
func ByAccessCost(cat *lav.Catalog) Heuristic {
	return ByKey("by-access-cost", func(_ int, id lav.SourceID) float64 {
		st := cat.Source(id).Stats
		return st.Overhead/(1-st.FailureProb) + st.TransmitCost*st.Tuples
	})
}

// ByID is the null heuristic (registration order); useful as an ablation
// baseline for how much the grouping heuristic matters.
func ByID() Heuristic {
	return ByKey("by-id", func(_ int, id lav.SourceID) float64 { return float64(id) })
}

// Build constructs one hierarchy root per bucket. Each bucket must be
// non-empty. The heuristic orders each bucket; the hierarchy is a balanced
// binary tree over that order, so refining a node splits its members into
// two similar halves. Build panics unless each root's members equal the
// bucket's: a heuristic that drops a source, or repeats one in its
// place, would otherwise abstract a different plan space.
func Build(buckets [][]lav.SourceID, h Heuristic) []*Node {
	roots := make([]*Node, len(buckets))
	var sorted []lav.SourceID
	for b, srcs := range buckets {
		if len(srcs) == 0 {
			panic(fmt.Sprintf("abstraction: empty bucket %d", b))
		}
		ordered := h.Order(b, srcs)
		if len(ordered) != len(srcs) {
			panic(fmt.Sprintf("abstraction: heuristic %s returned %d sources for bucket of %d",
				h.Name(), len(ordered), len(srcs)))
		}
		roots[b] = build(b, ordered)
		want := srcs
		if !slices.IsSorted(srcs) {
			sorted = append(sorted[:0], srcs...)
			slices.Sort(sorted)
			want = sorted
		}
		if !slices.Equal(roots[b].Sources, want) {
			panic(fmt.Sprintf("abstraction: heuristic %s returned %v for bucket %d %v, not a permutation",
				h.Name(), ordered, b, srcs))
		}
	}
	return roots
}

// build constructs a balanced tree over ordered sources. The tree's
// nodes, member lists and child lists are carved from three slabs, one
// allocation each per bucket rather than several per node; a node's
// sorted members are the merge of its children's.
func build(bucket int, ordered []lav.SourceID) *Node {
	n := len(ordered)
	b := treeBuilder{
		bucket: bucket,
		nodes:  make([]Node, 2*n-1),
		ids:    make([]lav.SourceID, memberSlots(n)),
		kids:   make([]*Node, 2*(n-1)),
	}
	return b.node(ordered)
}

// memberSlots returns the total length of the member lists of a tree
// over n sources: n at the root plus its two subtrees'.
func memberSlots(n int) int {
	if n == 1 {
		return 1
	}
	return n + memberSlots(n/2) + memberSlots(n-n/2)
}

// treeBuilder hands out the next unused slot of each slab.
type treeBuilder struct {
	bucket int
	nodes  []Node
	ids    []lav.SourceID
	kids   []*Node
}

func (b *treeBuilder) node(ordered []lav.SourceID) *Node {
	nd := &b.nodes[0]
	b.nodes = b.nodes[1:]
	nd.Bucket = b.bucket
	k := len(ordered)
	nd.Sources, b.ids = b.ids[:k:k], b.ids[k:]
	if k == 1 {
		nd.Sources[0] = ordered[0]
		return nd
	}
	mid := k / 2
	left := b.node(ordered[:mid])
	right := b.node(ordered[mid:])
	merge(nd.Sources, left.Sources, right.Sources)
	nd.Children, b.kids = b.kids[:2:2], b.kids[2:]
	nd.Children[0], nd.Children[1] = left, right
	return nd
}

// merge writes the sorted union, with multiplicity, of the sorted lists
// x and y into out, which has room for exactly both.
func merge(out, x, y []lav.SourceID) {
	i := 0
	for len(x) > 0 && len(y) > 0 {
		if y[0] < x[0] {
			out[i], y = y[0], y[1:]
		} else {
			out[i], x = x[0], x[1:]
		}
		i++
	}
	i += copy(out[i:], x)
	copy(out[i:], y)
}

// BuildLeaves returns, for each bucket, leaf nodes for every source with
// no abstraction above them. Algorithms that never abstract (PI,
// Exhaustive, Greedy) share these leaves so utility caches keyed by node
// identity stay effective.
func BuildLeaves(buckets [][]lav.SourceID) [][]*Node {
	out := make([][]*Node, len(buckets))
	for b, srcs := range buckets {
		leaves := make([]*Node, len(srcs))
		for i, s := range srcs {
			leaves[i] = &Node{Bucket: b, Sources: []lav.SourceID{s}}
		}
		out[b] = leaves
	}
	return out
}
