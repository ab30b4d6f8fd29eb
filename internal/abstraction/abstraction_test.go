package abstraction

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"qporder/internal/lav"
)

func catalogWithTuples(tuples ...float64) *lav.Catalog {
	cat := lav.NewCatalog()
	for i, n := range tuples {
		cat.MustAdd(string(rune('a'+i)), nil, lav.Stats{Tuples: n})
	}
	return cat
}

func TestByTuplesOrdersSimilarAdjacent(t *testing.T) {
	cat := catalogWithTuples(500, 10, 480, 20)
	h := ByTuples(cat)
	got := h.Order(0, []lav.SourceID{0, 1, 2, 3})
	want := []lav.SourceID{1, 3, 2, 0} // 10, 20, 480, 500
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Order = %v, want %v", got, want)
		}
	}
}

func TestBuildHierarchyStructure(t *testing.T) {
	cat := catalogWithTuples(1, 2, 3, 4, 5)
	roots := Build([][]lav.SourceID{{0, 1, 2, 3, 4}}, ByTuples(cat))
	if len(roots) != 1 {
		t.Fatalf("got %d roots", len(roots))
	}
	root := roots[0]
	if root.Size() != 5 || root.IsLeaf() {
		t.Fatalf("root = %v", root)
	}
	// Walk: every internal node has exactly 2 children whose member sets
	// partition the parent's.
	var walk func(n *Node)
	leaves := 0
	walk = func(n *Node) {
		if n.IsLeaf() {
			leaves++
			if len(n.Sources) != 1 {
				t.Fatalf("leaf with %d members", len(n.Sources))
			}
			return
		}
		if len(n.Children) != 2 {
			t.Fatalf("internal node with %d children", len(n.Children))
		}
		total := 0
		seen := map[lav.SourceID]bool{}
		for _, ch := range n.Children {
			total += ch.Size()
			for _, s := range ch.Sources {
				if seen[s] {
					t.Fatalf("member %d in both children", s)
				}
				seen[s] = true
			}
			walk(ch)
		}
		if total != n.Size() {
			t.Fatalf("children sizes %d != parent %d", total, n.Size())
		}
		for _, s := range n.Sources {
			if !seen[s] {
				t.Fatalf("member %d lost in children", s)
			}
		}
	}
	walk(root)
	if leaves != 5 {
		t.Errorf("hierarchy has %d leaves, want 5", leaves)
	}
}

func TestBuildBalancedDepth(t *testing.T) {
	cat := lav.NewCatalog()
	var bucket []lav.SourceID
	for i := 0; i < 64; i++ {
		s := cat.MustAdd(string(rune('a'+i%26))+string(rune('0'+i/26)), nil, lav.Stats{Tuples: float64(i + 1)})
		bucket = append(bucket, s.ID)
	}
	root := Build([][]lav.SourceID{bucket}, ByTuples(cat))[0]
	var depth func(n *Node) int
	depth = func(n *Node) int {
		if n.IsLeaf() {
			return 1
		}
		d := 0
		for _, ch := range n.Children {
			if cd := depth(ch); cd > d {
				d = cd
			}
		}
		return d + 1
	}
	if d := depth(root); d != 7 { // log2(64)+1
		t.Errorf("depth = %d, want 7", d)
	}
}

func TestHeuristicDeterminism(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cat := lav.NewCatalog()
		var bucket []lav.SourceID
		n := 2 + rng.Intn(20)
		for i := 0; i < n; i++ {
			s := cat.MustAdd(string(rune('a'+i%26))+string(rune('0'+i/26)), nil,
				lav.Stats{Tuples: float64(1 + rng.Intn(5))}) // many ties
			bucket = append(bucket, s.ID)
		}
		h := ByTuples(cat)
		a := h.Order(0, bucket)
		b := h.Order(0, bucket)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestBuildLeaves(t *testing.T) {
	leaves := BuildLeaves([][]lav.SourceID{{3, 1}, {2}})
	if len(leaves) != 2 || len(leaves[0]) != 2 || len(leaves[1]) != 1 {
		t.Fatalf("BuildLeaves shape wrong: %v", leaves)
	}
	if leaves[0][0].Source() != 3 || leaves[0][0].Bucket != 0 {
		t.Errorf("leaf = %v", leaves[0][0])
	}
}

func TestNodeString(t *testing.T) {
	leaf := &Node{Sources: []lav.SourceID{7}}
	if leaf.String() != "V7" {
		t.Errorf("leaf String = %q", leaf.String())
	}
	grp := &Node{Sources: []lav.SourceID{3, 7}, Children: []*Node{leaf, leaf}}
	if grp.String() != "{V3 V7}" {
		t.Errorf("group String = %q", grp.String())
	}
}

func TestSourceOnAbstractNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	n := &Node{Sources: []lav.SourceID{1, 2}, Children: []*Node{{}, {}}}
	n.Source()
}

func TestEmptyBucketPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty bucket")
		}
	}()
	Build([][]lav.SourceID{{}}, ByID())
}

func TestNodeKey(t *testing.T) {
	leaf := &Node{Bucket: 2, Sources: []lav.SourceID{7}}
	if got := leaf.Key(); got != "7" {
		t.Errorf("leaf key = %q, want 7", got)
	}
	g := &Node{Bucket: 0, Sources: []lav.SourceID{1, 5, 9},
		Children: []*Node{{}, {}}}
	if got := g.Key(); got != "1,5,9" {
		t.Errorf("group key = %q, want 1,5,9", got)
	}
	// The key is content-addressed: a distinct object with the same
	// members (even in another bucket) shares it.
	g2 := &Node{Bucket: 3, Sources: []lav.SourceID{1, 5, 9},
		Children: []*Node{{}, {}}}
	if g.Key() != g2.Key() {
		t.Error("equal member sets produced different keys")
	}
	// Cached: repeated calls return the same value.
	if g.Key() != "1,5,9" {
		t.Error("cached key changed")
	}
}

// dupHeuristic returns the bucket with its last source replaced by a
// repeat of the first: the right length, the wrong members.
type dupHeuristic struct{}

func (dupHeuristic) Name() string { return "dup" }

func (dupHeuristic) Order(_ int, sources []lav.SourceID) []lav.SourceID {
	out := append([]lav.SourceID(nil), sources...)
	out[len(out)-1] = out[0]
	return out
}

// TestBuildRejectsNonPermutation checks that Build refuses a heuristic
// whose output has the bucket's length but not its members, for sorted
// and unsorted buckets, and accepts the same buckets under a valid one.
func TestBuildRejectsNonPermutation(t *testing.T) {
	for _, bucket := range [][]lav.SourceID{{1, 4, 6, 9}, {9, 1, 6, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bucket %v: Build accepted a heuristic that repeats a source", bucket)
				}
			}()
			Build([][]lav.SourceID{{2}, bucket}, dupHeuristic{})
		}()
		root := Build([][]lav.SourceID{bucket}, ByID())[0]
		if got, want := root.Sources, []lav.SourceID{1, 4, 6, 9}; !slices.Equal(got, want) {
			t.Errorf("bucket %v: root members %v, want %v", bucket, got, want)
		}
	}
}

// TestByKeyOrderMatchesSliceStable checks ByKey's order against a
// sort.SliceStable reference with the same less function, on keys with
// ties and NaNs.
func TestByKeyOrderMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(70)
		keys := make(map[lav.SourceID]float64, n)
		srcs := make([]lav.SourceID, n)
		for i := range srcs {
			srcs[i] = lav.SourceID(rng.Intn(1000))
			keys[srcs[i]] = float64(rng.Intn(5))
			if rng.Intn(10) == 0 {
				keys[srcs[i]] = math.NaN()
			}
		}
		key := func(_ int, id lav.SourceID) float64 { return keys[id] }
		want := append([]lav.SourceID(nil), srcs...)
		sort.SliceStable(want, func(i, j int) bool {
			ki, kj := key(0, want[i]), key(0, want[j])
			if ki != kj {
				return ki < kj
			}
			return want[i] < want[j]
		})
		if got := ByKey("k", key).Order(0, srcs); !slices.Equal(got, want) {
			t.Fatalf("trial %d: Order = %v, want %v", trial, got, want)
		}
	}
}
