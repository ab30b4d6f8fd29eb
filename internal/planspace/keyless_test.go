package planspace

import (
	"slices"
	"testing"

	"qporder/internal/abstraction"
	"qporder/internal/lav"
)

func leaf(id int) *abstraction.Node {
	return &abstraction.Node{Sources: ids(id)}
}

// group returns an abstract node over the given members; its children
// only make it non-leaf, KeyLess reads members alone.
func group(xs ...int) *abstraction.Node {
	ch := make([]*abstraction.Node, len(xs))
	for i, x := range xs {
		ch[i] = leaf(x)
	}
	return &abstraction.Node{Sources: ids(xs...), Children: ch}
}

// TestKeyLessMatchesKey pins KeyLess to the string order of Plan.Key on
// the cases where rendering boundaries matter, in both argument orders.
func TestKeyLessMatchesKey(t *testing.T) {
	shared := group(3, 4)
	cases := []struct {
		name string
		a, b func() *Plan
		cmp  int // sign of the key comparison of a against b
	}{
		{"leaf prefix at a middle position: '|' sorts after a digit",
			func() *Plan { return New(leaf(1), leaf(3)) },
			func() *Plan { return New(leaf(12), leaf(3)) }, 1},
		{"leaf prefix at the last position: end sorts first",
			func() *Plan { return New(leaf(3), leaf(1)) },
			func() *Plan { return New(leaf(3), leaf(12)) }, -1},
		{"equal-width leaves",
			func() *Plan { return New(leaf(7), leaf(19)) },
			func() *Plan { return New(leaf(7), leaf(21)) }, -1},
		{"leaf against group",
			func() *Plan { return New(leaf(9), leaf(0)) },
			func() *Plan { return New(group(1, 2), leaf(0)) }, -1},
		{"group prefix of a group: '}' sorts after ','",
			func() *Plan { return New(group(1, 5)) },
			func() *Plan { return New(group(1, 5, 9)) }, 1},
		{"group member prefix of a member",
			func() *Plan { return New(group(1, 5)) },
			func() *Plan { return New(group(1, 50)) }, 1},
		{"pointer-equal nodes",
			func() *Plan { return New(shared, leaf(2)) },
			func() *Plan { return New(shared, leaf(10)) }, 1},
		{"equal content in distinct node objects",
			func() *Plan { return New(group(3, 4), leaf(2)) },
			func() *Plan { return New(group(3, 4), leaf(2)) }, 0},
		{"shorter plan equal on the common positions",
			func() *Plan { return New(leaf(1), leaf(2)) },
			func() *Plan { return New(leaf(1), leaf(2), leaf(3)) }, -1},
		{"shorter plan with a leaf prefix at its end",
			func() *Plan { return New(leaf(1), leaf(2)) },
			func() *Plan { return New(leaf(1), leaf(23), leaf(3)) }, -1},
		{"shorter plan larger on a common position",
			func() *Plan { return New(leaf(1), leaf(3)) },
			func() *Plan { return New(leaf(1), leaf(2), leaf(3)) }, 1},
	}
	for _, tc := range cases {
		// Fresh plans per call, so no cached key is shared between the
		// KeyLess call and the Key comparison it is checked against.
		for _, dir := range []int{1, -1} {
			a, b := tc.a(), tc.b()
			if dir < 0 {
				a, b = b, a
			}
			want := tc.cmp*dir < 0
			got := KeyLess(a, b)
			if byKey := a.Key() < b.Key(); got != byKey || got != want {
				t.Errorf("%s: KeyLess(%s, %s) = %v, Key order %v, want %v",
					tc.name, a.Key(), b.Key(), got, byKey, want)
			}
		}
	}
	p := New(group(1, 2), leaf(3))
	if KeyLess(p, p) {
		t.Error("KeyLess(p, p) = true")
	}
}

// TestKeyLessZeroAllocs gates the tie-break hot path: once group nodes
// have their Node.Key cached, KeyLess allocates nothing, leaves included.
func TestKeyLessZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g1, g2 := group(1, 5), group(1, 5, 9)
	pairs := [][2]*Plan{
		{New(leaf(1), leaf(3)), New(leaf(12), leaf(3))},
		{New(g1, leaf(7)), New(g2, leaf(7))},
		{New(leaf(4), g1), New(g2, leaf(4))},
		{New(g1, leaf(100)), New(g1, leaf(1000), leaf(2))},
	}
	g1.Key()
	g2.Key()
	allocs := testing.AllocsPerRun(100, func() {
		for _, pr := range pairs {
			KeyLess(pr[0], pr[1])
			KeyLess(pr[1], pr[0])
		}
	})
	if allocs != 0 {
		t.Errorf("KeyLess allocates %v times per run, want 0", allocs)
	}
}

// fuzzDecoder decodes plans of one to four positions from fuzz input.
// IDs come from one byte, optionally extended by a digit, so renderings
// that are proper prefixes of one another ("3", "31") are common. A
// position of the second plan may reuse the first plan's node there, to
// exercise the pointer-equality skip. Exhausted input reads as zeros.
type fuzzDecoder struct{ data []byte }

func (d *fuzzDecoder) next() byte {
	if len(d.data) == 0 {
		return 0
	}
	x := d.data[0]
	d.data = d.data[1:]
	return x
}

func (d *fuzzDecoder) id() lav.SourceID {
	id := int(d.next())
	if d.next()&1 == 1 {
		id = id*10 + int(d.next()%10)
	}
	return lav.SourceID(id)
}

// plan decodes one plan; shareWith, when non-nil, lends its nodes.
func (d *fuzzDecoder) plan(shareWith *Plan) *Plan {
	n := 1 + int(d.next()%4)
	nodes := make([]*abstraction.Node, n)
	for i := range nodes {
		kind := d.next()
		switch {
		case shareWith != nil && i < shareWith.Len() && kind%4 == 3:
			nodes[i] = shareWith.Nodes[i]
		case kind%2 == 0:
			nodes[i] = &abstraction.Node{Sources: []lav.SourceID{d.id()}}
		default:
			m := 2 + int(d.next()%3)
			srcs := make([]lav.SourceID, m)
			ch := make([]*abstraction.Node, m)
			for j := range srcs {
				srcs[j] = d.id()
			}
			slices.Sort(srcs)
			for j, s := range srcs {
				ch[j] = &abstraction.Node{Sources: []lav.SourceID{s}}
			}
			nodes[i] = &abstraction.Node{Sources: srcs, Children: ch}
		}
	}
	return New(nodes...)
}

// FuzzPlanKeyOrder checks KeyLess's equivalence contract on decoded plan
// pairs: KeyLess(a, b) == (a.Key() < b.Key()), in both orders. KeyLess
// runs first, on plans whose keys were never built.
func FuzzPlanKeyOrder(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 1, 0, 0, 12, 0})
	f.Add([]byte{2, 0, 3, 0, 0, 1, 0, 2, 0, 0, 3, 0, 0, 31, 0})
	f.Add([]byte{0, 1, 0, 1, 5, 0, 9, 0, 0, 1, 2, 1, 5, 0, 9, 0, 90, 0})
	f.Add([]byte{1, 1, 1, 1, 0, 2, 1, 7, 3, 3, 0, 4, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &fuzzDecoder{data: data}
		a := d.plan(nil)
		b := d.plan(a)
		ab, ba := KeyLess(a, b), KeyLess(b, a)
		ka, kb := a.Key(), b.Key()
		if ab != (ka < kb) || ba != (kb < ka) {
			t.Fatalf("KeyLess(%q, %q) = %v, reversed %v; want %v, %v",
				ka, kb, ab, ba, ka < kb, kb < ka)
		}
	})
}
