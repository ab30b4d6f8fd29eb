package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130) // crosses word boundaries
	if s.Count() != 0 || s.Any() {
		t.Fatal("new set not empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 128, 129} {
		s.Add(i)
		if !s.Contains(i) {
			t.Errorf("Contains(%d) = false after Add", i)
		}
	}
	if got := s.Count(); got != 7 {
		t.Errorf("Count = %d, want 7", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Error("Contains(64) after Remove")
	}
	if got := s.Count(); got != 6 {
		t.Errorf("Count = %d, want 6", got)
	}
	s.Clear()
	if s.Any() {
		t.Error("Any after Clear")
	}
	s.Fill()
	if got := s.Count(); got != 130 {
		t.Errorf("Count after Fill = %d, want 130", got)
	}
}

func TestFillTrimsExcessBits(t *testing.T) {
	s := New(70)
	s.Fill()
	if got := s.Count(); got != 70 {
		t.Errorf("Fill set %d bits, want 70", got)
	}
	u := New(70)
	u.Fill()
	if !s.Equal(u) {
		t.Error("two filled sets not equal")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-range Add")
		}
	}()
	New(10).Add(10)
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on capacity mismatch")
		}
	}()
	New(10).UnionWith(New(11))
}

func TestElemsAndForEach(t *testing.T) {
	s := New(200)
	want := []int{3, 64, 127, 128, 199}
	for _, i := range want {
		s.Add(i)
	}
	got := s.Elems()
	if len(got) != len(want) {
		t.Fatalf("Elems = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elems = %v, want %v", got, want)
		}
	}
	// Early termination.
	n := 0
	s.ForEach(func(int) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("ForEach visited %d, want 2 (early stop)", n)
	}
}

func TestString(t *testing.T) {
	s := New(10)
	s.Add(1)
	s.Add(5)
	if got := s.String(); got != "{1, 5}" {
		t.Errorf("String = %q, want {1, 5}", got)
	}
}

// randomSet builds a deterministic random set for property tests.
func randomSet(rng *rand.Rand, n int) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			s.Add(i)
		}
	}
	return s
}

func TestSetAlgebraProperties(t *testing.T) {
	const n = 193
	cfg := &quick.Config{MaxCount: 200}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomSet(rng, n), randomSet(rng, n)

		union := a.Union(b)
		inter := a.Intersect(b)
		diff := a.Difference(b)

		// |A∪B| + |A∩B| == |A| + |B|
		if union.Count()+inter.Count() != a.Count()+b.Count() {
			return false
		}
		// A\B ⊆ A, A∩B ⊆ A ⊆ A∪B
		if !diff.SubsetOf(a) || !inter.SubsetOf(a) || !a.SubsetOf(union) {
			return false
		}
		// counts agree with allocating ops
		if a.IntersectionCount(b) != inter.Count() || a.DifferenceCount(b) != diff.Count() {
			return false
		}
		// Disjoint ⇔ empty intersection
		if a.Disjoint(b) != (inter.Count() == 0) {
			return false
		}
		// per-element semantics
		for i := 0; i < n; i++ {
			if union.Contains(i) != (a.Contains(i) || b.Contains(i)) {
				return false
			}
			if inter.Contains(i) != (a.Contains(i) && b.Contains(i)) {
				return false
			}
			if diff.Contains(i) != (a.Contains(i) && !b.Contains(i)) {
				return false
			}
		}
		// in-place ops match allocating ops
		c := a.Clone()
		c.UnionWith(b)
		if !c.Equal(union) {
			return false
		}
		c.Copy(a)
		c.IntersectWith(b)
		return c.Equal(inter)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestTrimmedLen(t *testing.T) {
	s := New(300) // 5 words
	if got := s.TrimmedLen(); got != 0 {
		t.Errorf("empty TrimmedLen = %d, want 0", got)
	}
	s.Add(70) // word 1
	if got := s.TrimmedLen(); got != 2 {
		t.Errorf("TrimmedLen after Add(70) = %d, want 2", got)
	}
	// Cached value must be invalidated by growth...
	s.Add(256) // word 4
	if got := s.TrimmedLen(); got != 5 {
		t.Errorf("TrimmedLen after Add(256) = %d, want 5", got)
	}
	// ...and by shrinkage.
	s.Remove(256)
	if got := s.TrimmedLen(); got != 2 {
		t.Errorf("TrimmedLen after Remove(256) = %d, want 2", got)
	}
	s.Clear()
	if got := s.TrimmedLen(); got != 0 {
		t.Errorf("TrimmedLen after Clear = %d, want 0", got)
	}
	s.Fill()
	if got := s.TrimmedLen(); got != 5 {
		t.Errorf("TrimmedLen after Fill = %d, want 5", got)
	}
	c := s.Clone()
	if got := c.TrimmedLen(); got != 5 {
		t.Errorf("Clone TrimmedLen = %d, want 5", got)
	}
	other := New(300)
	other.Add(3)
	c.IntersectWith(other)
	if got := c.TrimmedLen(); got != 1 {
		t.Errorf("TrimmedLen after IntersectWith = %d, want 1", got)
	}
	c.UnionWith(s)
	if got := c.TrimmedLen(); got != 5 {
		t.Errorf("TrimmedLen after UnionWith = %d, want 5", got)
	}
	c.DifferenceWith(s)
	if got := c.TrimmedLen(); got != 0 {
		t.Errorf("TrimmedLen after DifferenceWith = %d, want 0", got)
	}
	c.Copy(s)
	if got := c.TrimmedLen(); got != 5 {
		t.Errorf("TrimmedLen after Copy = %d, want 5", got)
	}
	// The Into kernels mutate dst and must invalidate too.
	IntersectInto(c, []*Set{New(300)})
	if got := c.TrimmedLen(); got != 0 {
		t.Errorf("TrimmedLen after IntersectInto = %d, want 0", got)
	}
	UnionInto(c, []*Set{s})
	if got := c.TrimmedLen(); got != 5 {
		t.Errorf("TrimmedLen after UnionInto = %d, want 5", got)
	}
}
