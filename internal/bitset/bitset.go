// Package bitset provides a dense, fixed-capacity bitset used by the
// coverage model to represent subsets of the synthetic answer universe.
//
// All binary operations require operands of identical capacity; this is a
// programming-error condition and panics, matching the stdlib convention
// for mismatched lengths (e.g. copy semantics are explicit instead).
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-size bitset. The zero value is unusable; create sets with
// New. Sets are not safe for concurrent mutation.
type Set struct {
	n     int // capacity in bits
	words []uint64
}

// New returns a set with capacity n bits, all clear.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Len returns the capacity of the set in bits.
func (s *Set) Len() int { return s.n }

// TrimmedLen returns the number of backing words up to and including
// the last nonzero word — the words a segment store persists.
func (s *Set) TrimmedLen() int {
	t := len(s.words)
	for t > 0 && s.words[t-1] == 0 {
		t--
	}
	return t
}

// Add sets bit i.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove clears bit i.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Contains reports whether bit i is set.
func (s *Set) Contains(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clear clears all bits.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill sets all bits in [0, Len).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim zeroes the bits above capacity in the last word.
func (s *Set) trim() {
	if s.n%wordBits != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(s.n%wordBits)) - 1
	}
}

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	c := New(s.n)
	copy(c.words, s.words)
	return c
}

// Copy overwrites s with the contents of other (same capacity required).
func (s *Set) Copy(other *Set) {
	s.sameCap(other)
	copy(s.words, other.words)
}

func (s *Set) sameCap(other *Set) {
	if s.n != other.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", s.n, other.n))
	}
}

// UnionWith sets s = s ∪ other.
func (s *Set) UnionWith(other *Set) {
	s.sameCap(other)
	for i, w := range other.words {
		s.words[i] |= w
	}
}

// IntersectWith sets s = s ∩ other.
func (s *Set) IntersectWith(other *Set) {
	s.sameCap(other)
	for i, w := range other.words {
		s.words[i] &= w
	}
}

// DifferenceWith sets s = s \ other.
func (s *Set) DifferenceWith(other *Set) {
	s.sameCap(other)
	for i, w := range other.words {
		s.words[i] &^= w
	}
}

// Union returns a new set s ∪ other.
func (s *Set) Union(other *Set) *Set {
	c := s.Clone()
	c.UnionWith(other)
	return c
}

// Intersect returns a new set s ∩ other.
func (s *Set) Intersect(other *Set) *Set {
	c := s.Clone()
	c.IntersectWith(other)
	return c
}

// Difference returns a new set s \ other.
func (s *Set) Difference(other *Set) *Set {
	c := s.Clone()
	c.DifferenceWith(other)
	return c
}

// IntersectionCount returns |s ∩ other| without allocating.
func (s *Set) IntersectionCount(other *Set) int {
	s.sameCap(other)
	c := 0
	for i, w := range other.words {
		c += bits.OnesCount64(s.words[i] & w)
	}
	return c
}

// DifferenceCount returns |s \ other| without allocating.
func (s *Set) DifferenceCount(other *Set) int {
	s.sameCap(other)
	c := 0
	for i, w := range other.words {
		c += bits.OnesCount64(s.words[i] &^ w)
	}
	return c
}

// Disjoint reports whether s ∩ other = ∅.
func (s *Set) Disjoint(other *Set) bool {
	s.sameCap(other)
	for i, w := range other.words {
		if s.words[i]&w != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether s ⊆ other.
func (s *Set) SubsetOf(other *Set) bool {
	s.sameCap(other)
	for i, w := range other.words {
		if s.words[i]&^w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether the two sets have identical contents and capacity.
func (s *Set) Equal(other *Set) bool {
	if s.n != other.n {
		return false
	}
	for i, w := range other.words {
		if s.words[i] != w {
			return false
		}
	}
	return true
}

// Any reports whether at least one bit is set.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// ForEach invokes f for each set bit in ascending order. If f returns
// false, iteration stops.
func (s *Set) ForEach(f func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Elems returns the indices of all set bits in ascending order.
func (s *Set) Elems() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Words exposes the backing word slice (little-endian bit order within
// each uint64, bit i of the set at word i/64 bit i%64). It exists for
// serialization (internal/store writes sets to disk) and must be
// treated read-only: mutating the slice bypasses the trimmed-length
// cache and, for view sets over mapped files, would write through to
// the mapping.
func (s *Set) Words() []uint64 { return s.words }

// FromWords wraps an existing word slice as a Set of capacity n without
// copying. The slice must hold exactly (n+63)/64 words and any bits at
// or above n must be clear. The returned set is a VIEW: it aliases
// words, so the caller must not mutate the slice afterwards, and the
// set itself must be treated immutable — calling a mutator on a view
// whose words alias read-only mapped memory faults. This is the bridge
// that lets the fused kernels stream directly over an mmap'ed segment
// file (see internal/store).
func FromWords(n int, words []uint64) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	if want := (n + wordBits - 1) / wordBits; len(words) != want {
		panic(fmt.Sprintf("bitset: FromWords got %d words, want %d for capacity %d", len(words), want, n))
	}
	return &Set{n: n, words: words}
}

// kernelWords validates that every operand (and excl, when non-nil) has
// the capacity of sets[0] and returns sets[0]'s backing words. All fused
// kernels funnel through it so capacity mismatches panic exactly like the
// pairwise operations. Empty operand slices never reach it: each kernel
// defines its explicit empty-frontier result first (see
// IntersectCountAndNot, IntersectInto, UnionInto).
func kernelWords(sets []*Set, excl *Set) []uint64 {
	if len(sets) == 0 {
		panic("bitset: fused kernel over zero sets")
	}
	first := sets[0]
	for _, s := range sets[1:] {
		first.sameCap(s)
	}
	if excl != nil {
		first.sameCap(excl)
	}
	return first.words
}

// universeCountAndNot is the empty-frontier case of IntersectCountAndNot:
// the intersection of zero sets is the full universe, so the result is
// |U \ excl| with the capacity taken from excl. With no excl either, no
// capacity exists to measure against and the count is 0 by definition.
func universeCountAndNot(excl *Set) int {
	if excl == nil {
		return 0
	}
	return excl.n - excl.Count()
}

// IntersectCountAndNot returns |(∩ sets) \ excl| in a single
// word-streaming pass with zero allocations. excl may be nil, in which
// case the plain intersection cardinality is returned. It fuses the
// Copy + IntersectWith + DifferenceCount chain used by the coverage hot
// path into one traversal of the operands. The common arities (1-3 sets,
// matching typical query lengths) are unrolled.
//
// An empty sets slice is the empty frontier, whose intersection is by
// convention the full universe: with a non-nil excl the result is
// |U \ excl| (capacity from excl); with excl nil as well it is 0, there
// being no operand to take a capacity from. Both cases are explicit and
// tested, not artifacts of a degenerate loop.
func IntersectCountAndNot(sets []*Set, excl *Set) int {
	if len(sets) == 0 {
		return universeCountAndNot(excl)
	}
	a := kernelWords(sets, excl)
	c := 0
	switch len(sets) {
	case 1:
		if excl == nil {
			for _, w := range a {
				c += bits.OnesCount64(w)
			}
			return c
		}
		e := excl.words[:len(a)]
		for i, w := range a {
			c += bits.OnesCount64(w &^ e[i])
		}
	case 2:
		b := sets[1].words[:len(a)]
		if excl == nil {
			for i, w := range a {
				c += bits.OnesCount64(w & b[i])
			}
			return c
		}
		e := excl.words[:len(a)]
		for i, w := range a {
			c += bits.OnesCount64(w & b[i] &^ e[i])
		}
	case 3:
		b := sets[1].words[:len(a)]
		d := sets[2].words[:len(a)]
		if excl == nil {
			for i, w := range a {
				c += bits.OnesCount64(w & b[i] & d[i])
			}
			return c
		}
		e := excl.words[:len(a)]
		for i, w := range a {
			c += bits.OnesCount64(w & b[i] & d[i] &^ e[i])
		}
	default:
		for i, w := range a {
			for _, s := range sets[1:] {
				w &= s.words[i]
			}
			if excl != nil {
				w &^= excl.words[i]
			}
			c += bits.OnesCount64(w)
		}
	}
	return c
}

// IntersectInto sets dst = ∩ sets in a single pass. dst must have the
// operands' capacity and may alias one of them. An empty sets slice is
// the intersection's neutral element: dst becomes the full universe.
func IntersectInto(dst *Set, sets []*Set) {
	if len(sets) == 0 {
		dst.Fill()
		return
	}
	a := kernelWords(sets, dst)
	dw := dst.words
	switch len(sets) {
	case 1:
		copy(dw, a)
	case 2:
		b := sets[1].words[:len(a)]
		for i, w := range a {
			dw[i] = w & b[i]
		}
	case 3:
		b := sets[1].words[:len(a)]
		d := sets[2].words[:len(a)]
		for i, w := range a {
			dw[i] = w & b[i] & d[i]
		}
	default:
		for i, w := range a {
			for _, s := range sets[1:] {
				w &= s.words[i]
			}
			dw[i] = w
		}
	}
}

// UnionInto sets dst = ∪ sets in a single pass. dst must have the
// operands' capacity and may alias one of them. An empty sets slice is
// the union's neutral element: dst becomes empty.
func UnionInto(dst *Set, sets []*Set) {
	if len(sets) == 0 {
		dst.Clear()
		return
	}
	a := kernelWords(sets, dst)
	dw := dst.words
	switch len(sets) {
	case 1:
		copy(dw, a)
	case 2:
		b := sets[1].words[:len(a)]
		for i, w := range a {
			dw[i] = w | b[i]
		}
	case 3:
		b := sets[1].words[:len(a)]
		d := sets[2].words[:len(a)]
		for i, w := range a {
			dw[i] = w | b[i] | d[i]
		}
	default:
		for i, w := range a {
			for _, s := range sets[1:] {
				w |= s.words[i]
			}
			dw[i] = w
		}
	}
}

// String renders the set as "{1, 5, 9}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
