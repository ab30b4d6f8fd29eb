package bitset

import "testing"

// FuzzKernels asserts the fused kernels agree with the naive
// Copy/Intersect/Count composition on arbitrary operand sets. The fuzz
// input is sliced into equal-length word streams: one per operand plus
// one exclusion set.
func FuzzKernels(f *testing.F) {
	f.Add([]byte{0xff, 0x00, 0xaa, 0x55, 0x0f, 0xf0, 1, 2, 3}, uint8(3), uint16(70))
	f.Add([]byte{}, uint8(1), uint16(1))
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef}, uint8(5), uint16(129))
	f.Fuzz(func(t *testing.T, data []byte, arity8 uint8, nbits uint16) {
		arity := 1 + int(arity8%6)
		n := 1 + int(nbits%1024)
		fill := func(offset int) *Set {
			s := New(n)
			for i := 0; i < n; i++ {
				bi := offset + i
				if len(data) == 0 {
					break
				}
				if data[bi%len(data)]&(1<<uint(bi%8)) != 0 {
					s.Add(i)
				}
			}
			return s
		}
		sets := make([]*Set, arity)
		for i := range sets {
			sets[i] = fill(i * n)
		}
		excl := fill(arity * n)

		for _, e := range []*Set{nil, excl} {
			if got, want := IntersectCountAndNot(sets, e), naiveIntersectCountAndNot(sets, e); got != want {
				t.Fatalf("IntersectCountAndNot(arity=%d, n=%d, excl=%v) = %d, want %d",
					arity, n, e != nil, got, want)
			}
		}
		dst := New(n)
		IntersectInto(dst, sets)
		if want := naiveIntersect(sets); !dst.Equal(want) {
			t.Fatalf("IntersectInto mismatch (arity=%d, n=%d)", arity, n)
		}
		UnionInto(dst, sets)
		if want := naiveUnion(sets); !dst.Equal(want) {
			t.Fatalf("UnionInto mismatch (arity=%d, n=%d)", arity, n)
		}
	})
}
