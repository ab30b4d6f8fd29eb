package core

import (
	"testing"

	"qporder/internal/abstraction"
	"qporder/internal/interval"
	"qporder/internal/lav"
	"qporder/internal/planspace"
)

// onePlan returns a one-bucket plan over source id; plans built this
// way compare by key as their ids do.
func onePlan(id lav.SourceID) *planspace.Plan {
	return planspace.New(&abstraction.Node{Sources: []lav.SourceID{id}})
}

// TestDominates pins down the Drips dominance test (Lo(p) >= Hi(q),
// Section 5.1) and the acyclicity tie-break of DESIGN.md §3: identical
// point intervals defer to key order.
func TestDominates(t *testing.T) {
	iv := func(lo, hi float64) interval.Interval { return interval.Interval{Lo: lo, Hi: hi} }
	a, b := onePlan(1), onePlan(2) // a.Key() < b.Key()
	cases := []struct {
		name   string
		up, uq interval.Interval
		p, q   *planspace.Plan
		want   bool
	}{
		{"strict: Lo(p) > Hi(q)", iv(5, 9), iv(1, 4), a, b, true},
		{"disjoint below: Hi(p) < Lo(q)", iv(1, 4), iv(5, 9), a, b, false},
		{"overlap: Lo(p) < Hi(q)", iv(3, 8), iv(2, 5), a, b, false},
		{"boundary: Lo(p) == Hi(q), q not a point", iv(5, 9), iv(2, 5), a, b, true},
		{"boundary: Lo(p) == Hi(q), p a point above q's span", iv(5, 5), iv(2, 5), a, b, true},
		{"boundary: Lo(p) == Hi(q), q a point, p wider", iv(5, 9), iv(5, 5), a, b, true},
		{"identical points: smaller key wins", interval.Point(5), interval.Point(5), a, b, true},
		{"identical points: larger key loses", interval.Point(5), interval.Point(5), b, a, false},
		{"identical points: equal keys (self) never dominate", interval.Point(5), interval.Point(5), a, a, false},
		{"distinct points: higher dominates", interval.Point(7), interval.Point(5), b, a, true},
		{"distinct points: lower does not", interval.Point(5), interval.Point(7), a, b, false},
		{"identical non-point intervals", iv(2, 6), iv(2, 6), a, b, false},
		{"zero-width boundary touch: Lo==Hi both sides but not points", iv(4, 8), iv(0, 4), a, b, true},
	}
	for _, tc := range cases {
		if got := dominatesPlan(tc.up, tc.uq, tc.p, tc.q); got != tc.want {
			t.Errorf("%s: dominatesPlan(%v, %v, %s, %s) = %v, want %v",
				tc.name, tc.up, tc.uq, tc.p.Key(), tc.q.Key(), got, tc.want)
		}
	}
}

// TestDominatesAntisymmetric checks that dominance is antisymmetric for
// distinct plans across interval shapes, the property that keeps the
// Streamer dominance graph acyclic.
func TestDominatesAntisymmetric(t *testing.T) {
	ivs := []interval.Interval{
		{Lo: 1, Hi: 4}, {Lo: 4, Hi: 4}, {Lo: 4, Hi: 7}, {Lo: 5, Hi: 5}, {Lo: 2, Hi: 6},
	}
	p, q := onePlan(1), onePlan(2)
	for _, up := range ivs {
		for _, uq := range ivs {
			if dominatesPlan(up, uq, p, q) && dominatesPlan(uq, up, q, p) {
				t.Errorf("dominatesPlan is symmetric on %v vs %v", up, uq)
			}
		}
	}
}
