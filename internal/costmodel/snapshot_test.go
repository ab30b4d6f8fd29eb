package costmodel

import (
	"fmt"
	"math/rand"
	"testing"

	"qporder/internal/abstraction"
	"qporder/internal/interval"
	"qporder/internal/lav"
	"qporder/internal/measure"
	"qporder/internal/planspace"
)

// testCatalog builds a random catalog with nBuckets buckets of width
// sources and returns the bucket layout.
func testCatalog(seed int64, nBuckets, width int) (*lav.Catalog, [][]lav.SourceID) {
	rng := rand.New(rand.NewSource(seed))
	cat := lav.NewCatalog()
	buckets := make([][]lav.SourceID, nBuckets)
	for b := range buckets {
		for j := 0; j < width; j++ {
			st := lav.Stats{
				Tuples:       1 + rng.Float64()*999,
				Overhead:     rng.Float64() * 5,
				TransmitCost: rng.Float64() * 0.01,
				FailureProb:  rng.Float64() * 0.5,
				AccessFee:    rng.Float64() * 2,
				TupleFee:     rng.Float64() * 0.05,
			}
			src := cat.MustAdd(fmt.Sprintf("S%d_%d", b, j), nil, st)
			buckets[b] = append(buckets[b], src.ID)
		}
	}
	return cat, buckets
}

// legacyChainCost is the reference for chainCost: the unhoisted
// semijoin-chain loop, which reads every member's statistics straight off
// the catalog on each evaluation. useFees selects monetary coefficients
// (AccessFee/TupleFee) instead of time coefficients
// (Overhead/TransmitCost).
func legacyChainCost(cat *lav.Catalog, p *planspace.Plan, prm Params, cached opCache,
	useFees bool) (cost, outLast interval.Interval) {
	prevOut := interval.Point(0) // output of the previous position
	total := interval.Point(0)
	for k, node := range p.Nodes {
		// Output-size interval of this position over all members.
		minN := cat.Source(node.Sources[0]).Stats.Tuples
		maxN := minN
		for _, id := range node.Sources[1:] {
			t := cat.Source(id).Stats.Tuples
			if t < minN {
				minN = t
			}
			if t > maxN {
				maxN = t
			}
		}
		var outIv interval.Interval
		if k == 0 {
			outIv = interval.New(minN, maxN)
		} else {
			outIv = interval.New(minN, maxN).Mul(prevOut).Scale(1 / prm.N)
		}
		// Cost-contribution hull over members.
		var costIv interval.Interval
		for i, m := range node.Sources {
			st := cat.Source(m).Stats
			var cm interval.Interval
			if cached != nil && cached[opKey{k, m}] {
				cm = interval.Point(0)
			} else {
				var outM interval.Interval
				if k == 0 {
					outM = interval.Point(st.Tuples)
				} else {
					outM = prevOut.Scale(st.Tuples / prm.N)
				}
				if useFees {
					cm = outM.Scale(st.TupleFee).Add(interval.Point(st.AccessFee))
				} else {
					cm = outM.Scale(st.TransmitCost).
						Add(interval.Point(effectiveOverhead(st, prm.Failure)))
				}
			}
			if i == 0 {
				costIv = cm
			} else {
				costIv = costIv.Hull(cm)
			}
		}
		total = total.Add(costIv)
		prevOut = outIv
	}
	return total, prevOut
}

// legacyCtx evaluates ChainCost (monetary false) or MonetaryPerTuple
// through legacyChainCost, with the same operation-caching semantics.
type legacyCtx struct {
	cat      *lav.Catalog
	prm      Params
	monetary bool
	cached   opCache // nil when caching is off
}

func newLegacyCtx(cat *lav.Catalog, prm Params, monetary bool) *legacyCtx {
	c := &legacyCtx{cat: cat, prm: prm, monetary: monetary}
	if prm.Caching {
		c.cached = make(opCache)
	}
	return c
}

func (c *legacyCtx) Evaluate(p *planspace.Plan) interval.Interval {
	cost, out := legacyChainCost(c.cat, p, c.prm, c.cached, c.monetary)
	if c.monetary {
		return cost.Div(out).Neg()
	}
	return cost.Neg()
}

func (c *legacyCtx) Observe(d *planspace.Plan) {
	if c.cached != nil {
		c.cached.add(d)
	}
}

// TestHoistedChainMatchesLegacy drives hoisted contexts of every
// chain-family configuration and the legacyChainCost reference through
// an identical schedule and requires bit-identical intervals — the
// hoisted aggregates must feed the exact same float operations the
// unhoisted loop performs.
func TestHoistedChainMatchesLegacy(t *testing.T) {
	for _, cfg := range []struct {
		name             string
		failure, caching bool
		monetary         bool
	}{
		{"chain", false, false, false},
		{"chain+failure", true, false, false},
		{"chain+caching", false, true, false},
		{"chain+failure+caching", true, true, false},
		{"monetary", false, false, true},
		{"monetary+caching", false, true, true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				cat, buckets := testCatalog(seed, 3, 6)
				space := planspace.NewSpace(buckets)
				prm := Params{N: 5000, Failure: cfg.failure, Caching: cfg.caching}

				var hoisted measure.Context
				if cfg.monetary {
					hoisted = NewMonetaryPerTuple(cat, prm).NewContext()
				} else {
					hoisted = NewChainCost(cat, prm).NewContext()
				}
				legacy := newLegacyCtx(cat, prm, cfg.monetary)

				rng := rand.New(rand.NewSource(seed ^ 0xd1ff))
				all := space.Enumerate()
				for round := 0; round < 3; round++ {
					// Fresh hierarchies per round: distinct Node objects with
					// identical content, as iDrips produces.
					frontier := []*planspace.Plan{space.Root(abstraction.ByTuples(cat))}
					for len(frontier) > 0 {
						p := frontier[rng.Intn(len(frontier))]
						if a, b := hoisted.Evaluate(p), legacy.Evaluate(p); a != b {
							t.Fatalf("seed=%d plan %s: hoisted %v != legacy %v", seed, p.Key(), a, b)
						}
						if p.Concrete() {
							break
						}
						frontier = p.Refine()
					}
					for i := 0; i < 5; i++ {
						p := all[rng.Intn(len(all))]
						if a, b := hoisted.Evaluate(p), legacy.Evaluate(p); a != b {
							t.Fatalf("seed=%d plan %s: hoisted %v != legacy %v", seed, p.Key(), a, b)
						}
					}
					d := all[rng.Intn(len(all))]
					hoisted.Observe(d)
					legacy.Observe(d)
				}
			}
		})
	}
}

// TestHoistedLinearMatchesLegacy: same differential for LinearCost
// (precomputed term table + shared group hulls vs direct recomputation).
func TestHoistedLinearMatchesLegacy(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		cat, buckets := testCatalog(seed, 3, 6)
		space := planspace.NewSpace(buckets)
		hoisted := NewLinearCost(cat).NewContext()
		legacy := (&LinearCost{cat: cat}).NewContext()
		rng := rand.New(rand.NewSource(seed))
		all := space.Enumerate()
		frontier := []*planspace.Plan{space.Root(abstraction.ByTuples(cat))}
		for len(frontier) > 0 {
			p := frontier[rng.Intn(len(frontier))]
			if a, b := hoisted.Evaluate(p), legacy.Evaluate(p); a != b {
				t.Fatalf("seed=%d plan %s: hoisted %v != legacy %v", seed, p.Key(), a, b)
			}
			if p.Concrete() {
				break
			}
			frontier = p.Refine()
		}
		for i := 0; i < 10; i++ {
			p := all[rng.Intn(len(all))]
			if a, b := hoisted.Evaluate(p), legacy.Evaluate(p); a != b {
				t.Fatalf("seed=%d plan %s: hoisted %v != legacy %v", seed, p.Key(), a, b)
			}
		}
		// BucketOrder consumes the precomputed terms.
		hm := NewLinearCost(cat)
		lm := &LinearCost{cat: cat}
		for b, srcs := range buckets {
			ho, _ := hm.BucketOrder(b, srcs)
			lo, _ := lm.BucketOrder(b, srcs)
			for i := range ho {
				if ho[i] != lo[i] {
					t.Fatalf("seed=%d bucket %d: order differs at %d", seed, b, i)
				}
			}
		}
	}
}

// TestWarmEvaluateZeroAllocs is the allocation-regression gate for the
// cost measures: once a context's aggregate front is warm, scoring a
// frontier of abstract and concrete plans must not touch the heap.
func TestWarmEvaluateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	cat, buckets := testCatalog(3, 3, 6)
	space := planspace.NewSpace(buckets)
	root := space.Root(abstraction.ByTuples(cat))
	all := space.Enumerate()
	frontier := append([]*planspace.Plan{root}, root.Refine()...)
	frontier = append(frontier, all...)
	prm := Params{N: 5000, Failure: true, Caching: true}
	for _, m := range []measure.Measure{
		NewChainCost(cat, prm),
		NewMonetaryPerTuple(cat, prm),
		NewLinearCost(cat),
	} {
		ctx := m.NewContext()
		for _, p := range frontier { // warm the aggregate front
			ctx.Evaluate(p)
		}
		ctx.Observe(all[0])
		i := 0
		if avg := testing.AllocsPerRun(200, func() {
			ctx.Evaluate(frontier[i%len(frontier)])
			i++
		}); avg != 0 {
			t.Errorf("%s: warm Evaluate allocates %.2f allocs/op, want 0", m.Name(), avg)
		}
	}
}
