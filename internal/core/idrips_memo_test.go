package core

import (
	"fmt"
	"testing"

	"qporder/internal/abstraction"
	"qporder/internal/costmodel"
	"qporder/internal/coverage"
	"qporder/internal/measure"
	"qporder/internal/obs"
	"qporder/internal/planspace"
	"qporder/internal/workload"
)

// rebuildIDrips is the reference iDrips loop that re-abstracts every
// remaining space on every Next, as Section 5.2 describes, and runs
// Drips sequentially. IDrips builds each space's hierarchy once instead;
// the two must agree exactly at every parallelism.
type rebuildIDrips struct {
	ctx    measure.Context
	heur   abstraction.Heuristic
	spaces []*planspace.Space
	c      counters
}

func (d *rebuildIDrips) Next() (*planspace.Plan, float64, bool) {
	if len(d.spaces) == 0 {
		return nil, 0, false
	}
	roots := make([]*planspace.Plan, len(d.spaces))
	for i, s := range d.spaces {
		roots[i] = s.Root(d.heur)
	}
	best, util := dripsBest(d.ctx, roots, d.c, nil)
	d.ctx.Observe(best)
	srcs := best.Sources()
	idx := -1
	for i, s := range d.spaces {
		if s.Contains(srcs) {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("rebuildIDrips: winner not contained in any space: " + best.Key())
	}
	subs := d.spaces[idx].Remove(srcs)
	d.spaces = append(d.spaces[:idx], d.spaces[idx+1:]...)
	d.spaces = append(d.spaces, subs...)
	return best, util, true
}

func (d *rebuildIDrips) Context() measure.Context { return d.ctx }

// TestIDripsRootMemoMatchesRebuild checks that building each space's
// hierarchy once changes nothing observable: for both iDrips measures of
// the order benchmark and three heuristics, IDrips at parallelism 1 and
// 8 and the sequential rebuild-every-Next reference emit byte-identical
// (key, utility) streams and make the same evaluations, dominance tests
// and refinements.
func TestIDripsRootMemoMatchesRebuild(t *testing.T) {
	for _, tc := range []struct {
		cfg workload.Config
		k   int
	}{
		{workload.Config{QueryLen: 3, BucketSize: 5, Universe: 512, Zones: 3, Seed: 21}, 126},
		{workload.Config{QueryLen: 3, BucketSize: 10, Universe: 1024, Zones: 3, Seed: 22}, 25},
	} {
		d := workload.Generate(tc.cfg)
		for mname, mk := range map[string]func() measure.Measure{
			"coverage": func() measure.Measure { return coverage.NewMeasure(d.Coverage) },
			"chain-fail-caching": func() measure.Measure {
				return costmodel.NewChainCost(d.Catalog, costmodel.Params{N: d.Params.N, Failure: true, Caching: true})
			},
		} {
			for _, h := range []abstraction.Heuristic{
				abstraction.ByKey("cov-sim", d.SimilarityKey),
				abstraction.ByAccessCost(d.Catalog),
				abstraction.ByID(),
			} {
				for _, workers := range []int{1, 8} {
					name := fmt.Sprintf("%s/%s/workers=%d seed=%d", mname, h.Name(), workers, tc.cfg.Seed)
					checkRootMemo(t, name, d.Space, mk, h, workers, tc.k)
				}
			}
		}
	}
}

// TestIDripsRootMemoWideFrontier runs the same comparison on the order
// benchmark's domain size with the by-id heuristic, whose poor grouping
// grows Drips frontiers past parDomThreshold, so IDrips' parallel
// dominance sweep at parallelism 8 is checked against the sequential
// reference.
func TestIDripsRootMemoWideFrontier(t *testing.T) {
	d := workload.Generate(workload.Config{QueryLen: 3, BucketSize: 20, Universe: 4096, Seed: 23})
	mk := func() measure.Measure { return coverage.NewMeasure(d.Coverage) }
	checkRootMemo(t, "coverage/by-id/workers=8 bucket=20", d.Space, mk, abstraction.ByID(), 8, 10)
}

// checkRootMemo drains k plans from IDrips at the given parallelism and
// from the sequential rebuildIDrips over one space, and compares
// streams, evaluations, dominance tests and refinements.
func checkRootMemo(t *testing.T, name string, space *planspace.Space, mk func() measure.Measure,
	h abstraction.Heuristic, workers, k int) {
	t.Helper()
	regGot, regRef := obs.NewRegistry(), obs.NewRegistry()
	got := NewIDrips([]*planspace.Space{space}, mk(), h)
	got.Instrument(regGot)
	got.Parallelism(workers)
	ref := &rebuildIDrips{ctx: mk().NewContext(), heur: h,
		spaces: []*planspace.Space{space}, c: newCounters(regRef, "idrips")}
	gotPlans, gotUtils := Take(got, k)
	refPlans, refUtils := Take(ref, k)
	if len(gotPlans) < 10 || len(gotPlans) != len(refPlans) {
		t.Fatalf("%s: %d plans, reference %d", name, len(gotPlans), len(refPlans))
	}
	for i := range refPlans {
		if gotPlans[i].Key() != refPlans[i].Key() || gotUtils[i] != refUtils[i] {
			t.Fatalf("%s step %d: (%s, %v), reference (%s, %v)", name, i,
				gotPlans[i].Key(), gotUtils[i], refPlans[i].Key(), refUtils[i])
		}
	}
	if g, r := got.Context().Evals(), ref.Context().Evals(); g != r {
		t.Errorf("%s: %d evals, reference %d", name, g, r)
	}
	for _, c := range []string{"core.idrips.dominance_tests", "core.idrips.refinements"} {
		if g, r := regGot.Counter(c).Value(), regRef.Counter(c).Value(); g != r || g == 0 {
			t.Errorf("%s: %s = %d, reference %d", name, c, g, r)
		}
	}
}
