package core

import (
	"testing"

	"qporder/internal/coverage"
	"qporder/internal/coverage/coveragetest"
	"qporder/internal/measure"
	"qporder/internal/workload"
)

// TestCachedOrderingMatchesUncached is the end-to-end parity gate for
// the coverage measure's shared snapshot, fused kernels, fast fork and
// bulk independence sweep: every orderer, driven to exhaustion, must
// emit a byte-identical (plan key, utility) stream and identical
// Evals/IndepStats on the cached measure and on the uncached reference
// measure, at parallelism 1 and 8. The reference is neither a Forker nor
// a BulkIndependent, so both fast paths meet their plain counterparts.
func TestCachedOrderingMatchesUncached(t *testing.T) {
	ctx := coveragetest.NewReference(coverage.NewModel(1)).NewContext()
	if _, ok := ctx.(measure.Forker); ok {
		t.Fatal("reference context implements measure.Forker; parallel runs would skip Observe replay")
	}
	if _, ok := ctx.(measure.BulkIndependent); ok {
		t.Fatal("reference context implements measure.BulkIndependent; PI would skip the scalar loop")
	}
	checkOrderingParity(t, []workload.Config{
		{QueryLen: 3, BucketSize: 5, Universe: 512, Zones: 3, Seed: 11},
		{QueryLen: 2, BucketSize: 7, Universe: 256, Zones: 2, Seed: 12},
	})
}

// TestSnapshotCacheParity asserts the snapshot-cache guarantee at the
// orderer level on three more domains: the cache is a memo of the exact
// same arithmetic, not an approximation.
func TestSnapshotCacheParity(t *testing.T) {
	checkOrderingParity(t, []workload.Config{
		{QueryLen: 2, BucketSize: 4, Universe: 256, Zones: 2, Seed: 11},
		{QueryLen: 3, BucketSize: 4, Universe: 512, Zones: 3, Seed: 12},
		{QueryLen: 3, BucketSize: 6, Universe: 512, Zones: 3, Seed: 13},
	})
}

// checkOrderingParity runs every orderer to exhaustion over each domain
// with the cached and the reference coverage measure, at parallelism 1
// and 8, and compares each run with the cached sequential one.
func checkOrderingParity(t *testing.T, cfgs []workload.Config) {
	t.Helper()
	variants := []struct {
		name string
		mk   func(d *workload.Domain) measure.Measure
	}{
		{"cached", func(d *workload.Domain) measure.Measure { return coverage.NewMeasure(d.Coverage) }},
		{"reference", func(d *workload.Domain) measure.Measure { return coveragetest.NewReference(d.Coverage) }},
	}
	type outcome struct {
		keys         []string
		utils        []float64
		evals        int
		checks, hits int
	}
	for _, cfg := range cfgs {
		d := workload.Generate(cfg)
		total := int(d.Space.Size())
		run := func(m measure.Measure, workers int) map[string]outcome {
			out := map[string]outcome{}
			for name, o := range orderers(d, m) {
				SetParallelism(o, workers)
				plans, utils := Take(o, total+1)
				keys := make([]string, len(plans))
				for i, p := range plans {
					keys[i] = p.Key()
				}
				ck, ht := o.Context().IndepStats()
				out[name] = outcome{keys, utils, o.Context().Evals(), ck, ht}
			}
			return out
		}
		base := run(variants[0].mk(d), 1)
		for _, v := range variants {
			for _, workers := range []int{1, 8} {
				got := run(v.mk(d), workers)
				for name, b := range base {
					g, ok := got[name]
					if !ok {
						t.Fatalf("cfg=%+v %s/%d: orderer %s missing", cfg, v.name, workers, name)
					}
					if len(g.keys) != len(b.keys) {
						t.Fatalf("cfg=%+v %s/%d alg=%s: %d plans, want %d",
							cfg, v.name, workers, name, len(g.keys), len(b.keys))
					}
					for i := range b.keys {
						if g.keys[i] != b.keys[i] || g.utils[i] != b.utils[i] {
							t.Fatalf("cfg=%+v %s/%d alg=%s step %d: (%s, %v), want (%s, %v)",
								cfg, v.name, workers, name, i,
								g.keys[i], g.utils[i], b.keys[i], b.utils[i])
						}
					}
					if g.evals != b.evals || g.checks != b.checks || g.hits != b.hits {
						t.Errorf("cfg=%+v %s/%d alg=%s: counters (%d,%d,%d), want (%d,%d,%d)",
							cfg, v.name, workers, name,
							g.evals, g.checks, g.hits, b.evals, b.checks, b.hits)
					}
				}
			}
		}
	}
}
