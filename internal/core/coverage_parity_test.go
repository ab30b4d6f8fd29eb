package core

import (
	"testing"

	"qporder/internal/coverage"
	"qporder/internal/measure"
	"qporder/internal/workload"
)

// TestCachedOrderingMatchesUncached is the end-to-end parity gate for
// the coverage measure's shared snapshot and fused kernels: every
// orderer, driven to exhaustion over the coverage measure, must emit a
// byte-identical (plan key, utility) stream and identical
// Evals/IndepStats on the cached measure and the uncached oracle, at
// parallelism 1 and 8. The cached sequential run is the baseline.
func TestCachedOrderingMatchesUncached(t *testing.T) {
	variants := map[string]func(d *workload.Domain) measure.Measure{
		"cached": func(d *workload.Domain) measure.Measure {
			return coverage.NewMeasure(d.Coverage)
		},
		"uncached": func(d *workload.Domain) measure.Measure {
			return coverage.NewMeasureUncached(d.Coverage)
		},
	}
	type outcome struct {
		keys         []string
		utils        []float64
		evals        int
		checks, hits int
	}
	for _, cfg := range []workload.Config{
		{QueryLen: 3, BucketSize: 5, Universe: 512, Zones: 3, Seed: 11},
		{QueryLen: 2, BucketSize: 7, Universe: 256, Zones: 2, Seed: 12},
	} {
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
		base := run(variants["cached"](d), 1)
		for vname, mk := range variants {
			for _, workers := range []int{1, 8} {
				got := run(mk(d), workers)
				for name, b := range base {
					g, ok := got[name]
					if !ok {
						t.Fatalf("cfg seed=%d %s/%d: orderer %s missing", cfg.Seed, vname, workers, name)
					}
					if len(g.keys) != len(b.keys) {
						t.Fatalf("cfg seed=%d %s/%d alg=%s: %d plans, want %d",
							cfg.Seed, vname, workers, name, len(g.keys), len(b.keys))
					}
					for i := range b.keys {
						if g.keys[i] != b.keys[i] || g.utils[i] != b.utils[i] {
							t.Fatalf("cfg seed=%d %s/%d alg=%s step %d: (%s, %v), want (%s, %v)",
								cfg.Seed, vname, workers, name, i,
								g.keys[i], g.utils[i], b.keys[i], b.utils[i])
						}
					}
					if g.evals != b.evals || g.checks != b.checks || g.hits != b.hits {
						t.Errorf("cfg seed=%d %s/%d alg=%s: counters (%d,%d,%d), want (%d,%d,%d)",
							cfg.Seed, vname, workers, name,
							g.evals, g.checks, g.hits, b.evals, b.checks, b.hits)
					}
				}
			}
		}
	}
}
