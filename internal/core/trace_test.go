package core

import (
	"math"
	"testing"

	"qporder/internal/abstraction"
	"qporder/internal/costmodel"
	"qporder/internal/obs"
	"qporder/internal/planspace"
	"qporder/internal/workload"
)

// provDomain is the fixture for the provenance tests. Linear cost is
// both fully monotonic and diminishing-returns, so Greedy, iDrips, and
// Streamer are all applicable and must produce the same canonical order.
func provDomain(t *testing.T) (*workload.Domain, []*planspace.Space, *costmodel.LinearCost) {
	t.Helper()
	d := workload.Generate(workload.Config{QueryLen: 2, BucketSize: 3, Universe: 128, Seed: 7})
	return d, []*planspace.Space{d.Space}, costmodel.NewLinearCost(d.Catalog)
}

// tracedOrderers builds the three explain-relevant orderers for the
// parity test, keyed by the Algo label their provenance must carry.
func tracedOrderers(t *testing.T, d *workload.Domain, spaces []*planspace.Space, m *costmodel.LinearCost) map[string]Orderer {
	t.Helper()
	heur := abstraction.ByKey("cov-sim", d.SimilarityKey)
	g, err := NewGreedy(spaces, m)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStreamer(spaces, m, heur)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Orderer{
		"greedy":   g,
		"idrips":   NewIDrips(spaces, m, heur),
		"streamer": s,
	}
}

// TestProvenanceParityAcrossOrderers is the explain-correctness gate:
// Greedy, iDrips, and Streamer emit the same plan prefix under linear
// cost, and their explain events agree on the utility at selection.
// Every emitted plan must have exactly one provenance record whose
// recorded utility matches the Next return, and the per-plan eval
// deltas must sum to the context's total eval count.
func TestProvenanceParityAcrossOrderers(t *testing.T) {
	d, spaces, m := provDomain(t)
	k := int(d.Space.Size())
	type run struct {
		keys  []string
		utils []float64
		prov  []obs.PlanProvenance
	}
	runs := map[string]run{}
	for name, o := range tracedOrderers(t, d, spaces, m) {
		tr := obs.NewTrace(nil, "test/"+name)
		SetTrace(o, tr)
		evalsAtBind := o.Context().Evals()
		plans, utils := Take(o, k)
		if len(plans) != k {
			t.Fatalf("alg=%s emitted %d plans, want %d", name, len(plans), k)
		}
		prov := tr.Plans()
		if len(prov) != len(plans) {
			t.Fatalf("alg=%s: %d provenance records for %d emitted plans", name, len(prov), len(plans))
		}
		var evalSum int64
		keys := make([]string, len(plans))
		for i, p := range prov {
			keys[i] = plans[i].Key()
			if p.Index != i {
				t.Fatalf("alg=%s: record %d has index %d", name, i, p.Index)
			}
			if p.Algo != name {
				t.Fatalf("alg=%s: record %d labeled %q", name, i, p.Algo)
			}
			if p.Plan != plans[i].Key() {
				t.Fatalf("alg=%s: record %d is for plan %s, emitted %s", name, i, p.Plan, plans[i].Key())
			}
			if p.Utility != utils[i] {
				t.Fatalf("alg=%s: record %d utility %g, Next returned %g", name, i, p.Utility, utils[i])
			}
			if p.DomWon < 0 || p.DomLost < 0 || p.Refinements < 0 || p.Splits < 0 || p.Evals < 0 {
				t.Fatalf("alg=%s: record %d has negative work: %+v", name, i, p)
			}
			evalSum += p.Evals
		}
		if want := int64(o.Context().Evals() - evalsAtBind); evalSum != want {
			t.Fatalf("alg=%s: per-plan eval deltas sum to %d, context counted %d", name, evalSum, want)
		}
		runs[name] = run{keys: keys, utils: utils, prov: prov}
	}
	base := runs["greedy"]
	for _, name := range []string{"idrips", "streamer"} {
		r := runs[name]
		for i := range base.keys {
			if math.Abs(r.utils[i]-base.utils[i]) > 1e-9 {
				t.Fatalf("position %d: %s selected utility %g, greedy %g", i, name, r.utils[i], base.utils[i])
			}
			if r.keys[i] != base.keys[i] {
				t.Fatalf("position %d: %s emitted %s, greedy %s", i, name, r.keys[i], base.keys[i])
			}
		}
	}
}

// TestProvenanceSurvivesInstrument guards the binding order: Instrument
// rebuilds the counters struct, which must re-attach the provenance
// accumulator rather than silently dropping it.
func TestProvenanceSurvivesInstrument(t *testing.T) {
	d, spaces, m := provDomain(t)
	for name, o := range tracedOrderers(t, d, spaces, m) {
		tr := obs.NewTrace(nil, "test")
		SetTrace(o, tr)
		Instrument(o, obs.NewRegistry()) // after SetTrace, the hostile order
		plans, _ := Take(o, 3)
		prov := tr.Plans()
		if len(prov) != len(plans) {
			t.Errorf("alg=%s: %d records after Instrument, want %d", name, len(prov), len(plans))
			continue
		}
		var work int64
		for _, p := range prov {
			work += p.DomWon + p.DomLost + p.Refinements + p.Splits + p.Evals
		}
		if work == 0 {
			t.Errorf("alg=%s: provenance records carry no work at all; the accumulator was dropped", name)
		}
	}
}

// TestProvenanceIndexContinuesAcrossRebind mirrors the mediator's
// adaptive reorder: a fresh orderer bound to a trace that already holds
// plans must continue the plan index, not restart at zero.
func TestProvenanceIndexContinuesAcrossRebind(t *testing.T) {
	_, spaces, m := provDomain(t)
	tr := obs.NewTrace(nil, "test")
	first, err := NewGreedy(spaces, m)
	if err != nil {
		t.Fatal(err)
	}
	SetTrace(first, tr)
	Take(first, 3)
	second, err := NewGreedy(spaces, m)
	if err != nil {
		t.Fatal(err)
	}
	SetTrace(second, tr)
	Take(second, 2)
	prov := tr.Plans()
	if len(prov) != 5 {
		t.Fatalf("%d records, want 5", len(prov))
	}
	for i, p := range prov {
		if p.Index != i {
			t.Fatalf("record %d has index %d; the rebuilt orderer restarted the numbering", i, p.Index)
		}
	}
}

// TestDetachedTraceRecordsNothing: SetTrace(nil) is the disabled state.
func TestDetachedTraceRecordsNothing(t *testing.T) {
	d, spaces, m := provDomain(t)
	tr := obs.NewTrace(nil, "test")
	for name, o := range tracedOrderers(t, d, spaces, m) {
		SetTrace(o, tr)
		SetTrace(o, nil)
		Take(o, 3)
		if n := tr.PlanCount(); n != 0 {
			t.Errorf("alg=%s: detached orderer recorded %d plans", name, n)
		}
	}
}

// TestDisabledProvenanceAllocs proves the per-event provenance hooks on
// the ordering hot path are free when no trace is bound: the zero
// counters/traceState (the seed's state) must allocate nothing.
func TestDisabledProvenanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	var cs counters
	var ts traceState
	allocs := testing.AllocsPerRun(1000, func() {
		cs.domTest(true)
		cs.domTest(false)
		cs.refine()
		cs.split()
		ts.emitPlan("greedy", nil, 0, 0)
	})
	if allocs != 0 {
		t.Fatalf("disabled provenance path allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkProvenanceTracing measures the cost of the request-scoped
// provenance recording on a full drain: disabled (no trace bound, the
// production default) vs enabled (one trace per drain, the explain
// path). The EXPERIMENTS.md "Tracing overhead" entry cites this.
func BenchmarkProvenanceTracing(b *testing.B) {
	d := workload.Generate(workload.Config{QueryLen: 3, BucketSize: 6, Universe: 512, Zones: 3, Seed: 3})
	m := costmodel.NewLinearCost(d.Catalog)
	spaces := []*planspace.Space{d.Space}
	total := int(d.Space.Size())
	for _, traced := range []bool{false, true} {
		name := "disabled"
		if traced {
			name = "enabled"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o, err := NewGreedy(spaces, m)
				if err != nil {
					b.Fatal(err)
				}
				if traced {
					SetTrace(o, obs.NewTrace(nil, "bench"))
				}
				Take(o, total)
			}
		})
	}
}

// TestDisabledTracingAllocIdentical: an orderer that was never traced
// and one explicitly detached with SetTrace(nil) must allocate exactly
// the same draining the whole space — tracing off is free.
func TestDisabledTracingAllocIdentical(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	d, spaces, m := provDomain(t)
	total := int(d.Space.Size())
	drain := func(detach bool) float64 {
		return testing.AllocsPerRun(5, func() {
			o, err := NewGreedy(spaces, m)
			if err != nil {
				panic(err)
			}
			if detach {
				SetTrace(o, nil)
			}
			Take(o, total)
		})
	}
	base := drain(false)
	if got := drain(true); got != base {
		t.Fatalf("detached tracing changed allocations: %.1f vs %.1f per drain", got, base)
	}
}
