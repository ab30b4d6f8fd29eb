package coverage_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"qporder/internal/abstraction"
	"qporder/internal/coverage"
	"qporder/internal/coverage/coveragetest"
	"qporder/internal/measure"
	"qporder/internal/obs"
	"qporder/internal/planspace"
)

// TestCachedMatchesUncachedDifferential drives a cached context and a
// context of the reference measure (coveragetest) through an
// identical randomized schedule of Evaluate (concrete and abstract,
// including re-abstraction so content-keyed caching is exercised),
// Observe, Independent, and IndependentWitness calls, and requires
// bit-identical intervals plus identical Evals/IndepStats counters. The
// reference composes answer sets pass by pass with no memo, so this is a
// full differential check of the fused-kernel snapshot implementation.
func TestCachedMatchesUncachedDifferential(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	prop := func(seed int64) bool {
		d := domain(seed)
		cached := coverage.NewMeasure(d.Coverage).NewContext()
		plain := coveragetest.NewReference(d.Coverage).NewContext()
		rng := rand.New(rand.NewSource(seed ^ 0xcafe))
		all := d.Space.Enumerate()
		h := abstraction.ByKey("sim", d.SimilarityKey)

		evalBoth := func(p *planspace.Plan) bool {
			a, b := cached.Evaluate(p), plain.Evaluate(p)
			if a != b {
				t.Logf("seed=%d plan %s: cached %v != reference %v", seed, p.Key(), a, b)
				return false
			}
			return true
		}

		for round := 0; round < 3; round++ {
			// Fresh hierarchy per round: distinct Node objects with
			// identical content, as iDrips produces every Next.
			frontier := []*planspace.Plan{d.Space.Root(h)}
			for len(frontier) > 0 {
				p := frontier[rng.Intn(len(frontier))]
				if !evalBoth(p) {
					return false
				}
				if p.Concrete() {
					break
				}
				frontier = p.Refine()
			}
			for i := 0; i < 5; i++ {
				if !evalBoth(all[rng.Intn(len(all))]) {
					return false
				}
			}
			pp, dd := all[rng.Intn(len(all))], all[rng.Intn(len(all))]
			if cached.Independent(pp, dd) != plain.Independent(pp, dd) {
				t.Logf("seed=%d: Independent disagrees", seed)
				return false
			}
			root := d.Space.Root(h)
			if cached.IndependentWitness(root, cached.Executed()) !=
				plain.IndependentWitness(root, plain.Executed()) {
				t.Logf("seed=%d: IndependentWitness disagrees", seed)
				return false
			}
			obsPlan := all[rng.Intn(len(all))]
			cached.Observe(obsPlan)
			plain.Observe(obsPlan)
		}
		if cached.Evals() != plain.Evals() {
			t.Logf("seed=%d: Evals %d != %d", seed, cached.Evals(), plain.Evals())
			return false
		}
		cc, ch := cached.IndepStats()
		pc, ph := plain.IndepStats()
		if cc != pc || ch != ph {
			t.Logf("seed=%d: IndepStats (%d,%d) != (%d,%d)", seed, cc, ch, pc, ph)
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestSnapshotCapOverflowMatchesUncapped: with a snapshot too small for
// the plan space, the fused-kernel fallback path must return the same
// utilities as an uncapped snapshot and as the reference measure.
func TestSnapshotCapOverflowMatchesUncapped(t *testing.T) {
	model, buckets := coverage.RandomModel(21, 256, 3, 4) // 64 plans
	space := planspace.NewSpace(buckets)

	tiny := coverage.NewMeasureCapped(model, 5)
	full := coverage.NewMeasure(model)
	plain := coveragetest.NewReference(model)
	ctxT, ctxF, ctxP := tiny.NewContext(), full.NewContext(), plain.NewContext()

	all := space.Enumerate()
	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 3; round++ {
		root := space.Root(abstraction.ByID())
		for _, p := range append(all, root) {
			a, b, c := ctxT.Evaluate(p), ctxF.Evaluate(p), ctxP.Evaluate(p)
			if a != b || b != c {
				t.Fatalf("plan %s: tiny %v, full %v, reference %v", p.Key(), a, b, c)
			}
		}
		d := all[rng.Intn(len(all))]
		ctxT.Observe(d)
		ctxF.Observe(d)
		ctxP.Observe(d)
	}
	if n := tiny.SnapshotSets(); n > 5+1 {
		// roomFor is a soft bound: single-threaded overshoot is at most one.
		t.Errorf("tiny snapshot holds %d sets, cap 5", n)
	}
}

// TestIndependentSweepMatchesReference sweeps one concrete delta over a
// plan list that mixes concrete plans with abstract plans and plans of
// another arity, which the flat scan marks for its per-plan slow path.
// The cached context's bulk verdicts and IndepStats must equal the
// reference's scalar loop, with and without an alive mask.
func TestIndependentSweepMatchesReference(t *testing.T) {
	model, buckets := coverage.RandomModel(31, 128, 3, 4)
	wide, narrow := planspace.NewSpace(buckets), planspace.NewSpace(buckets[:2])
	root := wide.Root(abstraction.ByID())
	all := wide.Enumerate()
	plans := append([]*planspace.Plan{all[0], root}, root.Refine()...)
	plans = append(plans, narrow.Enumerate()[:5]...)
	plans = append(plans, all...)
	alive := make([]bool, len(plans))
	for i := range alive {
		alive[i] = i%3 != 1
	}

	cached := coverage.NewMeasure(model).NewContext()
	plain := coveragetest.NewReference(model).NewContext()
	if _, ok := cached.(measure.BulkIndependent); !ok {
		t.Fatal("cached context does not implement measure.BulkIndependent")
	}
	for _, d := range all[:8] {
		for _, mask := range [][]bool{nil, alive} {
			got, want := make([]bool, len(plans)), make([]bool, len(plans))
			measure.IndependentAll(cached, plans, d, mask, got)
			measure.IndependentAll(plain, plans, d, mask, want)
			for i := range plans {
				if got[i] != want[i] {
					t.Fatalf("delta %s plan %s: bulk %v, reference %v", d.Key(), plans[i].Key(), got[i], want[i])
				}
			}
		}
	}
	cc, ch := cached.IndepStats()
	pc, ph := plain.IndepStats()
	if cc != pc || ch != ph {
		t.Errorf("IndepStats (%d,%d), reference (%d,%d)", cc, ch, pc, ph)
	}
}

// TestForkContextMatchesReplay verifies the fast fork: a fork taken
// mid-run must evaluate exactly like a fresh context that replayed the
// executed prefix, and must stay independent of the parent afterwards.
func TestForkContextMatchesReplay(t *testing.T) {
	d := domain(17)
	ms := coverage.NewMeasure(d.Coverage)
	ctx := ms.NewContext()
	all := d.Space.Enumerate()
	for _, p := range all[:3] {
		ctx.Observe(p)
	}

	fork := measure.Fork(ctx)
	if fork.Evals() != 0 {
		t.Errorf("fork Evals = %d, want 0", fork.Evals())
	}
	if len(fork.Executed()) != len(ctx.Executed()) {
		t.Fatalf("fork executed prefix %d, want %d", len(fork.Executed()), len(ctx.Executed()))
	}
	replay := ms.NewContext()
	for _, p := range ctx.Executed() {
		replay.Observe(p)
	}
	root := d.Space.Root(abstraction.ByKey("sim", d.SimilarityKey))
	for _, p := range append([]*planspace.Plan{root}, all...) {
		if a, b := fork.Evaluate(p), replay.Evaluate(p); a != b {
			t.Fatalf("plan %s: fork %v != replay %v", p.Key(), a, b)
		}
	}
	// Diverge the parent; the fork must not see it.
	before := fork.Evaluate(all[5])
	ctx.Observe(all[5])
	if after := fork.Evaluate(all[5]); after != before {
		t.Error("parent Observe leaked into fork")
	}
}

// TestSnapshotObsCounters checks that Bind exposes the snapshot hit/miss
// and kernel counters and that they move.
func TestSnapshotObsCounters(t *testing.T) {
	d := domain(5)
	ctx := coverage.NewMeasure(d.Coverage).NewContext()
	reg := obs.NewRegistry()
	ctx.Bind(reg, "measure.cov")
	all := d.Space.Enumerate()
	for _, p := range all { // concrete, nothing memoized: one kernel each
		ctx.Evaluate(p)
	}
	ctx.Observe(all[0]) // admits all[0]'s answer set: one miss, one kernel
	hits := reg.Counter("measure.cov.snapshot_hits").Value()
	misses := reg.Counter("measure.cov.snapshot_misses").Value()
	kernels := reg.Counter("measure.cov.kernel_calls").Value()
	if misses != 1 {
		t.Errorf("snapshot_misses = %d, want 1 (only Observe admits)", misses)
	}
	if hits != 0 {
		t.Errorf("snapshot_hits = %d, want 0 (nothing re-observed yet)", hits)
	}
	if kernels != int64(len(all))+1 {
		t.Errorf("kernel_calls = %d, want %d (one per evaluation plus Observe)", kernels, len(all)+1)
	}
	if got := reg.Counter("measure.cov.evals").Value(); got != int64(len(all)) {
		t.Errorf("evals = %d, want %d", got, len(all))
	}
	ctx.Observe(all[0]) // second Observe of the same plan: a local-front hit
	if got := reg.Counter("measure.cov.snapshot_hits").Value(); got != 1 {
		t.Errorf("snapshot_hits after re-Observe = %d, want 1", got)
	}
}

// TestSharedSnapshotAcrossContexts: a second context of the same measure
// must hit the snapshot warmed by the first, even through fresh Node
// objects (content keys, not pointers).
func TestSharedSnapshotAcrossContexts(t *testing.T) {
	d := domain(9)
	ms := coverage.NewMeasure(d.Coverage)
	h := abstraction.ByKey("sim", d.SimilarityKey)

	warm := ms.NewContext()
	reg1 := obs.NewRegistry()
	warm.Bind(reg1, "m")
	warm.Evaluate(d.Space.Root(h))

	second := ms.NewContext()
	reg2 := obs.NewRegistry()
	second.Bind(reg2, "m")
	second.Evaluate(d.Space.Root(h)) // fresh hierarchy, same content
	if miss := reg2.Counter("m.snapshot_misses").Value(); miss != 0 {
		t.Errorf("second context misses = %d, want 0 (snapshot shared)", miss)
	}
	if hit := reg2.Counter("m.snapshot_hits").Value(); hit == 0 {
		t.Error("second context recorded no snapshot hits")
	}
}
