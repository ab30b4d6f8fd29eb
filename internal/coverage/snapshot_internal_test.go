package coverage

import (
	"math/rand"
	"testing"

	"qporder/internal/abstraction"
	"qporder/internal/bitset"
	"qporder/internal/interval"
	"qporder/internal/lav"
	"qporder/internal/measure"
	"qporder/internal/planspace"
)

// testModel builds a random model over nBuckets buckets of width sources
// each, returning the model and the bucket layout. (In-package tests
// cannot use the workload generator — workload imports coverage.)
func testModel(seed int64, universe, nBuckets, width int) (*Model, [][]lav.SourceID) {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel(universe)
	buckets := make([][]lav.SourceID, nBuckets)
	id := lav.SourceID(0)
	for b := range buckets {
		for j := 0; j < width; j++ {
			s := bitset.New(universe)
			for i := 0; i < universe; i++ {
				if rng.Intn(3) == 0 {
					s.Add(i)
				}
			}
			m.SetCoverage(id, s)
			buckets[b] = append(buckets[b], id)
			id++
		}
	}
	return m, buckets
}

// TestConcreteEvaluateZeroAllocs is the allocation-regression gate for
// the evaluation hot path: once a concrete plan's answer set is
// memoized, Evaluate must not allocate at all.
func TestConcreteEvaluateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	model, buckets := testModel(8, 4096, 3, 4)
	space := planspace.NewSpace(buckets)
	ctx := NewMeasure(model).NewContext().(*context)
	all := space.Enumerate()
	for _, p := range all { // warm: plan keys, snapshot, local fronts
		ctx.Evaluate(p)
	}
	ctx.Observe(all[0])
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		ctx.Evaluate(all[i%len(all)])
		i++
	}); avg != 0 {
		t.Errorf("concrete Evaluate allocates %.2f allocs/op, want 0", avg)
	}
}

// TestOverflowEvaluateZeroAllocs: the fused-kernel fallback past the
// snapshot cap must be allocation-free too.
func TestOverflowEvaluateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	model, buckets := testModel(9, 4096, 3, 4)
	space := planspace.NewSpace(buckets)
	ms := &Measure{model: model, snap: newSnapshot(0)}
	ctx := ms.NewContext().(*context)
	all := space.Enumerate()
	for _, p := range all { // warm plan key strings and the gather buffer
		ctx.Evaluate(p)
	}
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		ctx.Evaluate(all[i%len(all)])
		i++
	}); avg != 0 {
		t.Errorf("overflow Evaluate allocates %.2f allocs/op, want 0", avg)
	}
}

// TestEvaluateAllZeroAllocs is the allocation-regression gate for
// frontier scoring: after one warm-up pass (snapshot fronts filled,
// gather buffer sized), scoring a mixed frontier — the root, its
// refinements and every concrete plan — through measure.EvaluateAll
// must not touch the heap at all.
func TestEvaluateAllZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	model, buckets := testModel(43, 4096, 3, 4)
	space := planspace.NewSpace(buckets)
	ctx := NewMeasure(model).NewContext()
	root := space.Root(abstraction.ByID())
	all := space.Enumerate()
	frontier := append([]*planspace.Plan{root}, root.Refine()...)
	frontier = append(frontier, all...)
	out := make([]interval.Interval, len(frontier))
	measure.EvaluateAll(ctx, frontier, out) // warm
	ctx.Observe(all[0])
	if avg := testing.AllocsPerRun(100, func() {
		measure.EvaluateAll(ctx, frontier, out)
	}); avg != 0 {
		t.Errorf("EvaluateAll allocates %.2f allocs per frontier, want 0", avg)
	}
}

// TestOverlapMatrixMatchesFallback: the dense overlap matrix and the
// sync.Map fallback must agree on every pair, in both argument orders.
func TestOverlapMatrixMatchesFallback(t *testing.T) {
	withMat, _ := testModel(33, 128, 1, 12)
	noMat, _ := testModel(33, 128, 1, 12) // same seed → same sets
	noMat.maxID = maxOverlapMatrixBits    // force matrix skip
	for a := lav.SourceID(0); a < 12; a++ {
		for b := lav.SourceID(0); b < 12; b++ {
			if withMat.Overlap(a, b) != noMat.Overlap(a, b) {
				t.Fatalf("Overlap(%d,%d) disagrees between matrix and fallback", a, b)
			}
		}
	}
	if withMat.matN == 0 {
		t.Error("matrix model did not build its matrix")
	}
	if noMat.matN != 0 {
		t.Error("fallback model unexpectedly built a matrix")
	}
}
