package coverage

import (
	"qporder/internal/abstraction"
	"qporder/internal/bitset"
	"qporder/internal/interval"
	"qporder/internal/lav"
	"qporder/internal/measure"
	"qporder/internal/obs"
	"qporder/internal/planspace"
)

// Measure is the plan-coverage utility measure. It is not fully monotonic
// (the value of a source depends on what its partners and the executed
// plans cover), it satisfies utility-diminishing returns, and plans are
// often pairwise independent, so both iDrips and Streamer apply.
type Measure struct {
	model *Model
	snap  *snapshot // shared answer-set memo
}

// NewMeasure returns the coverage measure over the given model. Contexts
// share a measure-owned snapshot of answer sets (see snapshot.go): every
// answer set is a pure function of the immutable model, so one context's
// work — or one iDrips Next's, or one parallel worker's — is every other
// context's cache hit.
func NewMeasure(m *Model) *Measure {
	return &Measure{model: m, snap: newSnapshot(defaultSnapshotCap)}
}

// Name implements measure.Measure.
func (ms *Measure) Name() string { return "coverage" }

// FullyMonotonic implements measure.Measure; coverage is not monotonic.
func (ms *Measure) FullyMonotonic() bool { return false }

// DiminishingReturns implements measure.Measure: executing more plans can
// only shrink the set of new tuples a plan would return.
func (ms *Measure) DiminishingReturns() bool { return true }

// BucketOrder implements measure.Measure; no per-bucket total order exists.
func (ms *Measure) BucketOrder(int, []lav.SourceID) ([]lav.SourceID, bool) {
	return nil, false
}

// Model returns the underlying coverage model.
func (ms *Measure) Model() *Model { return ms.model }

// NewContext implements measure.Measure.
func (ms *Measure) NewContext() measure.Context {
	return &context{
		model:     ms.model,
		ms:        ms,
		covered:   bitset.New(ms.model.universe),
		inter:     make(map[*abstraction.Node]*bitset.Set),
		union:     make(map[*abstraction.Node]*bitset.Set),
		planLocal: make(map[string]*bitset.Set),
		scratch:   bitset.New(ms.model.universe),
		snap:      ms.snap,
	}
}

// context evaluates conditional coverage. Answer sets are memoized
// across contexts in the measure's shared snapshot and utilities are
// computed by the fused single-pass bitset kernels; the only per-context
// mutable state is the covered set. The maps inter, union, and planLocal
// are pointer/string-keyed local fronts over the snapshot: a local hit
// costs one map probe and no interface boxing, which keeps the warm
// Evaluate path allocation-free. The reference measure in package
// coveragetest, which only tests import, composes the same sets pass by
// pass and checks this path against it.
type context struct {
	measure.Base
	model   *Model
	ms      *Measure
	covered *bitset.Set // union of executed plans' answer sets
	snap    *snapshot

	// inter and union front, per abstraction node, the snapshot's
	// intersection and union of the members' covered subsets; for a node
	// N they satisfy inter(N) ⊆ set(V) ⊆ union(N) for every member V,
	// which makes abstract-plan intervals sound.
	inter     map[*abstraction.Node]*bitset.Set
	union     map[*abstraction.Node]*bitset.Set
	planLocal map[string]*bitset.Set // plan key -> answer set
	scratch   *bitset.Set
	gather    []*bitset.Set // reusable kernel operand buffer

	// Bulk-independence state (see indep.go): for the fixed delta of a
	// recompute sweep, per-position overlap rows materialize
	// Overlap(v, dᵢ) by source ID so each of the sweep's many checks is
	// a bit test per position instead of a model probe. Rows are a pure
	// function of (model, delta) — prefix-independent — so they stay
	// valid for as long as the same delta is swept.
	indepD    *planspace.Plan
	indepSrc  []lav.SourceID
	indepRows [][]uint64
	// Flattened leaf source IDs of the last-swept plan list (stride =
	// query length, indepSlow marks unflattenable plans), keyed by the
	// list's slice identity.
	indepPlans []*planspace.Plan
	indepIDs   []int32

	// Snapshot telemetry: local+shared hits, misses (computations), and
	// fused-kernel invocations, with optional obs mirrors (see Bind).
	snapHits    int
	snapMisses  int
	kernelCalls int
	cSnapHits   *obs.Counter
	cSnapMisses *obs.Counter
	cKernel     *obs.Counter
}

// Measure implements measure.Context.
func (c *context) Measure() measure.Measure { return c.ms }

// Bind implements measure.Context, adding the snapshot counters
// "<prefix>.snapshot_hits", "<prefix>.snapshot_misses", and
// "<prefix>.kernel_calls" to the base set.
func (c *context) Bind(reg *obs.Registry, prefix string) {
	c.Base.Bind(reg, prefix)
	if reg == nil {
		c.cSnapHits, c.cSnapMisses, c.cKernel = nil, nil, nil
		return
	}
	c.cSnapHits = reg.Counter(prefix + ".snapshot_hits")
	c.cSnapMisses = reg.Counter(prefix + ".snapshot_misses")
	c.cKernel = reg.Counter(prefix + ".kernel_calls")
}

// SnapshotStats returns the context's snapshot hit/miss counts and the
// number of fused-kernel invocations.
func (c *context) SnapshotStats() (hits, misses, kernels int) {
	return c.snapHits, c.snapMisses, c.kernelCalls
}

func (c *context) countHit()  { c.snapHits++; c.cSnapHits.Inc() }
func (c *context) countMiss() { c.snapMisses++; c.cSnapMisses.Inc() }
func (c *context) countKernel() {
	c.kernelCalls++
	c.cKernel.Inc()
}

// ForkContext implements measure.Forker: the covered set and executed
// prefix are copied directly instead of replaying Observe over the
// prefix, so forking costs O(universe words + prefix length) no matter
// how much work the parent has done. The shared snapshot carries over by
// construction; the local front maps start empty and re-warm from it.
func (c *context) ForkContext() measure.Context {
	f := c.ms.NewContext().(*context)
	f.covered.Copy(c.covered)
	f.SeedExecuted(c.Executed())
	return f
}

// nodeSetShared returns the ∩ (union=false) or ∪ (union=true) of the
// node's member sets, consulting the local front map, then
// the shared snapshot, and computing with a fused kernel only when both
// miss. Computed sets are admitted to the snapshot while it has room.
func (c *context) nodeSetShared(n *abstraction.Node, union bool) *bitset.Set {
	if n.IsLeaf() {
		return c.model.Set(n.Source())
	}
	local, shared := c.inter, &c.snap.inter
	if union {
		local, shared = c.union, &c.snap.union
	}
	if s, ok := local[n]; ok {
		c.countHit()
		return s
	}
	k := n.Key()
	if v, ok := shared.Load(k); ok {
		c.countHit()
		s := v.(*bitset.Set)
		local[n] = s
		return s
	}
	c.countMiss()
	sets := make([]*bitset.Set, len(n.Sources))
	for i, src := range n.Sources {
		sets[i] = c.model.Set(src)
	}
	s := bitset.New(c.model.universe)
	if union {
		bitset.UnionInto(s, sets)
	} else {
		bitset.IntersectInto(s, sets)
	}
	c.countKernel()
	if c.snap.roomFor() {
		if prev, loaded := shared.LoadOrStore(k, s); loaded {
			s = prev.(*bitset.Set)
		} else {
			c.snap.count.Add(1)
		}
	}
	local[n] = s
	return s
}

// gatherSets collects the kernel operands for plan p into the context's
// reusable buffer: one set per node (leaf answer set, or the group's
// intersection/union per the union flag).
func (c *context) gatherSets(p *planspace.Plan, union bool) []*bitset.Set {
	c.gather = c.gather[:0]
	for _, n := range p.Nodes {
		c.gather = append(c.gather, c.nodeSetShared(n, union))
	}
	return c.gather
}

// planAnswer returns the memoized exact answer set of concrete plan p,
// computing and admitting it on a miss; nil when the snapshot is at
// capacity and p is not cached — the caller then computes with a fused
// kernel instead. (Past capacity the shared probe is skipped too: boxing
// the key per call would reintroduce an allocation on the hot path.)
//
// planAnswer is called from Observe only: an executed plan's answer set
// folds into covered here and again in every fork and sibling context
// that observes the same plan, so memoizing it always pays. Evaluate
// deliberately bypasses this memo — an ordering run evaluates most
// concrete plans exactly once and never re-evaluates executed ones, so
// both the eager store (set allocation plus sync.Map insert) and even a
// read-only probe (string-key hash per call) cost more than the one
// fused-kernel pass they could save.
func (c *context) planAnswer(p *planspace.Plan) *bitset.Set {
	k := p.Key()
	if s, ok := c.planLocal[k]; ok {
		c.countHit()
		return s
	}
	if !c.snap.roomFor() {
		c.countMiss()
		return nil
	}
	if v, ok := c.snap.plans.Load(k); ok {
		c.countHit()
		s := v.(*bitset.Set)
		c.planLocal[k] = s
		return s
	}
	c.countMiss()
	s := bitset.New(c.model.universe)
	bitset.IntersectInto(s, c.gatherSets(p, false))
	c.countKernel()
	if prev, loaded := c.snap.plans.LoadOrStore(k, s); loaded {
		s = prev.(*bitset.Set)
	} else {
		c.snap.count.Add(1)
	}
	c.planLocal[k] = s
	return s
}

// Evaluate implements measure.Context. Concrete plans get their exact
// conditional coverage; abstract plans get the sound interval
// [|∩inter \ covered|, |∩union \ covered|] / |U|.
func (c *context) Evaluate(p *planspace.Plan) interval.Interval {
	c.CountEval()
	u := float64(c.model.universe)
	if p.Concrete() {
		// Always the fused kernel, no memo probe: ordering algorithms
		// retire a plan from the candidate set once executed, so a
		// concrete plan is essentially never re-evaluated after its
		// answer set is admitted — a probe here would hash the plan key
		// on every call to hit almost never.
		n := bitset.IntersectCountAndNot(c.gatherSets(p, false), c.covered)
		c.countKernel()
		return interval.Point(float64(n) / u)
	}
	lo := bitset.IntersectCountAndNot(c.gatherSets(p, false), c.covered)
	c.countKernel()
	hi := bitset.IntersectCountAndNot(c.gatherSets(p, true), c.covered)
	c.countKernel()
	return interval.New(float64(lo)/u, float64(hi)/u)
}

// Observe implements measure.Context: the executed plan's answers join the
// covered set.
func (c *context) Observe(d *planspace.Plan) {
	c.Record(d)
	if ans := c.planAnswer(d); ans != nil {
		c.covered.UnionWith(ans)
		return
	}
	bitset.IntersectInto(c.scratch, c.gatherSets(d, false))
	c.countKernel()
	c.covered.UnionWith(c.scratch)
}

// Independent implements measure.Context: executing d cannot change the
// coverage of any concrete plan in p when their answer sets are provably
// disjoint. The sound procedure of Section 3: some position exists where
// no member of p's node overlaps d's source, so every represented plan's
// answer set is disjoint from d's. Pairwise overlaps are memoized in the
// model, making this a few table lookups for concrete plans.
func (c *context) Independent(p, d *planspace.Plan) bool {
	return c.CountIndep(c.independentOracle(p, d))
}

// independentOracle is Independent without the counting — shared by the
// scalar entry point and the bulk sweep's fallback path.
func (c *context) independentOracle(p, d *planspace.Plan) bool {
	if p.Len() != d.Len() {
		return false // sound: no claim for heterogeneous plan shapes
	}
	for i, n := range p.Nodes {
		di := d.Nodes[i].Source()
		overlaps := false
		for _, v := range n.Sources {
			if c.model.Overlap(v, di) {
				overlaps = true
				break
			}
		}
		if !overlaps {
			return true
		}
	}
	return false
}

// IndependentWitness implements measure.Context using the sound
// per-coordinate procedure of Section 3: if some position i has a member
// source v whose covered subset is disjoint from every d's source at i,
// then any concrete plan using v at i is independent of all of ds.
func (c *context) IndependentWitness(p *planspace.Plan, ds []*planspace.Plan) bool {
	if len(ds) == 0 {
		return true
	}
	for _, d := range ds {
		if d.Len() != p.Len() {
			return measure.EnumerateWitness(p, ds, func(a, b *planspace.Plan) bool {
				return c.Independent(a, b)
			})
		}
	}
	for i, n := range p.Nodes {
		for _, v := range n.Sources {
			ok := true
			for _, d := range ds {
				if c.model.Overlap(v, d.Nodes[i].Source()) {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
	}
	return false
}

var _ measure.Measure = (*Measure)(nil)
var _ measure.Context = (*context)(nil)
var _ measure.Forker = (*context)(nil)
