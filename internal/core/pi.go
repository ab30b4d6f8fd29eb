package core

import (
	"qporder/internal/interval"
	"qporder/internal/measure"
	"qporder/internal/obs"
	"qporder/internal/parallel"
	"qporder/internal/planspace"
)

// PI is the best brute-force baseline of Section 6: it computes the exact
// ordering but uses plan-independence information to recompute, after
// each output, only the utilities of plans that may have changed. All
// other cached utilities remain valid.
//
// With Parallelism(n), the plan space is sharded across n workers: the
// initial full evaluation, the per-output selection (each shard's best
// streams into a deterministic k-way merge), and the post-output
// recompute sweep all fan out. Output is identical to the sequential
// run for every n.
type PI struct {
	ctx     measure.Context
	plans   []*planspace.Plan
	utils   []float64
	alive   []bool
	nAlive  int
	started bool
	c       counters
	par     parcfg
	trace   traceState

	// Reusable sweep buffers: the frontier of plans pending re-evaluation
	// after an output, their indices, the interval results, and the
	// per-plan independence verdicts the bulk sweep writes. Keeping them
	// on the orderer makes the steady-state Next loop allocation-free.
	pending []*planspace.Plan
	pendIdx []int
	ivals   []interval.Interval
	indep   []bool
}

// NewPI builds the orderer over the concrete plans of the given spaces.
func NewPI(spaces []*planspace.Space, m measure.Measure) *PI {
	return NewPISharded(spaces, m, 0, 1)
}

// NewPISharded builds the orderer over one slice of the plan space: the
// plans whose position in the deterministic enumeration order is
// congruent to index mod count. This is the cross-process analogue of the
// in-process shard split Parallelism(n) applies: every shard enumerates
// the same global order and keeps a disjoint residue class, so the union
// of the shards is exactly the full space and no plan is ordered twice.
//
// For measures with prefix-independent utilities (measure.
// IsPrefixIndependent), each shard's Next sequence is the global Next
// sequence restricted to its slice; merging shard streams by (utility,
// plan key) — the betterPlan order — reproduces the unsharded sequence
// byte-for-byte. That invariant is what lets a router scatter one query
// across a fleet of daemons and gather a stream identical to a single
// process, for any shard count. The caller is responsible for checking
// the measure; sharding a prefix-dependent measure silently diverges.
func NewPISharded(spaces []*planspace.Space, m measure.Measure, index, count int) *PI {
	if count < 1 || index < 0 || index >= count {
		panic("core: NewPISharded wants 0 <= index < count")
	}
	var plans []*planspace.Plan
	if count == 1 && len(spaces) == 1 {
		// The whole-space single-shard shape shares the space's memoized
		// enumeration directly: PI only reads the slice, and skipping the
		// copy keeps repeated orderer construction over one catalog from
		// re-allocating (and re-GC-scanning) a pointer-dense clone.
		plans = spaces[0].Enumerate()
	} else {
		pos := 0
		for _, s := range spaces {
			for _, p := range s.Enumerate() {
				if pos%count == index {
					plans = append(plans, p)
				}
				pos++
			}
		}
	}
	return &PI{
		ctx:    m.NewContext(),
		plans:  plans,
		utils:  make([]float64, len(plans)),
		alive:  make([]bool, len(plans)),
		nAlive: len(plans),
	}
}

// Context implements Orderer.
func (pi *PI) Context() measure.Context { return pi.ctx }

// Instrument implements Instrumented.
func (pi *PI) Instrument(reg *obs.Registry) {
	pi.c = newCounters(reg, "pi")
	pi.c.prov = pi.trace.provPtr()
	bindContext(pi.ctx, reg, "pi")
	pi.par.bind(reg)
}

// SetTrace implements Traced.
func (pi *PI) SetTrace(tr *obs.Trace) {
	pi.trace.set(tr, pi.ctx)
	pi.c.prov = pi.trace.provPtr()
}

// Parallelism implements Parallel.
func (pi *PI) Parallelism(n int) { pi.par.set(n) }

// Next implements Orderer.
func (pi *PI) Next() (*planspace.Plan, float64, bool) {
	defer pi.c.endNext(pi.c.startNext())
	ev := pi.par.evaluator(pi.ctx, "pi")
	if !pi.started {
		pi.started = true
		pi.scratch(len(pi.plans))
		if ev == nil {
			measure.EvaluateAll(pi.ctx, pi.plans, pi.ivals)
		} else {
			ev.EvalInto(pi.plans, pi.ivals)
		}
		for i := range pi.plans {
			pi.utils[i] = pi.ivals[i].Lo
			pi.alive[i] = true
		}
	}
	if pi.nAlive == 0 {
		pi.c.exhausted.Inc()
		return nil, 0, false
	}
	bestIdx := pi.selectBest(ev)
	d := pi.plans[bestIdx]
	u := pi.utils[bestIdx]
	pi.alive[bestIdx] = false
	pi.nAlive--
	pi.ctx.Observe(d)
	// Recompute only plans whose utility may have changed: one bulk
	// independence sweep against the fixed delta (memoized overlap rows
	// on bulk-capable contexts), then the dependent survivors score as
	// one frontier.
	pi.scratch(len(pi.plans))
	if ev == nil {
		measure.IndependentAll(pi.ctx, pi.plans, d, pi.alive, pi.indep)
	} else {
		ev.IndependentInto(pi.plans, d, pi.alive, pi.indep)
	}
	for i, a := range pi.alive {
		if a && !pi.indep[i] {
			pi.pendIdx = append(pi.pendIdx, i)
			pi.pending = append(pi.pending, pi.plans[i])
		}
	}
	if ev == nil {
		measure.EvaluateAll(pi.ctx, pi.pending, pi.ivals)
	} else {
		ev.EvalInto(pi.pending, pi.ivals)
	}
	for k, idx := range pi.pendIdx {
		pi.utils[idx] = pi.ivals[k].Lo
	}
	pi.trace.emitPlan("pi", d, u, pi.ctx.Evals())
	return d, u, true
}

// scratch sizes the reusable sweep buffers for n plans and empties the
// pending lists.
func (pi *PI) scratch(n int) {
	if cap(pi.ivals) < n {
		pi.ivals = make([]interval.Interval, n)
		pi.pending = make([]*planspace.Plan, 0, n)
		pi.pendIdx = make([]int, 0, n)
		pi.indep = make([]bool, n)
	}
	pi.ivals = pi.ivals[:n]
	pi.indep = pi.indep[:n]
	pi.pending = pi.pending[:0]
	pi.pendIdx = pi.pendIdx[:0]
}

// selectBest returns the index of the best alive plan. The parallel path
// scans shards concurrently and merges the shard winners in shard order;
// the comparison is a strict total order (utility, then key, with dead
// plans after all alive ones), so the winner matches the sequential scan.
func (pi *PI) selectBest(ev *parallel.Evaluator) int {
	cmp := func(i, j int) bool {
		ai, aj := pi.alive[i], pi.alive[j]
		if ai != aj {
			return ai
		}
		if !ai {
			return i < j
		}
		return betterPlan(pi.utils[i], pi.plans[i], pi.utils[j], pi.plans[j])
	}
	if ev != nil && ev.Parallel(len(pi.plans)) {
		return ev.Pool().Best(len(pi.plans), cmp)
	}
	bestIdx := -1
	bestU := 0.0
	for i, a := range pi.alive {
		if !a {
			continue
		}
		// betterPlan orders by utility first, so a strictly lower utility
		// can never win; the key comparison only breaks exact ties.
		u := pi.utils[i]
		if bestIdx >= 0 && u < bestU {
			continue
		}
		if bestIdx < 0 || betterPlan(u, pi.plans[i], bestU, pi.plans[bestIdx]) {
			bestIdx, bestU = i, u
		}
	}
	return bestIdx
}

var _ Orderer = (*PI)(nil)
var _ Parallel = (*PI)(nil)
var _ Traced = (*PI)(nil)
