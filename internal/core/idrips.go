package core

import (
	"qporder/internal/abstraction"
	"qporder/internal/measure"
	"qporder/internal/obs"
	"qporder/internal/planspace"
)

// IDrips is the iterated-Drips orderer of Section 5.2. Each Next call
// runs Drips over the abstract roots of every remaining plan space to
// find the current best plan (conditioned on the executed prefix), and
// removes that plan by plan-space splitting. The dominance comparisons
// are re-established from the roots on every Next, as in the paper:
// that is the duplicated work it contrasts with Streamer. The paper's
// re-abstraction of the sources is not repeated, because a space is
// immutable and its hierarchy is a pure function of its buckets and the
// heuristic: each space's root is built once, when the space first takes
// part in a Next, and dropped when Remove splits the space.
type IDrips struct {
	ctx    measure.Context
	heur   abstraction.Heuristic
	spaces []*planspace.Space
	roots  []*planspace.Plan // roots[i] abstracts spaces[i]; later spaces have none yet
	c      counters
	par    parcfg
	trace  traceState
}

// NewIDrips builds the orderer over the given spaces with the given
// grouping heuristic.
func NewIDrips(spaces []*planspace.Space, m measure.Measure, heur abstraction.Heuristic) *IDrips {
	cp := append([]*planspace.Space(nil), spaces...)
	return &IDrips{ctx: m.NewContext(), heur: heur, spaces: cp}
}

// Context implements Orderer.
func (d *IDrips) Context() measure.Context { return d.ctx }

// Instrument implements Instrumented.
func (d *IDrips) Instrument(reg *obs.Registry) {
	d.c = newCounters(reg, "idrips")
	d.c.prov = d.trace.provPtr()
	bindContext(d.ctx, reg, "idrips")
	d.par.bind(reg)
}

// SetTrace implements Traced.
func (d *IDrips) SetTrace(tr *obs.Trace) {
	d.trace.set(tr, d.ctx)
	d.c.prov = d.trace.provPtr()
}

// Parallelism implements Parallel: candidate evaluation and dominance
// sweeps inside each Drips run fan out to n workers. Output is identical
// to the sequential run for every n.
func (d *IDrips) Parallelism(n int) { d.par.set(n) }

// Next implements Orderer.
func (d *IDrips) Next() (*planspace.Plan, float64, bool) {
	defer d.c.endNext(d.c.startNext())
	if len(d.spaces) == 0 {
		d.c.exhausted.Inc()
		return nil, 0, false
	}
	// Abstract the spaces new since the last Next (all of them on the
	// first call, the split's subspaces afterwards) and run Drips over
	// all roots jointly.
	for i := len(d.roots); i < len(d.spaces); i++ {
		d.roots = append(d.roots, d.spaces[i].Root(d.heur))
	}
	best, util := dripsBest(d.ctx, d.roots, d.c, d.par.evaluator(d.ctx, "idrips"))
	d.ctx.Observe(best)

	// Remove the winner from its (unique) containing space by splitting.
	srcs := best.Sources()
	idx := -1
	for i, s := range d.spaces {
		if s.Contains(srcs) {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("core: iDrips winner not contained in any space: " + best.Key())
	}
	d.c.split()
	subs := d.spaces[idx].Remove(srcs)
	d.spaces = append(d.spaces[:idx], d.spaces[idx+1:]...)
	d.roots = append(d.roots[:idx], d.roots[idx+1:]...)
	d.spaces = append(d.spaces, subs...)
	d.trace.emitPlan("idrips", best, util, d.ctx.Evals())
	return best, util, true
}

var _ Orderer = (*IDrips)(nil)
var _ Parallel = (*IDrips)(nil)
var _ Traced = (*IDrips)(nil)
