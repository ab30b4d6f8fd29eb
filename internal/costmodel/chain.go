package costmodel

import (
	"fmt"

	"qporder/internal/interval"
	"qporder/internal/lav"
	"qporder/internal/measure"
	"qporder/internal/planspace"
)

// ChainCost is cost measure (2) of Section 3 generalized to query length
// n as a semijoin chain:
//
//	cost(p) = (h₁' + α₁·n₁) + Σ_{k≥2} (hₖ' + αₖ·outₖ),  outₖ = nₖ·outₖ₋₁/N
//
// where h' = h/(1-f) under the source-failure option (expected retries)
// and a position's term is zero under the caching option when its source
// operation was cached by an executed plan. The measure is monotonic wrt
// the last subgoal only, so Greedy does not apply; without caching,
// utilities are plan-independent and Streamer applies; with caching,
// utilities can increase as plans execute, so diminishing returns fails
// and Streamer must not be used.
type ChainCost struct {
	prm  Params
	aggs *aggCache // shared per-node aggregate snapshot
}

// NewChainCost returns the measure; Params.N must be positive. Contexts
// share a measure-owned snapshot of per-node cost aggregates (see
// snapshot.go).
func NewChainCost(cat *lav.Catalog, prm Params) *ChainCost {
	if prm.N <= 0 {
		panic(fmt.Sprintf("costmodel: Params.N = %g, want > 0", prm.N))
	}
	return &ChainCost{prm: prm, aggs: newAggCache(cat, prm, false)}
}

// Name implements measure.Measure.
func (m *ChainCost) Name() string {
	n := "chain-cost"
	if m.prm.Failure {
		n += "+failure"
	}
	if m.prm.Caching {
		n += "+caching"
	}
	return n
}

// FullyMonotonic implements measure.Measure: measure (2) is monotonic wrt
// the last subgoal but not the first, so it is not fully monotonic.
func (m *ChainCost) FullyMonotonic() bool { return false }

// DiminishingReturns implements measure.Measure: holds exactly when no
// caching is in effect (utilities are then constant).
func (m *ChainCost) DiminishingReturns() bool { return !m.prm.Caching }

// PrefixIndependent implements measure.PrefixIndependent: without
// caching, no per-context state survives Observe, so utilities are
// invariant under the executed prefix; with caching, executed plans make
// later operations free, so they are not.
func (m *ChainCost) PrefixIndependent() bool { return !m.prm.Caching }

// BucketOrder implements measure.Measure.
func (m *ChainCost) BucketOrder(int, []lav.SourceID) ([]lav.SourceID, bool) {
	return nil, false
}

// NewContext implements measure.Measure.
func (m *ChainCost) NewContext() measure.Context {
	var cache opCache
	if m.prm.Caching {
		cache = make(opCache)
	}
	return &chainCtx{m: m, cached: cache, aggs: newAggFront(m.aggs)}
}

type chainCtx struct {
	measure.Base
	m      *ChainCost
	cached opCache // nil when caching is off
	aggs   *aggFront
}

func (c *chainCtx) Measure() measure.Measure { return c.m }

// Evaluate implements measure.Context.
func (c *chainCtx) Evaluate(p *planspace.Plan) interval.Interval {
	c.CountEval()
	cost, _ := chainCost(p, c.m.prm, c.cached, c.aggs)
	return cost.Neg()
}

// Observe implements measure.Context: under caching, the executed plan's
// source operations become free for subsequent plans.
func (c *chainCtx) Observe(d *planspace.Plan) {
	c.Record(d)
	if c.cached != nil {
		c.cached.add(d)
	}
}

// Independent implements measure.Context.
func (c *chainCtx) Independent(p, d *planspace.Plan) bool {
	if c.cached == nil {
		return c.CountIndep(true)
	}
	return c.CountIndep(structuralIndependent(p, d))
}

// IndependentWitness implements measure.Context.
func (c *chainCtx) IndependentWitness(p *planspace.Plan, ds []*planspace.Plan) bool {
	if c.cached == nil {
		return true
	}
	return structuralWitness(p, ds)
}

var _ measure.Measure = (*ChainCost)(nil)
var _ measure.Context = (*chainCtx)(nil)
