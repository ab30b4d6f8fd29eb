package costmodel

import (
	"fmt"

	"qporder/internal/interval"
	"qporder/internal/lav"
	"qporder/internal/measure"
	"qporder/internal/planspace"
)

// MonetaryPerTuple is the fourth experimental utility of Section 6: the
// average monetary cost per output tuple,
//
//	u(p) = −Cost$(p) / NumOutputTuples(p)
//
// where Cost$ follows the chain formula (2) over the sources' monetary
// fees (AccessFee per access, TupleFee per transmitted item) and
// NumOutputTuples is the chain's final output estimate, as in [23].
// The ratio destroys the correlation between the tuple-count abstraction
// heuristic and utility, which is what makes abstraction ineffective in
// panels (j)-(l) of Figure 6.
type MonetaryPerTuple struct {
	prm  Params
	aggs *aggCache // shared per-node aggregate snapshot
}

// NewMonetaryPerTuple returns the measure; Params.N must be positive.
// Params.Failure is ignored (fees are charged whether or not retries
// happen at the transport level).
func NewMonetaryPerTuple(cat *lav.Catalog, prm Params) *MonetaryPerTuple {
	if prm.N <= 0 {
		panic(fmt.Sprintf("costmodel: Params.N = %g, want > 0", prm.N))
	}
	prm.Failure = false
	return &MonetaryPerTuple{prm: prm, aggs: newAggCache(cat, prm, true)}
}

// Name implements measure.Measure.
func (m *MonetaryPerTuple) Name() string {
	n := "monetary-per-tuple"
	if m.prm.Caching {
		n += "+caching"
	}
	return n
}

// FullyMonotonic implements measure.Measure.
func (m *MonetaryPerTuple) FullyMonotonic() bool { return false }

// DiminishingReturns implements measure.Measure.
func (m *MonetaryPerTuple) DiminishingReturns() bool { return !m.prm.Caching }

// PrefixIndependent implements measure.PrefixIndependent: like ChainCost,
// utilities only depend on the executed prefix when caching is on.
func (m *MonetaryPerTuple) PrefixIndependent() bool { return !m.prm.Caching }

// BucketOrder implements measure.Measure.
func (m *MonetaryPerTuple) BucketOrder(int, []lav.SourceID) ([]lav.SourceID, bool) {
	return nil, false
}

// NewContext implements measure.Measure.
func (m *MonetaryPerTuple) NewContext() measure.Context {
	var cache opCache
	if m.prm.Caching {
		cache = make(opCache)
	}
	return &monetaryCtx{m: m, cached: cache, aggs: newAggFront(m.aggs)}
}

type monetaryCtx struct {
	measure.Base
	m      *MonetaryPerTuple
	cached opCache
	aggs   *aggFront
}

func (c *monetaryCtx) Measure() measure.Measure { return c.m }

// Evaluate implements measure.Context.
func (c *monetaryCtx) Evaluate(p *planspace.Plan) interval.Interval {
	c.CountEval()
	cost, out := chainCost(p, c.m.prm, c.cached, c.aggs)
	// out is strictly positive: Tuples >= 1 everywhere and N is finite.
	return cost.Div(out).Neg()
}

// Observe implements measure.Context.
func (c *monetaryCtx) Observe(d *planspace.Plan) {
	c.Record(d)
	if c.cached != nil {
		c.cached.add(d)
	}
}

// Independent implements measure.Context.
func (c *monetaryCtx) Independent(p, d *planspace.Plan) bool {
	if c.cached == nil {
		return c.CountIndep(true)
	}
	return c.CountIndep(structuralIndependent(p, d))
}

// IndependentWitness implements measure.Context.
func (c *monetaryCtx) IndependentWitness(p *planspace.Plan, ds []*planspace.Plan) bool {
	if c.cached == nil {
		return true
	}
	return structuralWitness(p, ds)
}

var _ measure.Measure = (*MonetaryPerTuple)(nil)
var _ measure.Context = (*monetaryCtx)(nil)
