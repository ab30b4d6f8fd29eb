// Package coveragetest holds the reference coverage measure that tests
// check the snapshot-cached coverage.Measure against. Only tests import
// it; no command or library path links it.
package coveragetest

import (
	"qporder/internal/abstraction"
	"qporder/internal/bitset"
	"qporder/internal/coverage"
	"qporder/internal/interval"
	"qporder/internal/lav"
	"qporder/internal/measure"
	"qporder/internal/planspace"
)

// reference is the plain coverage measure the cached one is checked
// against. It composes every answer set pass by pass from the model's
// per-source sets (clone, then IntersectWith or UnionWith per member and
// per position) with no memo, no fused kernel and no shared state, and
// counts its own Evals. Independence verdicts come from a production
// context: they are table lookups with nothing cached to get wrong.
//
// It implements neither measure.Forker nor measure.BulkIndependent, so
// parallel runs fork it by Observe replay and PI sweeps it through the
// scalar loop: both fast paths of the cached measure meet a plain one.
type reference struct {
	model  *coverage.Model
	oracle *coverage.Measure
}

// NewReference returns the reference measure over m.
func NewReference(m *coverage.Model) measure.Measure {
	return &reference{model: m, oracle: coverage.NewMeasure(m)}
}

func (r *reference) Name() string                { return "coverage" }
func (r *reference) FullyMonotonic() bool        { return false }
func (r *reference) DiminishingReturns() bool    { return true }
func (r *reference) NewContext() measure.Context { return newRefContext(r) }
func (r *reference) BucketOrder(int, []lav.SourceID) ([]lav.SourceID, bool) {
	return nil, false
}

type refContext struct {
	measure.Base
	r       *reference
	oracle  measure.Context
	covered *bitset.Set
	scratch *bitset.Set
}

func newRefContext(r *reference) *refContext {
	return &refContext{
		r:       r,
		oracle:  r.oracle.NewContext(),
		covered: bitset.New(r.model.Universe()),
		scratch: bitset.New(r.model.Universe()),
	}
}

func (c *refContext) Measure() measure.Measure { return c.r }

// nodeSet returns the ∩ (union=false) or ∪ (union=true) of the node's
// member sets, freshly composed.
func (c *refContext) nodeSet(n *abstraction.Node, union bool) *bitset.Set {
	s := c.r.model.Set(n.Sources[0]).Clone()
	for _, src := range n.Sources[1:] {
		if union {
			s.UnionWith(c.r.model.Set(src))
		} else {
			s.IntersectWith(c.r.model.Set(src))
		}
	}
	return s
}

// answer computes into dst ∩ᵢ nodeSet(nodeᵢ): the guaranteed answer set
// with union=false (exact for a concrete plan), the possible one with
// union=true.
func (c *refContext) answer(p *planspace.Plan, union bool, dst *bitset.Set) {
	dst.Copy(c.nodeSet(p.Nodes[0], union))
	for _, n := range p.Nodes[1:] {
		dst.IntersectWith(c.nodeSet(n, union))
	}
}

func (c *refContext) Evaluate(p *planspace.Plan) interval.Interval {
	c.CountEval()
	u := float64(c.r.model.Universe())
	c.answer(p, false, c.scratch)
	lo := float64(c.scratch.DifferenceCount(c.covered)) / u
	if p.Concrete() {
		return interval.Point(lo)
	}
	c.answer(p, true, c.scratch)
	hi := float64(c.scratch.DifferenceCount(c.covered)) / u
	return interval.New(lo, hi)
}

func (c *refContext) Observe(d *planspace.Plan) {
	c.Record(d)
	c.answer(d, false, c.scratch)
	c.covered.UnionWith(c.scratch)
}

// Independent and IndependentWitness forward the oracle context's
// verdicts and move the checks it counted onto this context.
func (c *refContext) Independent(p, d *planspace.Plan) bool {
	return c.forward(func() bool { return c.oracle.Independent(p, d) })
}

func (c *refContext) IndependentWitness(p *planspace.Plan, ds []*planspace.Plan) bool {
	return c.forward(func() bool { return c.oracle.IndependentWitness(p, ds) })
}

func (c *refContext) forward(verdict func() bool) bool {
	checks, hits := c.oracle.IndepStats()
	v := verdict()
	checks2, hits2 := c.oracle.IndepStats()
	c.CountIndeps(checks2-checks, hits2-hits)
	return v
}

var _ measure.Measure = (*reference)(nil)
var _ measure.CountAdder = (*refContext)(nil)
