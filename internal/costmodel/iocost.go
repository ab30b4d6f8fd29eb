package costmodel

import (
	"qporder/internal/interval"
	"qporder/internal/lav"
	"qporder/internal/measure"
	"qporder/internal/planspace"
)

// DefaultFaultCost is the default per-segment-page fault charge of the
// I/O-aware cost measure, calibrated against the generator's fixed
// per-access Overhead of 10: reading a cold 4 KiB page costs a couple
// of network round trips.
const DefaultFaultCost = 25

// IOCost is the I/O-aware extension of cost measure (1): each source
// access pays, on top of the linear term h + α·n, a charge per
// cold segment page read from the answer store:
//
//	cost(p) = Σᵢ (hᵢ + αᵢ·nᵢ + f·coldPagesᵢ)
//
// where coldPagesᵢ is the source's resident page footprint
// (store.ResidentPages) if its pages are cold, 0 if warm. Two variants:
//
//   - Cold (caching=false): every access faults its full footprint, so
//     the per-source term is constant — the measure is fully monotonic
//     (Greedy applies) and diminishing-returns (Streamer applies), like
//     LinearCost with a storage-aware tilt toward small sources.
//   - Warm (caching=true): a source's pages stay warm once any executed
//     plan has read them, so later plans through warm sources get
//     cheaper. Utilities now rise as the prefix grows — not fully
//     monotonic, not diminishing-returns — which exercises exactly the
//     conditional-utility machinery (iDrips/PI) the paper builds.
//
// Guravannavar et al. (PAPERS.md) motivate distinguishing cold from
// warm access paths when ordering work; this measure brings that
// distinction to plan ordering over the segment store.
type IOCost struct {
	// pages[id] is the source's resident segment-page footprint; IDs at
	// or beyond the slice charge zero pages.
	pages []int
	// linear supplies each source's h + α·n term.
	linear    *LinearCost
	faultCost float64
	caching   bool
}

// NewIOCost returns the measure over the catalog. pages holds each
// source's resident segment-page count indexed by SourceID (the catalog
// records persist it; store-less callers compute it with
// store.ResidentPages). faultCost <= 0 selects DefaultFaultCost.
func NewIOCost(cat *lav.Catalog, pages []int, faultCost float64, caching bool) *IOCost {
	if faultCost <= 0 {
		faultCost = DefaultFaultCost
	}
	return &IOCost{
		pages:     pages,
		linear:    NewLinearCost(cat),
		faultCost: faultCost,
		caching:   caching,
	}
}

// Name implements measure.Measure.
func (m *IOCost) Name() string {
	if m.caching {
		return "io-cost-caching"
	}
	return "io-cost"
}

// FullyMonotonic implements measure.Measure: only the cold variant has
// prefix-invariant per-source terms.
func (m *IOCost) FullyMonotonic() bool { return !m.caching }

// DiminishingReturns implements measure.Measure: with caching, executing
// a plan warms pages and can raise later plans' utilities.
func (m *IOCost) DiminishingReturns() bool { return !m.caching }

// PrefixIndependent implements measure.PrefixIndependent for the cold
// variant; the interface probe is dynamic, so the caching variant simply
// answers false.
func (m *IOCost) PrefixIndependent() bool { return !m.caching }

// sourcePages returns the resident page footprint charged for a source.
func (m *IOCost) sourcePages(id lav.SourceID) int {
	if int(id) >= 0 && int(id) < len(m.pages) {
		return m.pages[id]
	}
	return 0
}

// coldTerm is the full cold-access cost of one source.
func (m *IOCost) coldTerm(id lav.SourceID) float64 {
	return m.linear.term(id) + m.faultCost*float64(m.sourcePages(id))
}

// BucketOrder implements measure.Measure: cold terms are unconditional,
// so the cold variant orders best-first; warm utilities depend on the
// prefix, so the caching variant declines.
func (m *IOCost) BucketOrder(_ int, sources []lav.SourceID) ([]lav.SourceID, bool) {
	if m.caching {
		return sources, false
	}
	return sortBestFirst(sources, m.coldTerm), true
}

// NewContext implements measure.Measure.
func (m *IOCost) NewContext() measure.Context {
	return &ioCtx{m: m}
}

// ioCtx evaluates IOCost. For the caching variant it tracks which
// sources' pages the executed prefix has warmed; the warm set is a pure
// function of the executed prefix, so the default measure.Fork replay
// reproduces it exactly and parallel runs stay byte-identical.
type ioCtx struct {
	measure.Base
	m *IOCost
	// warm[id] is set once an executed plan has read the source
	// (caching variant only; nil otherwise until first Observe).
	warm map[lav.SourceID]bool
}

func (c *ioCtx) Measure() measure.Measure { return c.m }

// term is the source's cost conditioned on the executed prefix.
func (c *ioCtx) term(id lav.SourceID) float64 {
	if c.m.caching && c.warm[id] {
		// Pages already resident: only the linear term is charged.
		return c.m.linear.term(id)
	}
	return c.m.coldTerm(id)
}

// Evaluate implements measure.Context: the negated sum of per-position
// term hulls.
func (c *ioCtx) Evaluate(p *planspace.Plan) interval.Interval {
	c.CountEval()
	total := interval.Point(0)
	for _, node := range p.Nodes {
		lo := c.term(node.Sources[0])
		hi := lo
		for _, s := range node.Sources[1:] {
			t := c.term(s)
			if t < lo {
				lo = t
			}
			if t > hi {
				hi = t
			}
		}
		total = total.Add(interval.New(lo, hi))
	}
	return total.Neg()
}

// Observe implements measure.Context: executing a plan warms its
// sources' pages (caching variant).
func (c *ioCtx) Observe(d *planspace.Plan) {
	c.Record(d)
	if !c.m.caching {
		return
	}
	if c.warm == nil {
		c.warm = make(map[lav.SourceID]bool)
	}
	for _, node := range d.Nodes {
		c.warm[node.Source()] = true
	}
}

// Independent implements measure.Context. Cold terms never move, so the
// cold variant is always independent. With caching, executing d can only
// change p's utility by warming a source p might use; plans are
// per-bucket, so the positional structural check is sound. A d whose
// sources are all already warm changes nothing.
func (c *ioCtx) Independent(p, d *planspace.Plan) bool {
	if !c.m.caching {
		return c.CountIndep(true)
	}
	if c.allWarm(d) {
		return c.CountIndep(true)
	}
	return c.CountIndep(structuralIndependent(p, d))
}

// IndependentWitness implements measure.Context.
func (c *ioCtx) IndependentWitness(p *planspace.Plan, ds []*planspace.Plan) bool {
	if !c.m.caching {
		return true
	}
	cold := ds[:0:0]
	for _, d := range ds {
		if !c.allWarm(d) {
			cold = append(cold, d)
		}
	}
	if len(cold) == 0 {
		return true
	}
	return structuralWitness(p, cold)
}

// allWarm reports whether every source of d is already warm.
func (c *ioCtx) allWarm(d *planspace.Plan) bool {
	for _, node := range d.Nodes {
		if !c.warm[node.Source()] {
			return false
		}
	}
	return true
}

var _ measure.Measure = (*IOCost)(nil)
var _ measure.Context = (*ioCtx)(nil)
var _ measure.PrefixIndependent = (*IOCost)(nil)
