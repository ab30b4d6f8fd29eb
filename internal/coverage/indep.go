package coverage

import (
	"qporder/internal/abstraction"
	"qporder/internal/measure"
	"qporder/internal/planspace"
)

// This file is the bulk-independence path: a PI-style recompute sweep
// asks Independent(p, d) for every alive plan against one fixed delta.
// The context materializes Overlap(v, dᵢ) for every registered source v
// into one bit-row per position (a few hundred Overlap probes, all
// memoized in the model's matrix) and flattens the swept plan list into
// a per-position array of leaf source IDs, so each of the sweep's tens
// of thousands of checks is a handful of int32 loads and bit tests with
// no pointer chasing. The verdicts and IndepStats deltas are exactly
// those of the scalar loop: one counted query per examined plan, one
// hit per independent verdict.

// IndependentSweep implements measure.BulkIndependent.
func (c *context) IndependentSweep(plans []*planspace.Plan, d *planspace.Plan, alive, indep []bool) {
	q := d.Len()
	if !d.Concrete() || c.model.MaxID() < 0 || len(plans) == 0 ||
		len(plans[0].Nodes) != q {
		// Rare shape (abstract delta, empty model or list, first plan's
		// arity unlike the delta's): the scalar oracle per plan.
		checks, hits := 0, 0
		for i, p := range plans {
			if alive != nil && !alive[i] {
				continue
			}
			checks++
			v := c.independentOracle(p, d)
			indep[i] = v
			if v {
				hits++
			}
		}
		c.CountIndeps(checks, hits)
		return
	}
	c.primeIndepIDs(plans)
	c.primeIndepRows(d)
	rows := c.indepRows
	ids := c.indepIDs
	checks, hits := 0, 0
	for i, p := range plans {
		if alive != nil && !alive[i] {
			continue
		}
		checks++
		ind := false
		base := i * q
		if ids[base] == indepSlow {
			ind = c.sweepSlow(p, q)
		} else {
			for pos := 0; pos < q; pos++ {
				id := uint(ids[base+pos])
				if rows[pos][id>>6]&(1<<(id&63)) == 0 {
					ind = true
					break
				}
			}
		}
		indep[i] = ind
		if ind {
			hits++
		}
	}
	c.CountIndeps(checks, hits)
}

// indepSlow in slot 0 of a plan's ID stride marks a plan the flat scan
// cannot judge (abstract node or arity mismatch): it takes the
// per-node slow path instead.
const indepSlow = -1

// primeIndepIDs points the flattened leaf-ID cache at the given plan
// list, rebuilding it only when the list changes. PI sweeps the same
// static slice after every output, so steady state is one slice-header
// comparison. Plans and the slices holding them are immutable by the
// planspace contract, so slice identity (backing array plus length)
// implies identical contents. A plan that is not of the first plan's
// arity, or has an abstract node or an out-of-row source ID, is marked
// indepSlow and judged by sweepSlow.
func (c *context) primeIndepIDs(plans []*planspace.Plan) {
	if len(c.indepPlans) == len(plans) && &c.indepPlans[0] == &plans[0] {
		return
	}
	q := len(plans[0].Nodes)
	maxID := c.model.MaxID()
	need := len(plans) * q
	if cap(c.indepIDs) < need {
		c.indepIDs = make([]int32, need)
	}
	c.indepIDs = c.indepIDs[:need]
	for i, p := range plans {
		base := i * q
		if len(p.Nodes) != q {
			c.indepIDs[base] = indepSlow
			continue
		}
		for pos, n := range p.Nodes {
			if len(n.Sources) != 1 || int(n.Sources[0]) < 0 || int(n.Sources[0]) > maxID {
				c.indepIDs[base] = indepSlow
				break
			}
			c.indepIDs[base+pos] = int32(n.Sources[0])
		}
	}
	c.indepPlans = plans
}

// sweepSlow is the flat scan's per-node fallback for plans it could not
// flatten: the same ∃-position no-overlap test over node structure.
func (c *context) sweepSlow(p *planspace.Plan, q int) bool {
	if p.Len() != q {
		return false
	}
	for pos, n := range p.Nodes {
		if !c.mayOverlap(pos, n) {
			return true
		}
	}
	return false
}

// primeIndepRows points the overlap rows at delta d, reusing row
// storage across sweeps. Rows depend only on the immutable model and d
// — never on the executed prefix — so a repeated delta keeps its rows.
func (c *context) primeIndepRows(d *planspace.Plan) {
	if c.indepD == d {
		return
	}
	c.indepD = d
	q := d.Len()
	words := c.model.MaxID()/64 + 1
	c.indepSrc = c.indepSrc[:0]
	for _, n := range d.Nodes {
		c.indepSrc = append(c.indepSrc, n.Source())
	}
	for len(c.indepRows) < q {
		c.indepRows = append(c.indepRows, nil)
	}
	for pos := 0; pos < q; pos++ {
		if len(c.indepRows[pos]) < words {
			c.indepRows[pos] = make([]uint64, words)
		}
		c.model.OverlapRow(c.indepSrc[pos], c.indepRows[pos])
	}
}

// mayOverlap reports whether some member source of n overlaps the
// sweep delta's source at pos — the group-node slow path behind the
// sweep's leaf bit tests.
func (c *context) mayOverlap(pos int, n *abstraction.Node) bool {
	for _, v := range n.Sources {
		if c.model.Overlap(v, c.indepSrc[pos]) {
			return true
		}
	}
	return false
}

var _ measure.BulkIndependent = (*context)(nil)
