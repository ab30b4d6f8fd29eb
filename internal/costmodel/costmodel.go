// Package costmodel implements the cost-based utility measures of
// Sections 3 and 6:
//
//   - LinearCost: measure (1), cost(ViVj) = (h+αᵢnᵢ) + (h+αⱼnⱼ) —
//     fully monotonic, so Greedy applies;
//   - ChainCost: measure (2), the semijoin chain
//     cost = (h+α₁n₁) + Σₖ (h+αₖ·outₖ), outₖ = nₖ·outₖ₋₁/N — monotonic
//     only wrt the last subgoal; optional per-access failure probability
//     (expected retries inflate the overhead to h/(1-f)) and optional
//     caching of source operations (a cached operation costs zero);
//   - MonetaryPerTuple: the average monetary cost per output tuple,
//     u(p) = Cost$(p)/NumOutputTuples(p) with Cost$ computed by the chain
//     formula over access/tuple fees.
//
// All utilities are negated costs, so higher utility is always better.
package costmodel

import (
	"sort"

	"qporder/internal/interval"
	"qporder/internal/lav"
	"qporder/internal/planspace"
)

// Params configures the shared cost machinery.
type Params struct {
	// N is the total number of items in each subgoal's domain — the
	// selectivity denominator of cost measure (2). Must be positive.
	N float64
	// Failure applies the expected-retry factor 1/(1-FailureProb) to each
	// access overhead ("cost with probability of source failure").
	Failure bool
	// Caching zeroes the cost of source operations whose results were
	// cached by a previously executed plan. A source operation is the pair
	// (plan position, source), following Section 6's caching experiments.
	Caching bool
}

// opKey identifies a source operation: position k accessing source s.
type opKey struct {
	pos int
	src lav.SourceID
}

// opCache is the set of cached source operations shared semantics across
// the caching measures.
type opCache map[opKey]bool

func (c opCache) add(d *planspace.Plan) {
	for k, n := range d.Nodes {
		c[opKey{k, n.Source()}] = true
	}
}

// structuralIndependent reports the sound caching-independence oracle:
// executing d cannot change the utility of any concrete plan in p iff no
// member of p can share a source operation with d, i.e. for every
// position, d's source is not among p's members there.
func structuralIndependent(p, d *planspace.Plan) bool {
	if p.Len() != d.Len() {
		return false
	}
	for k, n := range p.Nodes {
		dk := d.Nodes[k].Source()
		for _, v := range n.Sources {
			if v == dk {
				return false
			}
		}
	}
	return true
}

// structuralWitness reports whether some concrete plan in p shares no
// source operation with any plan in ds. The per-position check is exact
// for this oracle: positions can be chosen independently.
func structuralWitness(p *planspace.Plan, ds []*planspace.Plan) bool {
	for _, d := range ds {
		if d.Len() != p.Len() {
			return false
		}
	}
	for k, n := range p.Nodes {
		found := false
		for _, v := range n.Sources {
			used := false
			for _, d := range ds {
				if d.Nodes[k].Source() == v {
					used = true
					break
				}
			}
			if !used {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// effectiveOverhead returns h, inflated to h/(1-f) when failures apply.
func effectiveOverhead(st lav.Stats, failure bool) float64 {
	if failure {
		return st.Overhead / (1 - st.FailureProb)
	}
	return st.Overhead
}

// chainCost computes the cost interval of the semijoin chain for plan p
// and, for the monetary measure, the final output-tuple interval.
// cached may be nil (no caching). The loop-invariant per-node aggregates,
// time or monetary coefficients alike, come from the aggs front over the
// measure's shared snapshot.
func chainCost(p *planspace.Plan, prm Params, cached opCache, aggs *aggFront) (cost, outLast interval.Interval) {
	prevOut := interval.Point(0) // output of the previous position
	total := interval.Point(0)
	for k, node := range p.Nodes {
		ag := aggs.of(node)
		// Output-size interval of this position over all members.
		var outIv interval.Interval
		if k == 0 {
			outIv = interval.New(ag.minN, ag.maxN)
		} else {
			outIv = interval.New(ag.minN, ag.maxN).Mul(prevOut).Scale(1 / prm.N)
		}
		// Cost-contribution hull over members.
		var costIv interval.Interval
		for i, m := range node.Sources {
			var cm interval.Interval
			if cached != nil && cached[opKey{k, m}] {
				cm = interval.Point(0)
			} else {
				var outM interval.Interval
				if k == 0 {
					outM = interval.Point(ag.tuples[i])
				} else {
					outM = prevOut.Scale(ag.tN[i])
				}
				cm = outM.Scale(ag.coef[i]).Add(interval.Point(ag.base[i]))
			}
			if i == 0 {
				costIv = cm
			} else {
				costIv = costIv.Hull(cm)
			}
		}
		total = total.Add(costIv)
		prevOut = outIv
	}
	return total, prevOut
}

// sortBestFirst returns sources ordered ascending by key (lowest cost
// first), breaking ties by ID for determinism.
func sortBestFirst(sources []lav.SourceID, key func(lav.SourceID) float64) []lav.SourceID {
	out := append([]lav.SourceID(nil), sources...)
	sort.SliceStable(out, func(i, j int) bool {
		ki, kj := key(out[i]), key(out[j])
		if ki != kj {
			return ki < kj
		}
		return out[i] < out[j]
	})
	return out
}
