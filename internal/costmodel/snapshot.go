package costmodel

import (
	"sync"

	"qporder/internal/abstraction"
	"qporder/internal/lav"
)

// nodeAgg holds the loop-invariant per-node aggregates of the chain cost
// formula, hoisted out of the Evaluate hot loop: the member tuple-count
// range and, per member, every catalog-derived coefficient the inner loop
// needs. All of it is a pure function of the immutable catalog and the
// measure's fixed Params, so it is computed once per node content and
// shared. Each value is the operand the formula reads straight off the
// catalog (tN stores the already-divided Tuples/Params.N), so evaluated
// intervals are bit-identical to the unhoisted loop that
// snapshot_test.go keeps as the reference.
type nodeAgg struct {
	minN, maxN float64   // Tuples range over members
	tuples     []float64 // Tuples per member (position-0 output)
	tN         []float64 // Tuples/Params.N per member (later positions)
	coef       []float64 // TransmitCost (time) or TupleFee (monetary)
	base       []float64 // effectiveOverhead (time) or AccessFee (monetary)
}

func computeAgg(cat *lav.Catalog, n *abstraction.Node, prm Params, useFees bool) *nodeAgg {
	k := len(n.Sources)
	ag := &nodeAgg{
		tuples: make([]float64, k),
		tN:     make([]float64, k),
		coef:   make([]float64, k),
		base:   make([]float64, k),
	}
	for i, id := range n.Sources {
		st := cat.Source(id).Stats
		ag.tuples[i] = st.Tuples
		ag.tN[i] = st.Tuples / prm.N
		if useFees {
			ag.coef[i] = st.TupleFee
			ag.base[i] = st.AccessFee
		} else {
			ag.coef[i] = st.TransmitCost
			ag.base[i] = effectiveOverhead(st, prm.Failure)
		}
		if i == 0 {
			ag.minN, ag.maxN = st.Tuples, st.Tuples
		} else {
			if st.Tuples < ag.minN {
				ag.minN = st.Tuples
			}
			if st.Tuples > ag.maxN {
				ag.maxN = st.Tuples
			}
		}
	}
	return ag
}

// aggCache is the measure-owned shared snapshot of node aggregates, keyed
// by node content (abstraction.Node.Key) so the hierarchies iDrips
// builds for each split subspace and parallel workers' forked contexts
// reuse one another's work. Concurrency-safe; racing computations store identical
// values.
type aggCache struct {
	cat     *lav.Catalog
	prm     Params
	useFees bool
	m       sync.Map // node key string -> *nodeAgg
}

func newAggCache(cat *lav.Catalog, prm Params, useFees bool) *aggCache {
	return &aggCache{cat: cat, prm: prm, useFees: useFees}
}

func (a *aggCache) shared(n *abstraction.Node) *nodeAgg {
	k := n.Key()
	if v, ok := a.m.Load(k); ok {
		return v.(*nodeAgg)
	}
	ag := computeAgg(a.cat, n, a.prm, a.useFees)
	if v, loaded := a.m.LoadOrStore(k, ag); loaded {
		return v.(*nodeAgg)
	}
	return ag
}

// aggFront is a per-context pointer-keyed front over a shared aggCache: a
// local hit costs one map probe with no key boxing, so the warm Evaluate
// path stays allocation-free (snapshot_test.go's allocation gate).
type aggFront struct {
	cache *aggCache
	local map[*abstraction.Node]*nodeAgg
}

func newAggFront(cache *aggCache) *aggFront {
	return &aggFront{cache: cache, local: make(map[*abstraction.Node]*nodeAgg)}
}

func (f *aggFront) of(n *abstraction.Node) *nodeAgg {
	if ag, ok := f.local[n]; ok {
		return ag
	}
	ag := f.cache.shared(n)
	f.local[n] = ag
	return ag
}
