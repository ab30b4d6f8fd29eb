package core

import (
	"container/heap"
	"fmt"

	"qporder/internal/abstraction"
	"qporder/internal/dominance"
	"qporder/internal/interval"
	"qporder/internal/measure"
	"qporder/internal/obs"
	"qporder/internal/planspace"
)

// Streamer is the Figure 5 algorithm. It abstracts sources once, then
// maintains a dominance graph across Next calls: links record dominance
// relations; each link's E(p,q) set tracks the plans output since the
// link was created; after outputting a plan d, a link q→q' survives iff
// some concrete plan in q is independent of every plan in E(q,q') ∪ {d}
// (then, by utility-diminishing returns, q still dominates q'). Surviving
// relations are the recycled work that makes Streamer cheaper than iDrips.
//
// Implementation note (semantics-preserving scheduling): instead of the
// paper's all-pairs link creation per loop iteration (Step 2.b), links
// are created (a) in one sweep from the maximum-lower-bound plan w after
// each output and (b) lazily, when a dominated plan surfaces as the most
// promising refinement candidate. Dominance by any nondominated plan is
// subsumed by dominance by w (Lo(w) >= Lo(a) >= Hi(b)), so the dominated
// set is the same; only the time at which a link is recorded differs,
// and a link is always created between two currently nondominated plans,
// exactly as in Step 2.b.
//
// Streamer requires the measure to satisfy utility-diminishing returns.
type Streamer struct {
	ctx     measure.Context
	g       *dominance.Graph
	spaces  []*planspace.Space
	heur    abstraction.Heuristic
	started bool
	dirty   bool // graph state changed since heaps were built
	resets  int

	linksRecycled int // link validity checks that succeeded (link kept)
	linksDropped  int // link validity checks that failed (link removed)

	c     counters
	par   parcfg
	trace traceState

	lo planHeap // max (Lo, key): candidate incumbent w
	hi planHeap // max (Hi, width, key): refinement candidates

	us []interval.Interval // evalAll output buffer, reused across calls
}

// entry is a lazy-heap element with the utility snapshot at push time; an
// entry is stale when the plan left the graph, became dominated, or had
// its utility recomputed.
type entry struct {
	p *planspace.Plan
	u interval.Interval
}

// planHeap is a max-heap of entries; byLo selects the ordering.
type planHeap struct {
	es   []entry
	byLo bool
}

func (h *planHeap) Len() int      { return len(h.es) }
func (h *planHeap) Swap(i, j int) { h.es[i], h.es[j] = h.es[j], h.es[i] }
func (h *planHeap) Less(i, j int) bool {
	a, b := h.es[i], h.es[j]
	if h.byLo {
		return betterPlan(a.u.Lo, a.p, b.u.Lo, b.p)
	}
	if a.u.Hi != b.u.Hi {
		return a.u.Hi > b.u.Hi
	}
	if a.u.Width() != b.u.Width() {
		return a.u.Width() > b.u.Width()
	}
	return planspace.KeyLess(a.p, b.p)
}
func (h *planHeap) Push(x interface{}) { h.es = append(h.es, x.(entry)) }
func (h *planHeap) Pop() interface{} {
	old := h.es
	n := len(old)
	x := old[n-1]
	h.es = old[:n-1]
	return x
}

// NewStreamer builds the orderer. It returns an error if the measure does
// not satisfy utility-diminishing returns (recycled dominance links would
// be unsound, e.g. for the caching cost measures).
func NewStreamer(spaces []*planspace.Space, m measure.Measure, heur abstraction.Heuristic) (*Streamer, error) {
	if !m.DiminishingReturns() {
		return nil, fmt.Errorf("core: Streamer requires utility-diminishing returns, %s lacks it", m.Name())
	}
	return &Streamer{
		ctx:    m.NewContext(),
		g:      dominance.New(),
		spaces: append([]*planspace.Space(nil), spaces...),
		heur:   heur,
		lo:     planHeap{byLo: true},
		dirty:  true,
	}, nil
}

// Context implements Orderer.
func (s *Streamer) Context() measure.Context { return s.ctx }

// Instrument implements Instrumented.
func (s *Streamer) Instrument(reg *obs.Registry) {
	s.c = newCounters(reg, "streamer")
	s.c.prov = s.trace.provPtr()
	bindContext(s.ctx, reg, "streamer")
	s.par.bind(reg)
}

// SetTrace implements Traced.
func (s *Streamer) SetTrace(tr *obs.Trace) {
	s.trace.set(tr, s.ctx)
	s.c.prov = s.trace.provPtr()
}

// Parallelism implements Parallel: utility recomputation after an output,
// refinement-children evaluation, link validity rechecks, and the
// invalidation sweep all fan out to n workers. Verdicts apply in the
// sequential order, so the dominance graph — and the output sequence —
// is identical to the sequential run for every n.
func (s *Streamer) Parallelism(n int) { s.par.set(n) }

// Resets returns how many defensive graph resets occurred (expected 0;
// exported for tests and experiment sanity checks).
func (s *Streamer) Resets() int { return s.resets }

// GraphSize returns the current number of plans in the dominance graph.
func (s *Streamer) GraphSize() int { return s.g.Len() }

// LinkStats returns how many dominance-link validity checks kept the link
// (recycled work, the paper's key saving over iDrips) versus removed it.
func (s *Streamer) LinkStats() (recycled, dropped int) {
	return s.linksRecycled, s.linksDropped
}

// fresh reports whether a heap entry still describes a live, nondominated
// plan with an unchanged utility.
func (s *Streamer) fresh(e entry) bool {
	if !s.g.Has(e.p) || s.g.Dominated(e.p) {
		return false
	}
	u, ok := s.g.Utility(e.p)
	return ok && u == e.u
}

// push records a plan with its current utility on both heaps.
func (s *Streamer) push(p *planspace.Plan, u interval.Interval) {
	heap.Push(&s.lo, entry{p, u})
	heap.Push(&s.hi, entry{p, u})
}

// rebuild re-establishes the invariant after an output (or at start):
// every nondominated plan has a current utility, the incumbent sweep
// links w to the plans it dominates (Step 2.b's effect), and the heaps
// reflect the frontier.
func (s *Streamer) rebuild() {
	s.lo.es = s.lo.es[:0]
	s.hi.es = s.hi.es[:0]
	nd := s.g.Nondominated()
	if len(nd) == 0 && s.g.Len() > 0 {
		// Defensive fallback: stale links formed a cycle (not expected; see
		// the acyclicity argument in DESIGN.md). Dropping all links is
		// conservative — links only prune work — so correctness is
		// preserved at the price of recomputation.
		s.resets++
		s.g.ClearLinks()
		s.g.EachPlan(func(p *planspace.Plan) { s.g.Invalidate(p) })
		nd = s.g.Nondominated()
	}
	// Step 2.a: (re)compute utilities of nondominated plans. Stale plans
	// batch through the evaluator; the graph writes stay on this goroutine.
	var stale []*planspace.Plan
	for _, p := range nd {
		if _, ok := s.g.Utility(p); !ok {
			stale = append(stale, p)
		}
	}
	s.us = evalAll(s.ctx, s.par.evaluator(s.ctx, "streamer"), stale, s.us)
	for i, u := range s.us {
		s.g.SetUtility(stale[i], u)
	}
	var w *planspace.Plan
	var uw interval.Interval
	for _, p := range nd {
		u, _ := s.g.Utility(p)
		if w == nil || betterPlan(u.Lo, p, uw.Lo, w) {
			w, uw = p, u
		}
	}
	// Step 2.b sweep from the incumbent.
	for _, p := range nd {
		if p == w {
			continue
		}
		u, _ := s.g.Utility(p)
		dominated := dominatesPlan(uw, u, w, p)
		s.c.domTest(dominated)
		if dominated {
			if !s.g.HasLink(w, p) {
				s.g.AddLink(w, p)
			}
			continue
		}
		s.push(p, u)
	}
	if w != nil {
		s.push(w, uw)
	}
	s.dirty = false
}

// Next implements Orderer, following Figure 5's loop.
func (s *Streamer) Next() (*planspace.Plan, float64, bool) {
	defer s.c.endNext(s.c.startNext())
	if !s.started {
		// Step 1: abstract each space once; its root is the top plan.
		s.started = true
		for _, sp := range s.spaces {
			s.g.Add(sp.Root(s.heur))
		}
	}
	for s.g.Len() > 0 {
		if s.dirty {
			s.rebuild()
			continue
		}
		// Incumbent w: valid top of the Lo heap.
		var w *planspace.Plan
		var uw interval.Interval
		for s.lo.Len() > 0 {
			top := s.lo.es[0]
			if !s.fresh(top) {
				heap.Pop(&s.lo)
				continue
			}
			w, uw = top.p, top.u
			break
		}
		if w == nil {
			s.dirty = true
			continue
		}
		// Most promising candidate: valid top of the Hi heap.
		var t *planspace.Plan
		var ut interval.Interval
		for s.hi.Len() > 0 {
			top := s.hi.es[0]
			if !s.fresh(top) {
				heap.Pop(&s.hi)
				continue
			}
			t, ut = top.p, top.u
			break
		}
		if t == nil {
			s.dirty = true
			continue
		}
		// Lazily record dominance discovered at the heap top (Step 2.b).
		if t != w {
			dominated := dominatesPlan(uw, ut, w, t)
			s.c.domTest(dominated)
			if dominated {
				heap.Pop(&s.hi)
				if !s.g.HasLink(w, t) {
					s.g.AddLink(w, t)
				}
				continue
			}
		}
		// Step 2.c: refine the candidate if it is abstract. Children batch
		// through the evaluator; graph and heap writes stay on this
		// goroutine, in child order.
		if !t.Concrete() {
			heap.Pop(&s.hi)
			s.g.Remove(t)
			s.c.refine()
			children := t.Refine()
			for _, ch := range children {
				s.g.Add(ch)
			}
			s.us = evalAll(s.ctx, s.par.evaluator(s.ctx, "streamer"), children, s.us)
			for i, u := range s.us {
				s.g.SetUtility(children[i], u)
				s.push(children[i], u)
			}
			continue
		}
		// t is concrete with the maximum upper bound, so no nondominated
		// abstract plan remains (any such plan would have Hi > Lo(t) =
		// Hi(t), contradicting t's maximality). Step 2.d: output.
		d, ud := t, ut
		if betterPlan(uw.Lo, w, ut.Lo, t) {
			d, ud = w, uw
		}
		s.g.Remove(d)
		s.ctx.Observe(d)
		// Recheck every remaining link: survive iff a concrete plan in the
		// dominating side is independent of all removed plans so far. The
		// per-link witness searches are independent of one another, so they
		// fan out; verdicts apply in link order on this goroutine.
		links := s.g.Links()
		if ev := s.par.evaluator(s.ctx, "streamer"); ev != nil && ev.Parallel(len(links)) {
			kept := make([]bool, len(links))
			ev.Map(len(links), func(ctx measure.Context, i int) {
				l := links[i]
				// Fresh backing array: workers must not write into l.E's
				// spare capacity while the verdict is still pending.
				ds := append(make([]*planspace.Plan, 0, len(l.E)+1), l.E...)
				kept[i] = ctx.IndependentWitness(l.From, append(ds, d))
			})
			for i, l := range links {
				if kept[i] {
					l.E = append(l.E, d)
					s.linksRecycled++
				} else {
					s.g.RemoveLink(l)
					s.linksDropped++
				}
			}
		} else {
			for _, l := range links {
				if s.ctx.IndependentWitness(l.From, append(l.E, d)) {
					l.E = append(l.E, d)
					s.linksRecycled++
				} else {
					s.g.RemoveLink(l)
					s.linksDropped++
				}
			}
		}
		// Invalidate utilities of plans not independent of d. Each verdict
		// reads only (plan, d, executed prefix), so the tests fan out; the
		// graph writes apply afterwards on this goroutine.
		if ev := s.par.evaluator(s.ctx, "streamer"); ev != nil && ev.Parallel(s.g.Len()) {
			plans := s.g.Plans()
			invalid := make([]bool, len(plans))
			ev.Map(len(plans), func(ctx measure.Context, i int) {
				invalid[i] = !ctx.Independent(plans[i], d)
			})
			for i, p := range plans {
				if invalid[i] {
					s.g.Invalidate(p)
				}
			}
		} else {
			s.g.EachPlan(func(e *planspace.Plan) {
				if !s.ctx.Independent(e, d) {
					s.g.Invalidate(e)
				}
			})
		}
		s.dirty = true
		s.trace.emitPlan("streamer", d, ud.Lo, s.ctx.Evals())
		return d, ud.Lo, true
	}
	s.c.exhausted.Inc()
	return nil, 0, false
}

var _ Orderer = (*Streamer)(nil)
var _ Parallel = (*Streamer)(nil)
var _ Traced = (*Streamer)(nil)
