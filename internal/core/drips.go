package core

import (
	"qporder/internal/interval"
	"qporder/internal/measure"
	"qporder/internal/parallel"
	"qporder/internal/planspace"
)

// dripsCand is one candidate plan in a Drips run. Concreteness is
// cached at construction: the refinement loop re-checks every frontier
// candidate each iteration, and Plan.Concrete walks all nodes per call.
type dripsCand struct {
	p    *planspace.Plan
	u    interval.Interval
	conc bool
}

// parDomThreshold is the candidate-frontier size from which the
// dominance sweep fans out: below it the sweep is pure float compares
// and fan-out costs more than it saves.
const parDomThreshold = 256

// DripsBest runs the Drips refinement loop (Section 5.1) over the given
// abstract root plans and returns the best concrete plan with its
// utility, conditioned on ctx's executed prefix. Candidates are evaluated
// as intervals; dominated candidates (Lo(p) >= Hi(q)) are eliminated
// without evaluating their concrete plans; the most promising abstract
// candidate (highest upper bound) is refined each round.
//
// roots must be non-empty and collectively non-empty; the winner always
// exists.
func DripsBest(ctx measure.Context, roots []*planspace.Plan) (*planspace.Plan, float64) {
	return dripsBest(ctx, roots, counters{}, nil)
}

// dripsBest is DripsBest with work counters (disabled when c is zero)
// and an optional parallel evaluator (nil = sequential). Candidate
// evaluation fans out to the evaluator's pool; results merge back in
// candidate order, so the refinement trajectory — and hence the winner —
// is identical to the sequential run.
//
// Candidates are held by value and one evaluation buffer serves every
// round: besides the candidate slice's growth, a run allocates only the
// plans refinement creates.
func dripsBest(ctx measure.Context, roots []*planspace.Plan, c counters,
	ev *parallel.Evaluator) (*planspace.Plan, float64) {
	cands := make([]dripsCand, 0, len(roots))
	us := evalAll(ctx, ev, roots, nil)
	for i, u := range us {
		cands = append(cands, dripsCand{p: roots[i], u: u, conc: roots[i].Concrete()})
	}
	for {
		cands = pruneDominated(cands, c, ev)
		// Termination: a single concrete candidate, or only concrete
		// candidates left (ties).
		allConcrete := true
		for i := range cands {
			if !cands[i].conc {
				allConcrete = false
				break
			}
		}
		if allConcrete {
			best := 0
			for i := 1; i < len(cands); i++ {
				if betterPlan(cands[i].u.Lo, cands[i].p, cands[best].u.Lo, cands[best].p) {
					best = i
				}
			}
			return cands[best].p, cands[best].u.Lo
		}
		// Refine the most promising abstract candidate.
		ri := -1
		for i := range cands {
			if cands[i].conc {
				continue
			}
			if ri < 0 || refineBefore(&cands[i], &cands[ri]) {
				ri = i
			}
		}
		target := cands[ri].p
		cands = append(cands[:ri], cands[ri+1:]...)
		c.refine()
		children := target.Refine()
		us = evalAll(ctx, ev, children, us)
		for i, u := range us {
			cands = append(cands, dripsCand{p: children[i], u: u, conc: children[i].Concrete()})
		}
	}
}

// refineBefore orders refinement priority: higher upper bound first, then
// wider interval, then key (deterministic).
func refineBefore(a, b *dripsCand) bool {
	if a.u.Hi != b.u.Hi {
		return a.u.Hi > b.u.Hi
	}
	if a.u.Width() != b.u.Width() {
		return a.u.Width() > b.u.Width()
	}
	return planspace.KeyLess(a.p, b.p)
}

// pruneDominated removes every candidate dominated by the candidate with
// the maximum lower bound (the only candidate that can dominate others en
// masse; pairwise checks against non-maximal candidates are subsumed).
// Large frontiers fan the per-candidate dominance tests out to the
// evaluator's pool; the keep-mask is index-addressed, so the surviving
// candidates — and their order — match the sequential sweep exactly.
func pruneDominated(cands []dripsCand, cnt counters, ev *parallel.Evaluator) []dripsCand {
	if len(cands) <= 1 {
		return cands
	}
	// The incumbent has the maximum lower bound, ties going to the
	// smaller key; keys are compared only among candidates tied at the
	// maximum.
	wi := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].u.Lo > cands[wi].u.Lo {
			wi = i
		}
	}
	for i := wi + 1; i < len(cands); i++ {
		if cands[i].u.Lo == cands[wi].u.Lo && planspace.KeyLess(cands[i].p, cands[wi].p) {
			wi = i
		}
	}
	if ev != nil && len(cands) >= parDomThreshold && ev.Parallel(len(cands)) {
		return pruneParallel(cands, wi, cnt, ev)
	}
	// Survivors are compacted in place; a candidate is copied only once
	// an earlier one has been dropped.
	w := cands[wi]
	n := 0
	for i := range cands {
		c := &cands[i]
		if i != wi {
			dominated := dominatesPlan(w.u, c.u, w.p, c.p)
			cnt.domTest(dominated)
			if dominated {
				continue
			}
		}
		if n != i {
			cands[n] = *c
		}
		n++
	}
	return cands[:n]
}

// pruneParallel is pruneDominated's sweep against cands[wi] fanned out
// to the evaluator's pool. It is a function of its own so that only a
// parallel sweep pays for the closure and the counters it captures.
func pruneParallel(cands []dripsCand, wi int, cnt counters, ev *parallel.Evaluator) []dripsCand {
	w := cands[wi]
	keep := make([]bool, len(cands))
	ev.Pool().Run(len(cands), func(_, i int) {
		if i == wi {
			keep[i] = true
			return
		}
		c := &cands[i]
		dominated := dominatesPlan(w.u, c.u, w.p, c.p)
		cnt.domTest(dominated)
		keep[i] = !dominated
	})
	n := 0
	for i := range cands {
		if keep[i] {
			cands[n] = cands[i]
			n++
		}
	}
	return cands[:n]
}
