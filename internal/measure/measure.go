// Package measure defines the utility-measure abstraction of Section 2:
// the utility of a plan p is a number u(p | p1..pl, Q) that may depend on
// the plans already executed. Measures evaluate both concrete plans
// (point utilities) and abstract plans (sound utility intervals), expose
// the structural properties the ordering algorithms exploit (full
// monotonicity, plan independence, diminishing returns), and provide the
// sound-but-possibly-incomplete independence oracles of Section 3.
package measure

import (
	"qporder/internal/abstraction"
	"qporder/internal/interval"
	"qporder/internal/lav"
	"qporder/internal/obs"
	"qporder/internal/planspace"
)

// Measure describes a utility measure. Higher utility is better; cost
// measures are negated internally.
type Measure interface {
	// Name identifies the measure in experiment output.
	Name() string

	// FullyMonotonic reports whether the measure is fully monotonic wrt
	// every query subgoal (Section 3), enabling the Greedy algorithm. All
	// fully monotonic measures in this package are also fully
	// plan-independent, so per-bucket orders are unconditional.
	FullyMonotonic() bool

	// DiminishingReturns reports whether a plan's utility can never
	// increase as more plans are executed, enabling Streamer.
	DiminishingReturns() bool

	// BucketOrder returns the given sources sorted best-first for the given
	// subgoal, and ok=true, when the measure is monotonic wrt that subgoal.
	BucketOrder(bucket int, sources []lav.SourceID) (ordered []lav.SourceID, ok bool)

	// NewContext returns a fresh evaluation context with an empty executed
	// prefix.
	NewContext() Context
}

// Context carries the executed-plan prefix and per-run caches. A Context
// belongs to one ordering run and is not safe for concurrent use.
type Context interface {
	// Evaluate returns a utility interval that contains the utility of
	// every concrete plan represented by p, conditioned on the executed
	// prefix. For concrete plans the interval is a point.
	Evaluate(p *planspace.Plan) interval.Interval

	// Observe records that concrete plan d has been executed (appended to
	// the prefix). It panics if d is abstract.
	Observe(d *planspace.Plan)

	// Independent reports, soundly, that executing concrete plan d cannot
	// change the utility of any concrete plan represented by p. A false
	// result carries no information (the oracle may be incomplete).
	Independent(p, d *planspace.Plan) bool

	// IndependentWitness reports, soundly, that some concrete plan
	// represented by p is independent of every concrete plan in ds
	// (Streamer's CheckValidity test). ds must be concrete.
	IndependentWitness(p *planspace.Plan, ds []*planspace.Plan) bool

	// Evals returns the number of Evaluate calls performed so far — the
	// machine-neutral work metric used throughout the paper's Section 6.
	Evals() int

	// IndepStats returns how many independence-oracle queries (Independent
	// calls, including those issued by witness enumeration) were made and
	// how many reported independence.
	IndepStats() (checks, hits int)

	// Bind attaches observability counters under the given name prefix:
	// "<prefix>.evals", "<prefix>.indep_checks", "<prefix>.indep_hits".
	// A nil registry disables the counters (the default state).
	Bind(reg *obs.Registry, prefix string)

	// Executed returns the executed prefix in order. Callers must not
	// mutate the returned slice.
	Executed() []*planspace.Plan

	// Measure returns the measure this context evaluates.
	Measure() Measure
}

// Base provides the bookkeeping shared by all contexts: the executed
// prefix, the evaluation counter, and the independence-oracle counters.
// Embed it and call CountEval from Evaluate, CountIndep from Independent,
// and Record from Observe.
type Base struct {
	executed []*planspace.Plan
	evals    int
	checks   int
	hits     int

	// Optional observability mirrors; nil (no-op) until Bind.
	cEvals  *obs.Counter
	cChecks *obs.Counter
	cHits   *obs.Counter
}

// CountEval increments the evaluation counter.
func (b *Base) CountEval() {
	b.evals++
	b.cEvals.Inc()
}

// Evals returns the evaluation count.
func (b *Base) Evals() int { return b.evals }

// CountIndep records one independence-oracle query and its verdict, and
// returns the verdict so implementations can count in the return path:
//
//	func (c *ctx) Independent(p, d *planspace.Plan) bool {
//	    return c.CountIndep(<oracle>)
//	}
func (b *Base) CountIndep(independent bool) bool {
	b.checks++
	b.cChecks.Inc()
	if independent {
		b.hits++
		b.cHits.Inc()
	}
	return independent
}

// CountIndeps bulk-records independence-oracle queries: a sweep
// answering one query per examined plan records them in a single call,
// keeping IndepStats() — and the bound obs counters — exactly what a
// scalar Independent loop would have recorded.
func (b *Base) CountIndeps(checks, hits int) {
	b.checks += checks
	b.hits += hits
	b.cChecks.Add(int64(checks))
	b.cHits.Add(int64(hits))
}

// IndepStats returns the independence-oracle query and hit counts.
func (b *Base) IndepStats() (checks, hits int) { return b.checks, b.hits }

// AddCounts merges work counts harvested from forked contexts (see Fork)
// back into this context, keeping Evals/IndepStats — and the bound obs
// counters — identical to what a sequential run would have recorded.
func (b *Base) AddCounts(evals, checks, hits int) {
	b.evals += evals
	b.checks += checks
	b.hits += hits
	b.cEvals.Add(int64(evals))
	b.cChecks.Add(int64(checks))
	b.cHits.Add(int64(hits))
}

// PrefixIndependent is the optional marker interface for measures whose
// plan utilities never depend on the executed prefix: Evaluate(p) returns
// the same interval no matter which plans have been Observed. Such
// measures admit cross-process scatter-gather ordering — disjoint slices
// of the plan space can be ordered on independent contexts (even in
// different processes) and merged by (utility, key) into exactly the
// sequence a single context would have produced. Cost measures without
// caching satisfy it; coverage-family measures (whose utilities shrink as
// answers accumulate) do not.
type PrefixIndependent interface {
	// PrefixIndependent reports whether utilities are invariant under
	// Observe for this measure configuration.
	PrefixIndependent() bool
}

// IsPrefixIndependent reports whether m declares prefix-independent
// utilities. Measures that do not implement the marker are conservatively
// treated as prefix-dependent.
func IsPrefixIndependent(m Measure) bool {
	pi, ok := m.(PrefixIndependent)
	return ok && pi.PrefixIndependent()
}

// CountAdder is the optional interface consumed by the parallel
// evaluation layer: contexts embedding Base get it for free. Contexts
// without it still evaluate correctly in parallel, but their work
// counters only reflect calls made on the main context.
type CountAdder interface {
	AddCounts(evals, checks, hits int)
}

// EvaluateAll scores plans[i] into out[i] for every i, one Evaluate
// call per plan; len(out) >= len(plans).
func EvaluateAll(ctx Context, plans []*planspace.Plan, out []interval.Interval) {
	for i, p := range plans {
		out[i] = ctx.Evaluate(p)
	}
}

// BulkIndependent is the optional sweep-independence interface: a
// context that can answer "which of these plans may depend on d"
// faster than one Independent call per plan implements it (e.g. by
// memoizing per-position overlap rows for the fixed d). The verdicts
// and the IndepStats deltas must be exactly what the scalar loop in
// IndependentAll would have produced: one counted query per examined
// plan, one hit per independent verdict.
type BulkIndependent interface {
	// IndependentSweep sets indep[i] = Independent(plans[i], d) for
	// every i with alive[i] (alive == nil means every i); other slots
	// are left untouched.
	IndependentSweep(plans []*planspace.Plan, d *planspace.Plan, alive, indep []bool)
}

// IndependentAll fills indep[i] = ctx.Independent(plans[i], d) for
// every i with alive[i] (alive == nil selects all), through the
// context's bulk path when it implements BulkIndependent and a scalar
// loop otherwise. Verdicts and counters are identical either way.
func IndependentAll(ctx Context, plans []*planspace.Plan, d *planspace.Plan, alive, indep []bool) {
	if bi, ok := ctx.(BulkIndependent); ok {
		bi.IndependentSweep(plans, d, alive, indep)
		return
	}
	for i, p := range plans {
		if alive == nil || alive[i] {
			indep[i] = ctx.Independent(p, d)
		}
	}
}

// Forker is the optional fast-fork interface. A context that can
// duplicate its observed state directly (e.g. by cloning a covered
// bitset) implements it to skip the Observe replay in Fork, dropping
// fork cost from O(answer-set work per executed plan) to O(state copy).
// ForkContext must return a context that behaves exactly like a replayed
// fork: same Executed() prefix, same Evaluate/Independent results, work
// counters starting at zero.
type Forker interface {
	ForkContext() Context
}

// Fork returns an independent context over the same measure with the
// same executed prefix, suitable for use from another goroutine. The
// fork shares the measure's immutable inputs (catalog, coverage model)
// but none of the per-context mutable state, so Evaluate/Independent/
// IndependentWitness on the fork return exactly what the original would:
// those results are pure functions of (measure, executed prefix, plan).
// The fork's work counters start at zero; harvest them with Catchup's
// accounting or merge manually via CountAdder.
//
// Contexts implementing Forker fork by direct state copy; everything
// else forks by replaying Observe over the executed prefix.
func Fork(ctx Context) Context {
	if f, ok := ctx.(Forker); ok {
		return f.ForkContext()
	}
	f := ctx.Measure().NewContext()
	for _, d := range ctx.Executed() {
		f.Observe(d)
	}
	return f
}

// Catchup replays onto fork the suffix of main's executed prefix that
// fork has not yet observed, returning the new synced length. have is
// the number of executed plans fork has already observed.
func Catchup(fork, main Context, have int) int {
	exec := main.Executed()
	for _, d := range exec[have:] {
		fork.Observe(d)
	}
	return len(exec)
}

// Bind attaches observability counters; a nil registry yields nil (no-op)
// counters, keeping the disabled path allocation-free.
func (b *Base) Bind(reg *obs.Registry, prefix string) {
	if reg == nil {
		b.cEvals, b.cChecks, b.cHits = nil, nil, nil
		return
	}
	b.cEvals = reg.Counter(prefix + ".evals")
	b.cChecks = reg.Counter(prefix + ".indep_checks")
	b.cHits = reg.Counter(prefix + ".indep_hits")
}

// SeedExecuted initializes the executed prefix from an existing one,
// copying the slice so the seeded context and its source never alias.
// It is intended for Forker implementations; the work counters are left
// untouched (zero for a fresh Base).
func (b *Base) SeedExecuted(executed []*planspace.Plan) {
	b.executed = append([]*planspace.Plan(nil), executed...)
}

// Record appends d to the executed prefix, panicking on abstract plans.
func (b *Base) Record(d *planspace.Plan) {
	if !d.Concrete() {
		panic("measure: Observe of abstract plan " + d.Key())
	}
	b.executed = append(b.executed, d)
}

// Executed returns the executed prefix.
func (b *Base) Executed() []*planspace.Plan { return b.executed }

// WitnessCap bounds the generic concrete-witness enumeration below.
const WitnessCap = 512

// EnumerateWitness is a generic, sound IndependentWitness fallback: it
// enumerates up to WitnessCap concrete plans represented by p and tests
// each against every plan in ds using indep (a concrete-concrete
// independence oracle). It returns false when the cap is exceeded without
// finding a witness, which is sound.
func EnumerateWitness(p *planspace.Plan, ds []*planspace.Plan,
	indep func(a, b *planspace.Plan) bool) bool {
	if len(ds) == 0 {
		return true
	}
	tried := 0

	// Depth-first enumeration of member combinations via a mixed-radix
	// counter over node members.
	nodes := p.Nodes
	choice := make([]int, len(nodes))
	for {
		if tried >= WitnessCap {
			return false
		}
		tried++
		cand := planAt(p, choice)
		ok := true
		for _, d := range ds {
			if !indep(cand, d) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
		// advance mixed-radix counter
		i := len(choice) - 1
		for i >= 0 {
			choice[i]++
			if choice[i] < nodes[i].Size() {
				break
			}
			choice[i] = 0
			i--
		}
		if i < 0 {
			return false
		}
	}
}

// planAt materializes the concrete plan selecting member choice[i] of each
// node of p. Fresh leaf nodes are fine here: witness candidates are tested
// for independence, never evaluated, so node-identity caches are unused.
func planAt(p *planspace.Plan, choice []int) *planspace.Plan {
	nodes := make([]*abstraction.Node, len(p.Nodes))
	for i, n := range p.Nodes {
		if n.IsLeaf() {
			nodes[i] = n
			continue
		}
		nodes[i] = &abstraction.Node{Bucket: n.Bucket, Sources: []lav.SourceID{n.Sources[choice[i]]}}
	}
	return planspace.New(nodes...)
}
