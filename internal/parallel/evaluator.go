package parallel

import (
	"qporder/internal/interval"
	"qporder/internal/measure"
	"qporder/internal/planspace"
)

// DefaultMinBatch is the batch size below which Map runs inline on the
// main context: fan-out overhead (fork sync, scheduling) outweighs the
// win on tiny batches, and the results are identical either way.
const DefaultMinBatch = 4

// Evaluator runs measure-context operations (Evaluate, Independent,
// IndependentWitness) for index-addressed batches across a Pool.
//
// Each worker slot owns a fork of the main context (measure.Fork); before
// every parallel batch the forks catch up to the main context's executed
// prefix, so a fork returns exactly what the main context would — those
// operations are pure functions of (measure, executed prefix, plan).
// After every batch the forks' work counters are harvested into the main
// context (measure.CountAdder), so Evals() and IndepStats() report the
// same totals as a sequential run: the obs counters stay an honest
// apples-to-apples work measure across parallelism settings.
//
// An Evaluator belongs to one orderer goroutine: Map may be called only
// from one goroutine at a time, and the main context must not be touched
// while a batch is in flight (Map blocks until the batch completes, so
// single-goroutine callers get this for free).
type Evaluator struct {
	pool *Pool
	main measure.Context

	// MinBatch overrides DefaultMinBatch when positive.
	MinBatch int

	forks  []measure.Context
	synced []int // executed-prefix length each fork has observed
	evals  []int // per-fork counter values at last harvest
	checks []int
	hits   []int
}

// NewEvaluator returns an evaluator over the given pool and main
// context. Forks are created lazily on the first parallel batch.
func NewEvaluator(pool *Pool, main measure.Context) *Evaluator {
	return &Evaluator{pool: pool, main: main}
}

// Pool returns the underlying pool.
func (e *Evaluator) Pool() *Pool { return e.pool }

// Parallel reports whether a batch of n items fans out (rather than
// running inline on the main context).
func (e *Evaluator) Parallel(n int) bool {
	min := e.MinBatch
	if min <= 0 {
		min = DefaultMinBatch
	}
	return e.pool.Workers() > 1 && n >= min
}

// Map executes fn(ctx, i) for every i in [0, n). Small batches run
// inline with the main context; larger ones fan out, each worker calling
// fn with its private fork. fn must only read the context and write to
// caller-owned slot i.
func (e *Evaluator) Map(n int, fn func(ctx measure.Context, i int)) {
	if !e.Parallel(n) {
		for i := 0; i < n; i++ {
			fn(e.main, i)
		}
		return
	}
	e.sync()
	e.pool.Run(n, func(w, i int) { fn(e.forks[w], i) })
	e.harvest()
}

// Eval evaluates every plan, returning the intervals in input order.
func (e *Evaluator) Eval(plans []*planspace.Plan) []interval.Interval {
	out := make([]interval.Interval, len(plans))
	e.EvalInto(plans, out)
	return out
}

// EvalInto evaluates every plan into out[i], routing each contiguous
// chunk through measure.EvaluateAll. Small batches run inline on the
// main context; larger ones split into one contiguous range per worker,
// each fork evaluating its range. Per-plan results depend only on
// (measure, executed prefix, plan) — never on chunk grouping — so the
// output is identical at every parallelism level, and harvest() keeps
// the counters identical too.
func (e *Evaluator) EvalInto(plans []*planspace.Plan, out []interval.Interval) {
	n := len(plans)
	if len(out) < n {
		panic("parallel: EvalInto output slice too short")
	}
	if !e.Parallel(n) {
		measure.EvaluateAll(e.main, plans, out)
		return
	}
	e.sync()
	ranges := Ranges(n, e.pool.Workers())
	e.pool.Run(len(ranges), func(w, i int) {
		r := ranges[i]
		measure.EvaluateAll(e.forks[w], plans[r[0]:r[1]], out[r[0]:r[1]])
	})
	e.harvest()
}

// IndependentInto fills indep[i] = Independent(plans[i], d) for every i
// with alive[i] (alive == nil selects all), routing each contiguous
// chunk through measure.IndependentAll so bulk-capable contexts sweep
// with memoized delta rows. Small batches run inline; larger ones split
// into one range per worker. Verdicts depend only on (measure, plan, d),
// so the output is identical at every parallelism level, and harvest()
// keeps IndepStats identical too.
func (e *Evaluator) IndependentInto(plans []*planspace.Plan, d *planspace.Plan, alive, indep []bool) {
	n := len(plans)
	if !e.Parallel(n) {
		measure.IndependentAll(e.main, plans, d, alive, indep)
		return
	}
	e.sync()
	ranges := Ranges(n, e.pool.Workers())
	e.pool.Run(len(ranges), func(w, i int) {
		r := ranges[i]
		var al []bool
		if alive != nil {
			al = alive[r[0]:r[1]]
		}
		measure.IndependentAll(e.forks[w], plans[r[0]:r[1]], d, al, indep[r[0]:r[1]])
	})
	e.harvest()
}

// sync creates missing forks and replays the main context's executed
// suffix onto each fork.
func (e *Evaluator) sync() {
	w := e.pool.Workers()
	for len(e.forks) < w {
		f := measure.Fork(e.main)
		e.forks = append(e.forks, f)
		e.synced = append(e.synced, len(e.main.Executed()))
		e.evals = append(e.evals, f.Evals())
		ck, ht := f.IndepStats()
		e.checks = append(e.checks, ck)
		e.hits = append(e.hits, ht)
	}
	for i, f := range e.forks {
		e.synced[i] = measure.Catchup(f, e.main, e.synced[i])
	}
}

// harvest merges the forks' counter deltas into the main context.
func (e *Evaluator) harvest() {
	adder, ok := e.main.(measure.CountAdder)
	var dE, dC, dH int
	for i, f := range e.forks {
		ev := f.Evals()
		ck, ht := f.IndepStats()
		dE += ev - e.evals[i]
		dC += ck - e.checks[i]
		dH += ht - e.hits[i]
		e.evals[i], e.checks[i], e.hits[i] = ev, ck, ht
	}
	if ok && (dE != 0 || dC != 0 || dH != 0) {
		adder.AddCounts(dE, dC, dH)
	}
}
