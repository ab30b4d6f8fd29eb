package core

import (
	"qporder/internal/interval"
	"qporder/internal/measure"
	"qporder/internal/obs"
	"qporder/internal/parallel"
	"qporder/internal/planspace"
)

// Parallel is implemented by orderers whose internal work — utility
// evaluation and dominance testing — can fan out to a bounded worker
// pool. Setting n <= 1 restores the sequential path (the default).
//
// The parallel path is deterministic: candidates fan out to workers and
// merge back in the canonical order, so for any n the orderer emits the
// exact plan sequence, utilities, and work counts of the sequential run
// (plan independence, Property 3 of the paper, is what licenses scoring
// candidates concurrently). Parallelism may be called between Next
// calls; calling it concurrently with Next is not safe.
type Parallel interface {
	Parallelism(n int)
}

// SetParallelism applies the worker-count knob when o supports it; other
// orderers (and n <= 0) are a no-op.
func SetParallelism(o Orderer, n int) {
	if p, ok := o.(Parallel); ok && n > 0 {
		p.Parallelism(n)
	}
}

// parcfg is the per-orderer parallelism state: the requested worker
// count and the lazily built evaluator. The zero value is the sequential
// configuration.
type parcfg struct {
	workers int
	reg     *obs.Registry
	ev      *parallel.Evaluator
}

// set records the worker count and drops any existing evaluator so it is
// rebuilt (re-forked from the current context) on next use.
func (p *parcfg) set(n int) {
	if n < 1 {
		n = 1
	}
	p.workers = n
	p.ev = nil
}

// bind records the registry for pool instrumentation; like set, it
// forces an evaluator rebuild so gauges attach to the live pool.
func (p *parcfg) bind(reg *obs.Registry) {
	p.reg = reg
	p.ev = nil
}

// evaluator returns the evaluator for the given main context, or nil in
// the sequential configuration.
func (p *parcfg) evaluator(ctx measure.Context, algo string) *parallel.Evaluator {
	if p.workers <= 1 {
		return nil
	}
	if p.ev == nil {
		pool := parallel.New(p.workers)
		pool.Bind(p.reg, "parallel."+algo)
		p.ev = parallel.NewEvaluator(pool, ctx)
	}
	return p.ev
}

// evalAll evaluates every plan through the evaluator when one is
// configured, via measure.EvaluateAll on ctx otherwise. Results are in
// input order, written into buf's backing array when it is large
// enough (pass nil for a fresh slice).
func evalAll(ctx measure.Context, ev *parallel.Evaluator, plans []*planspace.Plan, buf []interval.Interval) []interval.Interval {
	out := buf[:0]
	if cap(out) < len(plans) {
		out = make([]interval.Interval, len(plans))
	}
	out = out[:len(plans)]
	if ev == nil {
		measure.EvaluateAll(ctx, plans, out)
	} else {
		ev.EvalInto(plans, out)
	}
	return out
}
