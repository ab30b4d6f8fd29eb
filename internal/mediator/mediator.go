// Package mediator assembles the full data-integration system of the
// paper's introduction: reformulate the user query, order the candidate
// plans by utility, filter them through the soundness test, execute them
// best-first, and stop "as soon as the user has found a satisfactory
// answer, or when allotted resource limits have been reached"
// (Section 1). Ordering can be overlapped with execution — the rest of
// the plans are found while execution has begun — via the Parallelism
// option.
package mediator

import (
	"context"
	"fmt"
	"sync"
	"time"

	"qporder/internal/abstraction"
	"qporder/internal/core"
	"qporder/internal/execsim"
	"qporder/internal/lav"
	"qporder/internal/measure"
	"qporder/internal/obs"
	"qporder/internal/physopt"
	"qporder/internal/planspace"
	"qporder/internal/reformulate"
	"qporder/internal/schema"
)

// Reformulator selects the query-reformulation method.
type Reformulator string

// The supported reformulators.
const (
	// Buckets is the bucket algorithm (default).
	Buckets Reformulator = "buckets"
	// InverseRules uses the inverse-rule construction of Section 7.
	InverseRules Reformulator = "inverse"
	// MiniCon uses generalized buckets; plans are sound by construction.
	MiniCon Reformulator = "minicon"
)

// Algorithm selects the ordering algorithm.
type Algorithm string

// The supported ordering algorithms.
const (
	// Auto picks the best applicable algorithm for the measure:
	// Greedy for fully monotonic measures, Streamer under diminishing
	// returns, iDrips otherwise.
	Auto       Algorithm = "auto"
	Greedy     Algorithm = "greedy"
	IDrips     Algorithm = "idrips"
	Streamer   Algorithm = "streamer"
	PI         Algorithm = "pi"
	Exhaustive Algorithm = "exhaustive"
)

// Config assembles a mediator.
type Config struct {
	// Catalog registers the sources (descriptions required).
	Catalog *lav.Catalog
	// Query is the user query over the mediated schema.
	Query *schema.Query
	// Measure builds the utility measure over the derived entry catalog
	// the ordering algorithms see. Required.
	Measure func(entries *lav.Catalog) measure.Measure
	// Algorithm defaults to Auto.
	Algorithm Algorithm
	// Heuristic groups similar sources for the abstraction-based
	// algorithms; defaults to ByAccessCost over the entry catalog.
	Heuristic abstraction.Heuristic
	// Reformulator defaults to Buckets.
	Reformulator Reformulator
	// Physical runs each plan through the physical optimizer before
	// execution; PhysN is the optimizer's selectivity denominator
	// (default 50000).
	Physical bool
	PhysN    float64
	// Parallelism > 1 spreads the orderer's internal work — utility
	// evaluation and dominance testing — across that many workers
	// (core.SetParallelism; deterministic, so the plan sequence is
	// byte-identical to the sequential run) and switches Run to the
	// pipelined mode: a producer goroutine orders and soundness-checks
	// plans into a bounded queue while the consumer executes, so plan i
	// executes while plan i+1 is ordered. 0 or 1 keeps the sequential
	// behavior.
	Parallelism int
	// Adaptive re-orders the remaining plans when the calibration the
	// engine records into names a drifted source (the execution-level
	// adaptation of Section 7's related work, fed back into
	// reformulation-level ordering). Each newly drifted source's Tuples
	// and FailureProb are replaced by their observed values. The
	// calibration is Calib; when Calib is nil, New creates a private one
	// that trips on a single unbound access off by more than 2x. Run
	// binds it to the engine.
	Adaptive bool
	// ShardCount > 1 restricts ordering to one slice of the plan space:
	// the plans whose deterministic enumeration position is congruent to
	// ShardIndex mod ShardCount (core.NewPISharded). Only the PI
	// algorithm supports sharding, and only over measures with
	// prefix-independent utilities (measure.IsPrefixIndependent) — the
	// combination under which per-shard streams merge byte-identically
	// into the unsharded sequence. New rejects anything else. 0 and 1
	// mean the whole space.
	ShardIndex int
	ShardCount int
	// Prepared, when non-nil, supplies a prebuilt reformulation (see
	// Prepare): New skips the reformulation phase and shares the prepared
	// plan space, which is how the serving layer's session cache reuses
	// the expensive prefix across identical queries. Catalog, Query, and
	// Reformulator are taken from the Prepared value when unset.
	Prepared *Prepared
	// OnPlan, when non-nil, is invoked synchronously from Run after each
	// plan finishes executing, with the plan, its utility, and the fresh
	// answers it contributed — the streaming hook the serving layer uses
	// to push results to clients as they are produced.
	OnPlan func(PlanEvent)
	// Obs, when non-nil, receives the orderer's per-algorithm work
	// counters and the run-level gauges and counters. Nil disables
	// instrumentation at zero cost. Phase spans (mediator/run, order,
	// soundness, execute, reorder) come from the request trace a Run's
	// context carries (obs.WithTrace); a trace bound to a registry folds
	// them into its span aggregates.
	Obs *obs.Registry
	// Calib, when non-nil, accumulates estimator-calibration series: the
	// engine pairs each unconstrained source access's Tuples estimate
	// with the observed result size, and Run pairs each executed plan's
	// predicted utility with its realized value (fresh answers for
	// coverage-family measures, accrued cost for cost-family ones — see
	// obs.PairPlanEstimate). Its drift verdict drives Adaptive. Nil
	// disables calibration at zero cost.
	Calib *obs.Calibration
}

// adaptiveCalib configures the calibration New creates for an Adaptive
// system without one: an unbound access returns the source's exact live
// cardinality, so a single sample off by more than 2x is drift.
var adaptiveCalib = obs.CalibConfig{DriftFactor: 2, MinSamples: 1}

// Budget bounds a Run. Zero fields mean "unlimited".
type Budget struct {
	// MaxPlans stops after executing this many sound plans.
	MaxPlans int
	// MaxCost stops once the engine's accrued cost reaches this value.
	MaxCost float64
	// MinAnswers stops once this many distinct answers have been found.
	MinAnswers int
}

// StopReason reports why a Run ended.
type StopReason string

// The stop reasons.
const (
	StopExhausted  StopReason = "plans-exhausted"
	StopMaxPlans   StopReason = "max-plans"
	StopMaxCost    StopReason = "max-cost"
	StopMinAnswers StopReason = "min-answers"
	StopCanceled   StopReason = "canceled"
)

// PlanEvent describes one executed plan, delivered to Config.OnPlan while
// a Run is in progress. Cancellation and budget checks happen after the
// callback returns, so every executed plan produces exactly one event.
type PlanEvent struct {
	// Index is the 1-based position of the plan within this Run.
	Index int
	// Plan is the executed plan query.
	Plan *schema.Query
	// Key is the plan's canonical planspace key — the tie-break the
	// orderers use after utility, and the handle a cross-process gather
	// needs to merge shard streams in exactly the single-process order.
	Key string
	// Utility is the plan's utility at selection time.
	Utility float64
	// NewAnswers holds the answers this plan contributed that were not
	// already in the answer set. The slice aliases the answer set's
	// backing array; callers must not mutate it.
	NewAnswers []schema.Atom
	// TotalAnswers is the distinct-answer count after this plan.
	TotalAnswers int
	// Cost is the engine's accrued cost after this plan.
	Cost float64
}

// Result summarizes a Run.
type Result struct {
	// Answers holds the accumulated distinct answers.
	Answers *execsim.AnswerSet
	// Executed lists the sound plans executed, in order.
	Executed []*schema.Query
	// Utilities holds each executed plan's utility at selection time.
	Utilities []float64
	// NewAnswers holds, per executed plan, how many answers were new.
	NewAnswers []int
	// Evals is the number of utility evaluations the orderer performed.
	Evals int
	// Cost is the engine's accrued execution cost.
	Cost float64
	// Reorders counts adaptive re-orderings performed.
	Reorders int
	// Stopped reports why the run ended.
	Stopped StopReason
}

// System is a configured mediator for one query. Run may be called
// repeatedly with fresh budgets; ordering continues where it stopped.
type System struct {
	cfg      Config
	orderer  core.Orderer
	src      planSource
	algo     Algorithm // resolved (Auto expanded)
	heur     abstraction.Heuristic
	measName string // the measure's Name(), keying calibration plan series

	next  func() sound
	drain func()
	// stash holds plans the pipelined mode pulled from the orderer ahead
	// of a budget stop. The orderer has already conditioned on them, so
	// they must execute before anything newly ordered; drain parks them
	// here and the next Run serves them first.
	stash []sound

	// runMu serializes Run calls: the exhaustion latch, the pipeline
	// fields (next/drain/stash), and the adaptive state are single-writer.
	// Concurrent Run calls on one System are legal and queue up.
	runMu sync.Mutex

	// Adaptive state. revised holds the statistics adopted for each
	// drifted source so far.
	revised  map[lav.SourceID]lav.Stats
	executed []*planspace.Plan
	reorders int

	// trace is the request trace of the Run in progress (nil outside a
	// traced Run). It is set under runMu before the pipeline producer
	// starts and the producer quiesces before Run returns, so the
	// producer's span writes never race a later Run's rebinding.
	trace *obs.Trace

	// exhausted latches once the ordering pipeline reports no more sound
	// plans, so later Run calls never poke a spent orderer again. Stashed
	// plans may still be pending when it latches.
	exhausted bool
}

// planSource abstracts over the reformulators.
type planSource interface {
	spaces() []*planspace.Space
	planQuery(p *planspace.Plan) (*schema.Query, error)
	isSound(p *planspace.Plan) (bool, error)
	entries() *lav.Catalog
	// entriesWithStats derives a parallel entry catalog with revised
	// statistics (adaptive re-ordering).
	entriesWithStats(statsOf func(orig *lav.Source) lav.Stats) *lav.Catalog
}

type bucketSource struct{ pd *reformulate.PlanDomain }

func (s bucketSource) spaces() []*planspace.Space { return []*planspace.Space{s.pd.Space} }
func (s bucketSource) planQuery(p *planspace.Plan) (*schema.Query, error) {
	return s.pd.PlanQuery(p)
}

// isSound runs after planQuery accepted p (see nextSound), so the plan
// query is not built again.
func (s bucketSource) isSound(p *planspace.Plan) (bool, error) { return s.pd.IsSoundPlanned(p) }
func (s bucketSource) entries() *lav.Catalog                   { return s.pd.Entries }
func (s bucketSource) entriesWithStats(f func(*lav.Source) lav.Stats) *lav.Catalog {
	return s.pd.EntriesWithStats(f)
}

type miniconSource struct{ md *reformulate.MiniConDomain }

func (s miniconSource) spaces() []*planspace.Space { return s.md.Spaces }
func (s miniconSource) planQuery(p *planspace.Plan) (*schema.Query, error) {
	return s.md.PlanQuery(p)
}
func (s miniconSource) isSound(*planspace.Plan) (bool, error) { return true, nil }
func (s miniconSource) entries() *lav.Catalog                 { return s.md.Entries }
func (s miniconSource) entriesWithStats(f func(*lav.Source) lav.Stats) *lav.Catalog {
	return s.md.EntriesWithStats(f)
}

// Prepared is the reusable reformulation prefix for one (query, catalog,
// reformulator) triple: the buckets (or MCDs), the derived entry catalog,
// and the plan space — everything a mediator needs before an orderer is
// built. A Prepared value is immutable and safe to share across
// concurrently running Systems; the serving layer caches them keyed by
// the query's schema.CanonicalKey.
type Prepared struct {
	Query        *schema.Query
	Catalog      *lav.Catalog
	Reformulator Reformulator
	src          planSource
}

// Entries exposes the derived entry catalog of the prepared reformulation.
func (p *Prepared) Entries() *lav.Catalog { return p.src.entries() }

// PlanSpaceSize returns the number of candidate plans across the prepared
// plan spaces.
func (p *Prepared) PlanSpaceSize() int64 {
	var n int64
	for _, sp := range p.src.spaces() {
		n += sp.Size()
	}
	return n
}

// Prepare runs the reformulation phase — the expensive prefix shared by
// every mediator over the same query — and returns it in reusable form.
func Prepare(q *schema.Query, cat *lav.Catalog, r Reformulator) (*Prepared, error) {
	if q == nil || cat == nil {
		return nil, fmt.Errorf("mediator: Prepare needs a query and a catalog")
	}
	var src planSource
	switch r {
	case "", Buckets:
		r = Buckets
		b, err := reformulate.BuildBuckets(q, cat)
		if err != nil {
			return nil, err
		}
		src = bucketSource{reformulate.NewPlanDomain(b, cat)}
	case InverseRules:
		b, err := reformulate.InverseBuckets(q, cat)
		if err != nil {
			return nil, err
		}
		src = bucketSource{reformulate.NewPlanDomain(b, cat)}
	case MiniCon:
		gb, err := reformulate.BuildMCDs(q, cat)
		if err != nil {
			return nil, err
		}
		md, err := reformulate.NewMiniConDomain(gb, cat)
		if err != nil {
			return nil, err
		}
		src = miniconSource{md}
	default:
		return nil, fmt.Errorf("mediator: unknown reformulator %q", r)
	}
	return &Prepared{Query: q, Catalog: cat, Reformulator: r, src: src}, nil
}

// New reformulates the query (or adopts a Prepared reformulation) and
// builds the ordering pipeline.
func New(cfg Config) (*System, error) {
	if cfg.Prepared != nil {
		if cfg.Catalog == nil {
			cfg.Catalog = cfg.Prepared.Catalog
		}
		if cfg.Query == nil {
			cfg.Query = cfg.Prepared.Query
		}
		cfg.Reformulator = cfg.Prepared.Reformulator
	}
	if cfg.Catalog == nil || cfg.Query == nil || cfg.Measure == nil {
		return nil, fmt.Errorf("mediator: Catalog, Query, and Measure are required")
	}
	if cfg.PhysN == 0 {
		cfg.PhysN = 50000
	}

	var src planSource
	if cfg.Prepared != nil {
		src = cfg.Prepared.src
	} else {
		prep, err := Prepare(cfg.Query, cfg.Catalog, cfg.Reformulator)
		if err != nil {
			return nil, err
		}
		src = prep.src
	}

	m := cfg.Measure(src.entries())
	heur := cfg.Heuristic
	if heur == nil {
		heur = abstraction.ByAccessCost(src.entries())
	}
	algo := cfg.Algorithm
	if algo == "" || algo == Auto {
		switch {
		case m.FullyMonotonic():
			algo = Greedy
		case m.DiminishingReturns():
			algo = Streamer
		default:
			algo = IDrips
		}
	}
	if cfg.ShardCount > 1 {
		if cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.ShardCount {
			return nil, fmt.Errorf("mediator: shard index %d out of range [0, %d)", cfg.ShardIndex, cfg.ShardCount)
		}
		if algo != PI {
			return nil, fmt.Errorf("mediator: plan-space sharding requires the pi algorithm, not %q", algo)
		}
		if !measure.IsPrefixIndependent(m) {
			return nil, fmt.Errorf("mediator: measure %s has prefix-dependent utilities; sharded streams would not merge back into the unsharded order", m.Name())
		}
		if cfg.Adaptive {
			return nil, fmt.Errorf("mediator: adaptive re-ordering cannot be combined with plan-space sharding")
		}
	}
	s := &System{cfg: cfg, src: src, algo: algo, heur: heur, measName: m.Name()}
	if cfg.Adaptive {
		if s.cfg.Calib == nil {
			s.cfg.Calib = obs.NewCalibration(adaptiveCalib)
		}
		s.revised = make(map[lav.SourceID]lav.Stats)
	}
	o, err := s.buildOrderer(m, src.spaces())
	if err != nil {
		return nil, err
	}
	core.Instrument(o, cfg.Obs)
	core.SetParallelism(o, cfg.Parallelism)
	s.orderer = o
	return s, nil
}

// buildOrderer constructs the resolved algorithm over the given spaces.
func (s *System) buildOrderer(m measure.Measure, spaces []*planspace.Space) (core.Orderer, error) {
	switch s.algo {
	case Greedy:
		return core.NewGreedy(spaces, m)
	case Streamer:
		return core.NewStreamer(spaces, m, s.heur)
	case IDrips:
		return core.NewIDrips(spaces, m, s.heur), nil
	case PI:
		if s.cfg.ShardCount > 1 {
			return core.NewPISharded(spaces, m, s.cfg.ShardIndex, s.cfg.ShardCount), nil
		}
		return core.NewPI(spaces, m), nil
	case Exhaustive:
		return core.NewExhaustive(spaces, m), nil
	default:
		return nil, fmt.Errorf("mediator: unknown algorithm %q", s.algo)
	}
}

// reviseDrifted adds to revised the observed statistics of every source
// of cat that cal reports drifted and revised does not hold yet: Tuples
// becomes the observed mean (at least 1), FailureProb the observed
// failure rate. It reports whether it added any.
func reviseDrifted(cal *obs.Calibration, cat *lav.Catalog, revised map[lav.SourceID]lav.Stats) bool {
	added := false
	for _, name := range cal.Drifted() {
		src, ok := cat.ByName(name)
		if !ok {
			continue
		}
		if _, done := revised[src.ID]; done {
			continue
		}
		mean, failRate, _ := cal.SourceObserved(name)
		st := src.Stats
		st.Tuples = max(mean, 1)
		st.FailureProb = failRate
		revised[src.ID] = st
		added = true
	}
	return added
}

// reorder rebuilds the ordering pipeline over the remaining plans with
// the revised statistics. The executed prefix is replayed into the fresh
// measure context so conditional utilities stay correct.
func (s *System) reorder() error {
	defer s.trace.StartSpan("mediator/reorder").End()
	s.trace.Event("adaptive/reorder", "statistics drift triggered re-ordering")
	entries := s.src.entriesWithStats(func(orig *lav.Source) lav.Stats {
		if st, ok := s.revised[orig.ID]; ok {
			return st
		}
		return orig.Stats
	})
	m := s.cfg.Measure(entries)
	spaces := remainingSpaces(s.src.spaces(), s.executed)
	// A pipelined drain may have latched exhaustion from the old orderer
	// running ahead; the rebuilt one re-derives every unexecuted plan.
	s.exhausted = len(spaces) == 0
	if len(spaces) == 0 {
		s.orderer = exhaustedOrderer{m.NewContext()}
		s.next, s.drain, s.stash = nil, nil, nil
		s.reorders++
		return nil
	}
	o, err := s.buildOrderer(m, spaces)
	if err != nil {
		return err
	}
	core.Instrument(o, s.cfg.Obs)
	core.SetParallelism(o, s.cfg.Parallelism)
	for _, p := range s.executed {
		o.Context().Observe(p)
	}
	// The rebuilt orderer keeps recording provenance onto the same
	// request trace; SetTrace re-syncs its baselines to the fresh
	// context, so the next emitted plan's deltas start at zero.
	core.SetTrace(o, s.trace)
	s.orderer = o
	s.next, s.drain = nil, nil
	// remainingSpaces re-derives every unexecuted plan, including the ones
	// pulled ahead by the pipeline; keeping the stash would emit them twice.
	s.stash = nil
	s.reorders++
	return nil
}

// remainingSpaces removes the executed plans from the initial spaces via
// the plan-space splitting construction, yielding the spaces a rebuilt
// orderer should run over. Executed plans not contained in any remaining
// space are ignored (already split away).
func remainingSpaces(initial []*planspace.Space, executed []*planspace.Plan) []*planspace.Space {
	spaces := append([]*planspace.Space(nil), initial...)
	for _, p := range executed {
		srcs := p.Sources()
		for i, s := range spaces {
			if !s.Contains(srcs) {
				continue
			}
			subs := s.Remove(srcs)
			spaces = append(spaces[:i], spaces[i+1:]...)
			spaces = append(spaces, subs...)
			break
		}
	}
	return spaces
}

// exhaustedOrderer is the empty orderer used when every plan has been
// executed before a re-ordering.
type exhaustedOrderer struct{ ctx measure.Context }

func (e exhaustedOrderer) Next() (*planspace.Plan, float64, bool) { return nil, 0, false }
func (e exhaustedOrderer) Context() measure.Context               { return e.ctx }

// Entries exposes the derived entry catalog (for building coverage
// models and inspecting statistics).
func (s *System) Entries() *lav.Catalog { return s.src.entries() }

// Orderer exposes the underlying orderer for instrumentation.
func (s *System) Orderer() core.Orderer { return s.orderer }

// sound is one ordered, soundness-checked plan ready to execute.
type sound struct {
	plan *planspace.Plan
	pq   *schema.Query
	util float64
	err  error
	ok   bool
	// interrupted marks a pull abandoned because the Run context was
	// canceled; unlike ok=false it must NOT latch the exhaustion flag.
	interrupted bool
}

// nextSound pulls the orderer until a sound plan appears.
func (s *System) nextSound() sound {
	for {
		orderSpan := s.trace.StartSpan("mediator/order")
		p, u, ok := s.orderer.Next()
		orderSpan.End()
		if !ok {
			return sound{}
		}
		pq, err := s.src.planQuery(p)
		if err != nil {
			continue // unsafe: cannot be sound
		}
		soundSpan := s.trace.StartSpan("mediator/soundness")
		isSound, err := s.src.isSound(p)
		soundSpan.End()
		if err != nil {
			return sound{err: err}
		}
		if isSound {
			return sound{plan: p, pq: pq, util: u, ok: true}
		}
		s.cfg.Obs.Counter("mediator.unsound_plans_skipped").Inc()
	}
}

// Run executes the ordered sound plans against the engine until the
// budget stops it. With Parallelism > 1, the next plans are ordered
// concurrently with the current plan's execution. With Adaptive,
// drifted statistics trigger re-ordering of the remaining plans between
// executions.
func (s *System) Run(engine *execsim.Engine, budget Budget) (*Result, error) {
	return s.RunContext(context.Background(), engine, budget)
}

// RunContext is Run bound to a context: cancellation (a client
// disconnect, a request deadline) is observed at plan boundaries — before
// each plan is pulled and executed — and propagates into the pipelined
// producer, which exits promptly and parks its pulled-ahead plans in the
// stash for a later Run. A canceled run returns the partial result with
// Stopped == StopCanceled and a nil error: the answers streamed so far
// are valid, the stop is not a failure.
func (s *System) RunContext(ctx context.Context, engine *execsim.Engine, budget Budget) (*Result, error) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	// Bind the request trace (nil when the context carries none, which
	// detaches any previous binding) so the orderer records per-plan
	// provenance scoped to this request.
	s.trace = obs.TraceFrom(ctx)
	core.SetTrace(s.orderer, s.trace)
	defer s.trace.StartSpan("mediator/run").End()
	res := &Result{Answers: execsim.NewAnswerSet(), Stopped: StopExhausted}
	if s.cfg.Obs != nil {
		engine.Instrument(s.cfg.Obs)
	}
	if s.cfg.Calib != nil {
		engine.SetCalibration(s.cfg.Calib)
	}
	defer func() {
		if s.drain != nil {
			s.drain()
		}
	}()

	runStart := time.Now()
	firstAnswerAt := time.Duration(-1)
	for {
		if ctx.Err() != nil {
			res.Stopped = StopCanceled
			break
		}
		if s.exhausted && len(s.stash) == 0 {
			res.Stopped = StopExhausted
			break
		}
		if s.next == nil {
			s.next, s.drain = s.nextSoundFunc(ctx)
		}
		sp := s.next()
		if sp.err != nil {
			return nil, sp.err
		}
		if sp.interrupted {
			res.Stopped = StopCanceled
			break
		}
		if !sp.ok {
			s.exhausted = true
			res.Stopped = StopExhausted
			break
		}
		costBefore := engine.Cost
		execStart := time.Now()
		execSpan := s.trace.StartSpan("mediator/execute")
		out, err := s.execute(engine, sp.pq)
		execSpan.End()
		execWall := time.Since(execStart)
		if err != nil {
			return nil, err
		}
		before := res.Answers.Len()
		fresh := res.Answers.Add(out)
		s.cfg.Obs.Counter("mediator.plans_executed").Inc()
		s.cfg.Obs.Counter("mediator.answers_new").Add(int64(fresh))
		if fresh > 0 && firstAnswerAt < 0 {
			firstAnswerAt = time.Since(runStart)
			s.cfg.Obs.Gauge("mediator.time_to_first_answer_ns").Set(float64(firstAnswerAt))
		}
		s.executed = append(s.executed, sp.plan)
		res.Executed = append(res.Executed, sp.pq)
		res.Utilities = append(res.Utilities, sp.util)
		res.NewAnswers = append(res.NewAnswers, fresh)
		res.Cost = engine.Cost
		s.trace.AnnotatePlan(sp.plan.Key(), fresh, int64(execWall))
		if c := s.cfg.Calib; c != nil {
			est, act := obs.PairPlanEstimate(sp.util, fresh, engine.Cost-costBefore)
			c.ObservePlan(s.measName+"/"+string(s.algo), est, act, fresh, engine.Cost-costBefore, execWall)
		}
		if s.cfg.OnPlan != nil {
			s.cfg.OnPlan(PlanEvent{
				Index:        len(res.Executed),
				Plan:         sp.pq,
				Key:          sp.plan.Key(),
				Utility:      sp.util,
				NewAnswers:   res.Answers.Atoms()[before:],
				TotalAnswers: res.Answers.Len(),
				Cost:         engine.Cost,
			})
		}

		if budget.MaxPlans > 0 && len(res.Executed) >= budget.MaxPlans {
			res.Stopped = StopMaxPlans
			break
		}
		if budget.MaxCost > 0 && engine.Cost >= budget.MaxCost {
			res.Stopped = StopMaxCost
			break
		}
		if budget.MinAnswers > 0 && res.Answers.Len() >= budget.MinAnswers {
			res.Stopped = StopMinAnswers
			break
		}
		if s.cfg.Adaptive && reviseDrifted(s.cfg.Calib, s.cfg.Catalog, s.revised) {
			if s.drain != nil {
				s.drain() // quiesce the old pipeline before replacing it
			}
			if err := s.reorder(); err != nil {
				return nil, err
			}
		}
	}
	if s.drain != nil {
		s.drain()
	}
	res.Evals = s.orderer.Context().Evals()
	res.Reorders = s.reorders
	return res, nil
}

// nextSoundFunc returns the plan supplier and a drain function that waits
// for any in-flight ordering work (so the orderer is quiescent before the
// caller reads its instrumentation). With Parallelism > 1 the supplier is
// the pipelined producer, which observes the Run context; the sequential
// supplier ignores it (cancellation is checked in the Run loop).
func (s *System) nextSoundFunc(ctx context.Context) (next func() sound, drain func()) {
	if s.cfg.Parallelism > 1 {
		return s.pipelined(ctx)
	}
	return s.nextSound, func() {}
}

// pipelineDepth is the capacity of the pipelined mode's plan queue: how
// many ordered plans may wait for execution. Plans pulled ahead of a
// budget stop are preserved for the next Run call.
const pipelineDepth = 2

// pipelined builds the Parallelism-mode plan supplier: a producer
// goroutine orders and soundness-checks plans into a bounded queue while
// the caller executes, so plan i executes while plan i+1 is ordered.
// drain cancels the producer, waits for it to quiesce (the orderer and
// its instrumentation are then safe to read), and parks every plan pulled
// ahead in s.stash — the orderer has already conditioned on them, so they
// must execute before anything newly ordered in a later Run.
//
// The producer's context is derived from the Run context, so a request
// cancellation stops ordering work promptly even while the consumer is
// mid-execution, and the consumer's queue read also watches the Run
// context — otherwise a producer that exited on cancellation without
// delivering a terminal marker would strand the consumer on an empty
// queue.
func (s *System) pipelined(runCtx context.Context) (next func() sound, drain func()) {
	if s.exhausted {
		// The orderer is spent; serve the remaining stash without
		// starting a producer that would poke it again.
		next = func() sound {
			if len(s.stash) > 0 {
				v := s.stash[0]
				s.stash = s.stash[1:]
				return v
			}
			return sound{}
		}
		drain = func() { s.next, s.drain = nil, nil }
		return next, drain
	}
	ctx, cancel := context.WithCancel(runCtx)
	ch := make(chan sound, pipelineDepth)
	done := make(chan struct{})
	var leftover *sound // written by the producer before done closes
	go func() {
		defer close(done)
		for {
			select {
			case <-ctx.Done():
				return
			default:
			}
			sp := s.nextSound()
			select {
			case ch <- sp:
				if sp.err != nil || !sp.ok {
					return // terminal marker delivered; stop producing
				}
			case <-ctx.Done():
				leftover = &sp
				return
			}
		}
	}()
	next = func() sound {
		if len(s.stash) > 0 {
			v := s.stash[0]
			s.stash = s.stash[1:]
			return v
		}
		select {
		case v := <-ch:
			return v
		case <-runCtx.Done():
			return sound{interrupted: true}
		}
	}
	drain = func() {
		cancel()
		<-done
		// Park queued plans in order; fold a clean end-of-plans marker
		// into the latch instead of stashing it (a later Run would
		// otherwise rebuild a producer just to rediscover exhaustion).
		park := func(v sound) {
			if v.err == nil && !v.ok {
				s.exhausted = true
				return
			}
			s.stash = append(s.stash, v)
		}
		for {
			select {
			case v := <-ch:
				park(v)
				continue
			default:
			}
			break
		}
		if leftover != nil {
			park(*leftover)
		}
		s.next, s.drain = nil, nil
	}
	return next, drain
}

// execute runs one plan, optionally through the physical optimizer.
func (s *System) execute(engine *execsim.Engine, pq *schema.Query) ([]schema.Atom, error) {
	if !s.cfg.Physical {
		return engine.ExecutePlan(pq)
	}
	pp, err := physopt.Optimize(pq, s.cfg.Catalog, physopt.Params{N: s.cfg.PhysN})
	if err != nil {
		return nil, err
	}
	return engine.ExecutePhysical(pp)
}
