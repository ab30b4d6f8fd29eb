package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"qporder/internal/abstraction"
	"qporder/internal/core"
	"qporder/internal/costmodel"
	"qporder/internal/execsim"
	"qporder/internal/lav"
	"qporder/internal/measure"
	"qporder/internal/mediator"
	"qporder/internal/obs"
	"qporder/internal/physopt"
	"qporder/internal/planspace"
	"qporder/internal/reformulate"
	"qporder/internal/schema"
	"qporder/internal/workload"
)

// The mediate workload runs whole mediator sessions — reformulate,
// order, soundness-check and execute mediateK plans — over generated LAV
// catalogs and simulated worlds. Rounds cycle through mediateWorlds
// (catalog, world, source contents) triples; the kinds of a round share
// one.
const (
	mediateWorlds = 256
	mediateBucket = 12
	mediateK      = 5
	// World shape: tuples per mediated relation and distinct constants
	// per attribute.
	mediateTuples   = 60
	mediateConstant = 15
	// mediateCompleteness is the share of its view's tuples a source
	// holds.
	mediateCompleteness = 0.6
	// mediatePhysN is the physical optimizer's selectivity denominator,
	// the mediator's default.
	mediatePhysN = 50000
)

type mediateKind struct {
	name     string
	measure  func(entries *lav.Catalog) measure.Measure
	algo     mediator.Algorithm
	caching  bool // caching engine with simulated source failures
	physical bool
	par      int
}

func chainMeasure(e *lav.Catalog) measure.Measure {
	return costmodel.NewChainCost(e, costmodel.Params{N: workloadN})
}

// workloadN is the generated domains' selectivity denominator.
const workloadN = 50000

var mediateKinds = []mediateKind{
	{name: "chain/streamer", measure: chainMeasure, algo: mediator.Streamer},
	{name: "chain-fail-caching/idrips", measure: func(e *lav.Catalog) measure.Measure {
		return costmodel.NewChainCost(e, costmodel.Params{N: workloadN, Failure: true, Caching: true})
	}, algo: mediator.IDrips, caching: true},
	{name: "linear/greedy/physical", measure: func(e *lav.Catalog) measure.Measure {
		return costmodel.NewLinearCost(e)
	}, algo: mediator.Greedy, physical: true},
	{name: "chain/streamer/pipelined", measure: chainMeasure, algo: mediator.Streamer, par: 2},
}

// mediateWorld is one generated catalog with its world and the sources'
// contents.
type mediateWorld struct {
	d     *workload.Domain
	world execsim.DB
	store execsim.DB
}

// mediateOutput is what one mediate session produced.
type mediateOutput struct {
	keys    []string        // planspace keys of the executed plans
	plans   []*schema.Query // the executed plan queries
	utils   []float64
	answers digest
}

type mediateWorkload struct {
	seed   int64
	worlds []mediateWorld
	mu     sync.Mutex
	out    []mediateOutput
}

func (w *mediateWorkload) kinds() []string {
	names := make([]string, len(mediateKinds))
	for i, k := range mediateKinds {
		names[i] = k.name
	}
	return names
}

func (w *mediateWorkload) clients() int { return 1 }
func (w *mediateWorkload) close()       {}
func (w *mediateWorkload) discard()     { w.out = nil }

func (w *mediateWorkload) setup(seed int64) error {
	w.seed = seed
	w.out = nil
	rng := rand.New(rand.NewSource(seed))
	w.worlds = make([]mediateWorld, mediateWorlds)
	for i := range w.worlds {
		d := workload.Generate(workload.Config{BucketSize: mediateBucket, N: workloadN, Seed: rng.Int63()})
		rels := make([]execsim.RelationSpec, len(d.Query.Body))
		for j, a := range d.Query.Body {
			rels[j] = execsim.RelationSpec{Name: a.Pred, Arity: a.Arity()}
		}
		world := execsim.GenerateWorld(execsim.WorldConfig{
			Relations:         rels,
			TuplesPerRelation: mediateTuples,
			DomainSize:        mediateConstant,
			Seed:              rng.Int63(),
		})
		store := execsim.PopulateSources(d.Catalog, world, mediateCompleteness, rng.Int63())
		w.worlds[i] = mediateWorld{d: d, world: world, store: store}
	}
	// Warm-up: one round on the first worlds brings the heap and the
	// code paths to their running state.
	for i := 0; i < 4*len(mediateKinds); i++ {
		if _, err := w.session(i); err != nil {
			return err
		}
	}
	w.out = nil
	return nil
}

func (w *mediateWorkload) worldOf(i int) *mediateWorld {
	return &w.worlds[(i/len(mediateKinds))%len(w.worlds)]
}

// newEngine builds session i's engine over the world's source contents.
func (w *mediateWorkload) newEngine(i int, kind mediateKind, mw *mediateWorld) *execsim.Engine {
	eng := execsim.NewEngine(mw.d.Catalog, mw.store)
	if kind.caching {
		eng.Caching = true
		eng.EnableFailures(w.seed ^ int64(i))
	}
	return eng
}

func (w *mediateWorkload) session(i int) (sessionTiming, error) {
	kind := mediateKinds[i%len(mediateKinds)]
	mw := w.worldOf(i)
	var t sessionTiming
	out := mediateOutput{keys: make([]string, 0, mediateK)}
	start := time.Now()
	sys, err := mediator.New(mediator.Config{
		Catalog:     mw.d.Catalog,
		Query:       mw.d.Query,
		Measure:     kind.measure,
		Algorithm:   kind.algo,
		Physical:    kind.physical,
		PhysN:       mediatePhysN,
		Parallelism: kind.par,
		OnPlan: func(e mediator.PlanEvent) {
			if t.first == 0 && len(e.NewAnswers) > 0 {
				t.first = time.Since(start)
			}
			out.keys = append(out.keys, e.Key)
		},
	})
	if err != nil {
		return t, err
	}
	res, err := sys.RunContext(context.Background(), w.newEngine(i, kind, mw), mediator.Budget{MaxPlans: mediateK})
	t.total = time.Since(start)
	if err != nil {
		return t, err
	}
	if t.first == 0 {
		t.first = t.total // no answer: the first result never came
	}
	for _, a := range res.Answers.Atoms() {
		out.answers.addAtom(a)
	}
	out.plans, out.utils = res.Executed, res.Utilities
	w.record(i, out)
	if len(res.Executed) != mediateK {
		return t, fmt.Errorf("%s executed %d of %d plans (%s)", kind.name, len(res.Executed), mediateK, res.Stopped)
	}
	return t, nil
}

func (w *mediateWorkload) record(i int, out mediateOutput) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.out) <= i {
		w.out = append(w.out, mediateOutput{})
	}
	w.out[i] = out
}

// check verifies every session: its answers must equal the union of its
// executed plans' answers, each plan evaluated by the benchmark's own
// join over the source contents; every such answer must lie in Q(world),
// evaluated by the same join over the world relations; and a fully
// monotonic measure's utilities must not increase.
func (w *mediateWorkload) check() error {
	qworld := map[*mediateWorld]tupleSet{}
	planAnswers := map[*mediateWorld]map[string]tupleSet{}
	for i, out := range w.out {
		kind := mediateKinds[i%len(mediateKinds)]
		mw := w.worldOf(i)
		if qworld[mw] == nil {
			qworld[mw] = evalQuery(mw.d.Query, mw.world)
			planAnswers[mw] = map[string]tupleSet{}
		}
		union := tupleSet{}
		for _, pq := range out.plans {
			key := pq.String()
			ans, ok := planAnswers[mw][key]
			if !ok {
				ans = evalQuery(pq, mw.store)
				if err := subset(ans, qworld[mw]); err != nil {
					return fmt.Errorf("session %d (%s): plan %s: %w", i, kind.name, key, err)
				}
				planAnswers[mw][key] = ans
			}
			for k := range ans {
				union[k] = struct{}{}
			}
		}
		if err := checkMediateSession(out, union, kind.measure(mw.d.Catalog).FullyMonotonic()); err != nil {
			return fmt.Errorf("session %d (%s): %w", i, kind.name, err)
		}
	}
	return nil
}

// checkMediateSession compares a session's answers with the union of
// its plans' answers and, for a fully monotonic measure, requires
// non-increasing utilities.
func checkMediateSession(out mediateOutput, union tupleSet, monotonic bool) error {
	if want := digestOf(union); out.answers != want {
		return fmt.Errorf("answers (%d, digest %x) differ from the union of the plans' answers (%d, digest %x)",
			out.answers.n, out.answers.sum, want.n, want.sum)
	}
	if monotonic {
		for j := 1; j < len(out.utils); j++ {
			if out.utils[j] > out.utils[j-1] && !near(out.utils[j], out.utils[j-1]) {
				return fmt.Errorf("utility rose from %g to %g at plan %d under a fully monotonic measure", out.utils[j-1], out.utils[j], j+1)
			}
		}
	}
	return nil
}

// subset reports the first tuple of a missing from b.
func subset(a, b tupleSet) error {
	for k := range a {
		if _, ok := b[k]; !ok {
			return fmt.Errorf("answer (%s) is not in Q(world)", strings.ReplaceAll(k, "\x00", ", "))
		}
	}
	return nil
}

// replay re-runs sessions 0..n-1 through the layers the mediator calls
// — reformulation, the core constructor and Next, PlanQuery/IsSound, the
// physical optimizer, the engine and the answer set — and fails on any
// plan key or answer that differs from the recorded session.
func (w *mediateWorkload) replay(n int, l *ledger) error {
	var reg *obs.Registry
	if l != nil {
		reg = obs.NewRegistry()
	}
	for i := 0; i < n; i++ {
		kind := mediateKinds[i%len(mediateKinds)]
		mw := w.worldOf(i)
		eng := w.newEngine(i, kind, mw)
		s := layeredSession{
			query: mw.d.Query, catalog: mw.d.Catalog, measure: kind.measure, algo: string(kind.algo),
			par: kind.par, physical: kind.physical, k: mediateK, engine: eng, reg: reg,
		}
		keys, answers, err := s.run(l, nil)
		if err != nil {
			return fmt.Errorf("session %d (%s): %w", i, kind.name, err)
		}
		var got digest
		for _, a := range answers.Atoms() {
			got.addAtom(a)
		}
		want := w.out[i]
		if strings.Join(keys, " ") != strings.Join(want.keys, " ") || got != want.answers {
			return fmt.Errorf("session %d (%s): replayed plans or answers differ from the recorded session", i, kind.name)
		}
		l.add("execsim.accesses", float64(eng.Accesses))
		l.add("execsim.cache_hits", float64(eng.CacheHits))
	}
	addCoreCounts(l, reg)
	addEngineCounts(l, reg)
	return nil
}

// layeredSession is one mediator session taken apart into the calls the
// mediator makes into each layer, so a stopwatch can sit around each.
type layeredSession struct {
	query    *schema.Query
	catalog  *lav.Catalog
	prepared *reformulate.PlanDomain // reused reformulation; nil builds one
	measure  func(entries *lav.Catalog) measure.Measure
	algo     string
	par      int
	physical bool
	k        int
	engine   *execsim.Engine
	reg      *obs.Registry // work counters; nil in the untraced replay
}

// run executes the session and returns the executed plans' keys and the
// answer set. onPlan, when set, sees each executed plan's fresh answers.
func (s *layeredSession) run(l *ledger, onPlan func(pq *schema.Query, fresh []schema.Atom)) ([]string, *execsim.AnswerSet, error) {
	pd := s.prepared
	if pd == nil {
		t := l.start()
		b, err := reformulate.BuildBuckets(s.query, s.catalog)
		if err == nil {
			pd = reformulate.NewPlanDomain(b, s.catalog)
		}
		l.stop("reformulate.prepare", t)
		if err != nil {
			return nil, nil, err
		}
	}
	t := l.start()
	m := s.measure(pd.Entries)
	o, err := buildOrderer([]*planspace.Space{pd.Space}, m, abstraction.ByAccessCost(pd.Entries), s.algo)
	if err == nil {
		core.SetParallelism(o, s.par)
	}
	l.stop("core.build", t)
	if err != nil {
		return nil, nil, err
	}
	core.Instrument(o, s.reg)
	s.engine.Instrument(s.reg)
	answers := execsim.NewAnswerSet()
	var keys []string
	for len(keys) < s.k {
		t := l.start()
		p, _, ok := o.Next()
		l.stop("core.next", t)
		if !ok {
			break
		}
		t = l.start()
		pq, err := pd.PlanQuery(p)
		sound := false
		if err == nil {
			sound, err = pd.IsSound(p)
			if err != nil {
				l.stop("reformulate.soundness", t)
				return nil, nil, err
			}
		}
		l.stop("reformulate.soundness", t)
		if !sound {
			continue
		}
		var out []schema.Atom
		if s.physical {
			t = l.start()
			pp, err := physopt.Optimize(pq, s.catalog, physopt.Params{N: mediatePhysN})
			l.stop("physopt.optimize", t)
			if err != nil {
				return nil, nil, err
			}
			t = l.start()
			out, err = s.engine.ExecutePhysical(pp)
			l.stop("execsim.execute", t)
		} else {
			t = l.start()
			out, err = s.engine.ExecutePlan(pq)
			l.stop("execsim.execute", t)
		}
		if err != nil {
			return nil, nil, err
		}
		before := answers.Len()
		t = l.start()
		answers.Add(out)
		l.stop("execsim.merge", t)
		keys = append(keys, p.Key())
		if onPlan != nil {
			onPlan(pq, answers.Atoms()[before:])
		}
	}
	l.add("core.evals", float64(o.Context().Evals()))
	l.add("execsim.answers", float64(answers.Len()))
	return keys, answers, nil
}

// addEngineCounts moves the engine's tuples_fetched counter into the
// ledger.
func addEngineCounts(l *ledger, reg *obs.Registry) {
	if l != nil {
		l.add("execsim.tuples", float64(reg.Counter("execsim.tuples_fetched").Value()))
	}
}
