package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"

	"qporder/internal/abstraction"
	"qporder/internal/core"
	"qporder/internal/costmodel"
	"qporder/internal/coverage"
	"qporder/internal/lav"
	"qporder/internal/measure"
	"qporder/internal/obs"
	"qporder/internal/planspace"
	"qporder/internal/workload"
)

// The order workload is the paper's Section 6 loop with no execution:
// each session builds a fresh orderer over one of the generated domains
// and takes its first orderK plans. Rounds cycle through orderDomains
// domains, and the kinds of a round share one domain.
const (
	orderDomains = 256
	orderBucket  = 20
	orderK       = 10
	// orderOracleSessions is how many sessions per kind the Definition
	// 2.1 brute-force check replays.
	orderOracleSessions = 2
)

type orderKind struct {
	name    string
	measure string // "coverage" or "chain-fail-caching"
	algo    string // "streamer", "idrips" or "pi"
}

var orderKinds = []orderKind{
	{"coverage/streamer", "coverage", "streamer"},
	{"coverage/idrips", "coverage", "idrips"},
	{"coverage/pi", "coverage", "pi"},
	{"chain-fail-caching/idrips", "chain-fail-caching", "idrips"},
}

// orderOutput is what one order session emitted: each plan's sources
// and its utility at selection time.
type orderOutput struct {
	sources [][]lav.SourceID
	utils   []float64
}

type orderWorkload struct {
	seed    int64
	domains []*workload.Domain
	mu      sync.Mutex
	out     []orderOutput // indexed by session
}

func (w *orderWorkload) kinds() []string {
	names := make([]string, len(orderKinds))
	for i, k := range orderKinds {
		names[i] = k.name
	}
	return names
}

func (w *orderWorkload) clients() int { return 1 }
func (w *orderWorkload) close()       {}
func (w *orderWorkload) discard()     { w.out = nil }

func (w *orderWorkload) setup(seed int64) error {
	w.seed = seed
	w.out = nil
	rng := rand.New(rand.NewSource(seed))
	w.domains = make([]*workload.Domain, orderDomains)
	for i := range w.domains {
		w.domains[i] = workload.Generate(workload.Config{BucketSize: orderBucket, Seed: rng.Int63()})
	}
	// Warm-up: one coverage/pi session per domain fills the coverage
	// model's overlap memo, the cache that outlives a session.
	for _, d := range w.domains {
		o, err := newOrderer(d, "coverage", "pi")
		if err != nil {
			return err
		}
		core.Take(o, orderK)
	}
	return nil
}

func (w *orderWorkload) domain(i int) *workload.Domain {
	return w.domains[(i/len(orderKinds))%len(w.domains)]
}

// newOrderer builds a session's orderer over a fresh plan space of d: a
// space memoizes its enumeration, and a session for a new query would
// not find it memoized.
func newOrderer(d *workload.Domain, measureName, algo string) (core.Orderer, error) {
	return buildOrderer([]*planspace.Space{planspace.NewSpace(d.Buckets)}, orderMeasure(d, measureName), orderHeuristic(d, measureName), algo)
}

func orderMeasure(d *workload.Domain, name string) measure.Measure {
	if name == "coverage" {
		return coverage.NewMeasure(d.Coverage)
	}
	return costmodel.NewChainCost(d.Catalog, costmodel.Params{N: d.Params.N, Failure: true, Caching: true})
}

// orderHeuristic is the abstraction heuristic the paper pairs with each
// measure: coverage similarity for coverage, access cost for the chain
// cost.
func orderHeuristic(d *workload.Domain, name string) abstraction.Heuristic {
	if name == "coverage" {
		return abstraction.ByKey("cov-sim", d.SimilarityKey)
	}
	return abstraction.ByAccessCost(d.Catalog)
}

// buildOrderer calls the core constructor of the named algorithm.
func buildOrderer(spaces []*planspace.Space, m measure.Measure, heur abstraction.Heuristic, algo string) (core.Orderer, error) {
	switch algo {
	case "streamer":
		return core.NewStreamer(spaces, m, heur)
	case "idrips":
		return core.NewIDrips(spaces, m, heur), nil
	case "pi":
		return core.NewPI(spaces, m), nil
	case "greedy":
		return core.NewGreedy(spaces, m)
	}
	return nil, fmt.Errorf("unknown algorithm %q", algo)
}

func (w *orderWorkload) session(i int) (sessionTiming, error) {
	kind := orderKinds[i%len(orderKinds)]
	d := w.domain(i)
	var t sessionTiming
	start := time.Now()
	o, err := newOrderer(d, kind.measure, kind.algo)
	if err != nil {
		return t, err
	}
	out := orderOutput{sources: make([][]lav.SourceID, 0, orderK), utils: make([]float64, 0, orderK)}
	for len(out.utils) < orderK {
		p, u, ok := o.Next()
		if !ok {
			break
		}
		if len(out.utils) == 0 {
			t.first = time.Since(start)
		}
		out.sources = append(out.sources, p.Sources())
		out.utils = append(out.utils, u)
	}
	t.total = time.Since(start)
	w.record(i, out)
	if len(out.utils) != orderK {
		return t, fmt.Errorf("%s emitted %d of %d plans", kind.name, len(out.utils), orderK)
	}
	return t, nil
}

func (w *orderWorkload) record(i int, out orderOutput) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.out) <= i {
		w.out = append(w.out, orderOutput{})
	}
	w.out[i] = out
}

// check verifies, outside the timed phase, that every round's three
// coverage orderers emitted the same utility sequence, and replays
// sampled sessions of every kind against the brute-force Definition 2.1
// oracle.
func (w *orderWorkload) check() error {
	nk := len(orderKinds)
	rounds := len(w.out) / nk
	for r := 0; r < rounds; r++ {
		base := w.out[r*nk]
		for k := 1; k < nk; k++ {
			if orderKinds[k].measure != "coverage" {
				continue
			}
			if err := sameUtilities(base.utils, w.out[r*nk+k].utils); err != nil {
				return fmt.Errorf("round %d: %s vs %s: %w", r, orderKinds[0].name, orderKinds[k].name, err)
			}
		}
	}
	rng := rand.New(rand.NewSource(w.seed))
	for k, kind := range orderKinds {
		for s := 0; s < orderOracleSessions && rounds > 0; s++ {
			i := rng.Intn(rounds)*nk + k
			d := w.domain(i)
			if err := checkDefinition21(d.Space, orderMeasure(d, kind.measure), w.out[i]); err != nil {
				return fmt.Errorf("session %d (%s): %w", i, kind.name, err)
			}
		}
	}
	return nil
}

// sameUtilities reports whether two utility sequences agree to within
// floating-point noise.
func sameUtilities(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d plans", len(a), len(b))
	}
	for j := range a {
		if !near(a[j], b[j]) {
			return fmt.Errorf("plan %d: utility %g vs %g", j+1, a[j], b[j])
		}
	}
	return nil
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkDefinition21 replays an emitted sequence against Definition 2.1
// by brute force: at every step the emitted plan's utility, conditioned
// on the plans emitted before it, must equal the reported utility and
// be the maximum over every plan not yet emitted.
func checkDefinition21(space *planspace.Space, m measure.Measure, out orderOutput) error {
	remaining := map[string]*planspace.Plan{}
	for _, p := range planspace.NewSpace(space.Buckets).Enumerate() {
		remaining[sourcesKey(p.Sources())] = p
	}
	ctx := m.NewContext()
	for j, srcs := range out.sources {
		key := sourcesKey(srcs)
		p, ok := remaining[key]
		if !ok {
			return fmt.Errorf("plan %d (%s) is not a remaining plan of the space", j+1, key)
		}
		got := ctx.Evaluate(p).Lo
		if !near(got, out.utils[j]) {
			return fmt.Errorf("plan %d (%s): reported utility %g, conditional utility %g", j+1, key, out.utils[j], got)
		}
		for qk, q := range remaining {
			if u := ctx.Evaluate(q).Lo; u > got && !near(u, got) {
				return fmt.Errorf("plan %d (%s) has utility %g but remaining plan %s has %g", j+1, key, got, qk, u)
			}
		}
		delete(remaining, key)
		ctx.Observe(p)
	}
	return nil
}

func sourcesKey(srcs []lav.SourceID) string {
	var b strings.Builder
	for i, s := range srcs {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprint(&b, int(s))
	}
	return b.String()
}

// replay re-runs sessions 0..n-1 through the core constructors and Next,
// with work counts from core.Instrument's registry and the measure
// context, and fails on any plan or utility that differs from the
// recorded session.
func (w *orderWorkload) replay(n int, l *ledger) error {
	var reg *obs.Registry
	if l != nil {
		reg = obs.NewRegistry()
	}
	for i := 0; i < n; i++ {
		kind := orderKinds[i%len(orderKinds)]
		d := w.domain(i)
		t := l.start()
		o, err := newOrderer(d, kind.measure, kind.algo)
		l.stop("core.build", t)
		if err != nil {
			return err
		}
		core.Instrument(o, reg)
		want := w.out[i]
		for j := 0; j < orderK; j++ {
			t := l.start()
			p, u, ok := o.Next()
			l.stop("core.next", t)
			if !ok || j >= len(want.utils) || sourcesKey(p.Sources()) != sourcesKey(want.sources[j]) || u != want.utils[j] {
				return fmt.Errorf("session %d (%s): replayed plan %d differs from the recorded one", i, kind.name, j+1)
			}
		}
		l.add("core.evals", float64(o.Context().Evals()))
	}
	addCoreCounts(l, reg)
	return nil
}

// addCoreCounts moves the per-algorithm core.<algo>.dominance_tests and
// core.<algo>.refinements counters of reg into the ledger.
func addCoreCounts(l *ledger, reg *obs.Registry) {
	for name, v := range reg.Snapshot().Counters {
		switch {
		case strings.HasPrefix(name, "core.") && strings.HasSuffix(name, ".dominance_tests"):
			l.add("core.dominance_tests", float64(v))
		case strings.HasPrefix(name, "core.") && strings.HasSuffix(name, ".refinements"):
			l.add("core.refinements", float64(v))
		}
	}
}
