// Package server is the stdlib-only serving layer over the mediator: a
// long-lived daemon that accepts conjunctive queries over HTTP, streams
// ordered best-first results as NDJSON, caches the reformulation prefix
// across requests keyed by the query's canonical form, and applies
// admission control so a burst of clients degrades to queueing and
// clean 503s instead of unbounded goroutines.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qporder/internal/costmodel"
	"qporder/internal/execsim"
	"qporder/internal/lav"
	"qporder/internal/measure"
	"qporder/internal/mediator"
	"qporder/internal/obs"
	"qporder/internal/schema"
)

// Config parameterizes a Server. Zero fields take the documented
// defaults.
type Config struct {
	// Catalog registers the sources the daemon mediates over. Required.
	Catalog *lav.Catalog
	// Seed drives the simulated world exactly as qporder -execute does:
	// world at Seed, source contents at Seed+1, access failures at
	// Seed+2, so a served query and a qporder run agree. Default 1.
	Seed int64
	// N is the selectivity denominator of the cost measures (default
	// 50000, the qporder default).
	N float64
	// MaxInflight bounds concurrently executing sessions (default 8).
	MaxInflight int
	// MaxQueue bounds sessions waiting for an execution slot; beyond it
	// requests are rejected with 503 overloaded (default 32).
	MaxQueue int
	// CacheSessions bounds the reformulation session cache (default 128).
	CacheSessions int
	// DefaultK and MaxK bound the per-request plan budget (defaults 10
	// and 1000).
	DefaultK int
	MaxK     int
	// DefaultDeadline and MaxDeadline bound the per-request deadline
	// (defaults 10s and 2m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxParallelism caps the per-request mediator pipeline width
	// (default 8).
	MaxParallelism int
	// Reg receives the server's counters and gauges alongside the
	// mediator's, and the span aggregates of every request trace; a
	// fresh registry is created when nil.
	Reg *obs.Registry
	// FlightEntries sizes the flight recorder's recent-request ring
	// (default 64); the slowest and errored classes each keep a quarter
	// of it. The recorder is always on — every request leaves a trace
	// inspectable at /debug/requests.
	FlightEntries int
	// TraceOut, when non-nil, receives one JSON line per finished
	// request trace (the NDJSON export cmd/qptrace ingests). Writes are
	// serialized by the server.
	TraceOut io.Writer
	// CalibOut, when non-nil, receives one calibration-snapshot JSON line
	// per finished query request (cumulative estimator-calibration state,
	// correlated by trace ID). It may be the same writer as TraceOut:
	// qptrace ingests the mixed stream. Writes are serialized with
	// TraceOut's.
	CalibOut io.Writer
	// Logger, when non-nil, receives one structured log line per
	// request, correlated by trace ID. Nil disables request logging.
	Logger *slog.Logger
	// SLO, when non-nil, observes every session's TTFA/full latency
	// against its objectives (served at GET /debug/slo, burn-rate gauges
	// on the registry) and switches TraceOut to tail-based sampling:
	// only sessions that errored, violated an objective, or ran while
	// the error budget was burning export their trace; the rest count in
	// slo.sampled_dropped. Nil keeps the export-everything behavior.
	SLO *obs.SLOMonitor
}

// Server mediates queries over a fixed catalog and simulated world.
type Server struct {
	cfg   Config
	store execsim.DB
	reg   *obs.Registry
	cache *sessionCache
	mux   *http.ServeMux

	sem      chan struct{}
	waiting  atomic.Int64
	draining atomic.Bool

	flight  *obs.FlightRecorder
	calib   *obs.Calibration
	traceMu sync.Mutex // serializes TraceOut and CalibOut lines

	inflight   *obs.Gauge
	queueDepth *obs.Gauge
	requests   *obs.Counter
	rejected   *obs.Counter
	badRequest *obs.Counter
}

// New builds the server: it generates the simulated world once (shared,
// read-only) and wires the HTTP surface.
func New(cfg Config) (*Server, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("server: Catalog is required")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.N == 0 {
		cfg.N = 50000
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 8
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 32
	}
	if cfg.CacheSessions <= 0 {
		cfg.CacheSessions = 128
	}
	if cfg.DefaultK <= 0 {
		cfg.DefaultK = 10
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = 1000
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 10 * time.Second
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 2 * time.Minute
	}
	if cfg.MaxParallelism <= 0 {
		cfg.MaxParallelism = 8
	}
	if cfg.Reg == nil {
		cfg.Reg = obs.NewRegistry()
	}
	store, err := buildStore(cfg.Catalog, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		store:      store,
		reg:        cfg.Reg,
		cache:      newSessionCache(cfg.CacheSessions, cfg.Reg),
		sem:        make(chan struct{}, cfg.MaxInflight),
		flight:     obs.NewFlightRecorder(cfg.FlightEntries, cfg.FlightEntries/4, cfg.FlightEntries/4),
		calib:      obs.NewCalibration(obs.CalibConfig{}),
		inflight:   cfg.Reg.Gauge("server.inflight"),
		queueDepth: cfg.Reg.Gauge("server.queue_depth"),
		requests:   cfg.Reg.Counter("server.requests"),
		rejected:   cfg.Reg.Counter("server.rejected"),
		badRequest: cfg.Reg.Counter("server.bad_requests"),
	}
	// The calibration accumulator rides along in every registry surface
	// (text, JSON, OpenMetrics), and the runtime gauges refresh at each
	// scrape.
	s.reg.AttachCalibration(s.calib)
	obs.RegisterRuntimeMetrics(s.reg)
	cfg.SLO.Bind(s.reg) // no-op when no objectives are configured
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/requests", s.handleRequests)
	mux.HandleFunc("GET /debug/calibration", s.handleCalibration)
	mux.HandleFunc("GET /debug/slo", s.handleSLO)
	s.mux = mux
	return s, nil
}

// buildStore generates the world over every relation the source
// descriptions mention and derives incomplete source contents, with the
// same shape and seeds as qporder's -execute mode.
func buildStore(cat *lav.Catalog, seed int64) (execsim.DB, error) {
	arity := make(map[string]int)
	for _, src := range cat.Sources() {
		if src.Def == nil {
			continue
		}
		for _, a := range src.Def.Body {
			if prev, ok := arity[a.Pred]; ok && prev != a.Arity() {
				return nil, fmt.Errorf("server: relation %s used with arities %d and %d", a.Pred, prev, a.Arity())
			}
			arity[a.Pred] = a.Arity()
		}
	}
	rels := make([]execsim.RelationSpec, 0, len(arity))
	for name, ar := range arity {
		rels = append(rels, execsim.RelationSpec{Name: name, Arity: ar})
	}
	sort.Slice(rels, func(i, j int) bool { return rels[i].Name < rels[j].Name })
	world := execsim.GenerateWorld(execsim.WorldConfig{
		Relations:         rels,
		TuplesPerRelation: 100,
		DomainSize:        15,
		Seed:              seed,
	})
	return execsim.PopulateSources(cat, world, 0.8, seed+1), nil
}

// Handler returns the server's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// SetDraining flips the drain flag: while set, /healthz reports 503 and
// new queries are rejected with 503 draining, but admitted sessions run
// to completion. The daemon sets it on SIGTERM before http.Server.
// Shutdown waits for in-flight streams.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// queryRequest is the POST /v1/query body.
type queryRequest struct {
	// Query is the conjunctive query, in the same syntax qporder's -q
	// flag accepts. Required.
	Query string `json:"query"`
	// K bounds the number of sound plans executed (default DefaultK).
	K int `json:"k"`
	// DeadlineMS bounds the session wall-clock (default DefaultDeadline,
	// clamped to MaxDeadline).
	DeadlineMS int64 `json:"deadline_ms"`
	// Algorithm, Measure, and Reformulator name the ordering algorithm
	// (default streamer, matching qporder), the utility measure (default
	// chain), and the reformulation method (default buckets).
	Algorithm    string `json:"algorithm"`
	Measure      string `json:"measure"`
	Reformulator string `json:"reformulator"`
	// Parallelism > 1 enables the mediator's pipelined mode for this
	// session (capped at MaxParallelism).
	Parallelism int `json:"parallelism"`
	// Explain requests a final explain event carrying the per-plan
	// ordering provenance (utility at selection, dominance tests won and
	// lost, refinements, splits, evaluations).
	Explain bool `json:"explain"`
	// Shard restricts the session to one slice of the plan space — the
	// scatter-gather field a fleet router stamps on its fan-out
	// sub-requests. It requires the pi algorithm and a measure with
	// prefix-independent utilities; see mediator.Config.ShardCount.
	Shard *ShardSpec `json:"shard,omitempty"`
	// Scatter is a router-side field: a fleet router fans the session
	// out across its shards and gathers the streams. A daemon receiving
	// it rejects the request — clients wanting scatter must talk to
	// qprouter, not to a shard directly.
	Scatter bool `json:"scatter,omitempty"`
	// Spans requests the trailing spans event: after done (or a
	// mid-stream error) the server emits its finished span tree as one
	// more NDJSON line. The fleet router sets it on sub-requests to
	// stitch shard spans into the fleet-wide trace.
	Spans bool `json:"spans,omitempty"`
}

// ShardSpec names one slice of a scatter-gathered plan space: the plans
// whose deterministic enumeration position ≡ Index mod Count.
type ShardSpec struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// session is a fully validated request, ready to admit and run.
type session struct {
	query    *schema.Query
	k        int
	deadline time.Duration
	algo     mediator.Algorithm
	algoName string
	measName string
	measure  func(*lav.Catalog) measure.Measure
	reform   mediator.Reformulator
	par      int
	explain  bool
	spans    bool
	shard    *ShardSpec
}

// badRequestError carries a structured 4xx.
type badRequestError struct {
	status int
	code   string
	msg    string
}

func (e *badRequestError) Error() string { return e.msg }

func bad(code, format string, args ...interface{}) *badRequestError {
	return &badRequestError{status: http.StatusBadRequest, code: code, msg: fmt.Sprintf(format, args...)}
}

// parseRequest validates the body into a runnable session. Every
// rejection is a structured 4xx, never a 500: the client sent something,
// the server names exactly what was wrong with it.
func (s *Server) parseRequest(r *http.Request) (*session, *badRequestError) {
	var req queryRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, bad(CodeBadJSON, "invalid request body: %v", err)
	}
	if strings.TrimSpace(req.Query) == "" {
		return nil, bad(CodeMissingQuery, "request has no query")
	}
	q, err := schema.ParseQuery(req.Query)
	if err != nil {
		return nil, bad(CodeParseError, "cannot parse query: %v", err)
	}
	sess := &session{query: q, k: s.cfg.DefaultK, deadline: s.cfg.DefaultDeadline}
	if req.K < 0 || req.K > s.cfg.MaxK {
		return nil, bad(CodeInvalidK, "k must be in [0, %d], got %d", s.cfg.MaxK, req.K)
	}
	if req.K > 0 {
		sess.k = req.K
	}
	if req.DeadlineMS < 0 {
		return nil, bad(CodeInvalidDeadline, "deadline_ms must be >= 0, got %d", req.DeadlineMS)
	}
	if req.DeadlineMS > 0 {
		sess.deadline = time.Duration(req.DeadlineMS) * time.Millisecond
		if sess.deadline > s.cfg.MaxDeadline {
			return nil, bad(CodeInvalidDeadline, "deadline_ms exceeds the maximum %d", s.cfg.MaxDeadline.Milliseconds())
		}
	}
	if req.Parallelism < 0 || req.Parallelism > s.cfg.MaxParallelism {
		return nil, bad(CodeInvalidParallelism, "parallelism must be in [0, %d], got %d", s.cfg.MaxParallelism, req.Parallelism)
	}
	sess.par = req.Parallelism
	sess.explain = req.Explain
	sess.spans = req.Spans

	sess.measName = req.Measure
	if sess.measName == "" {
		sess.measName = "chain"
	}
	sess.measure, err = measureFactory(sess.measName, s.cfg.N)
	if err != nil {
		return nil, bad(CodeUnknownMeasure, "%v", err)
	}
	sess.algoName = req.Algorithm
	if sess.algoName == "" {
		sess.algoName = "streamer"
	}
	sess.algo, err = algorithmByName(sess.algoName)
	if err != nil {
		return nil, bad(CodeUnknownAlgorithm, "%v", err)
	}
	sess.reform, err = reformulatorByName(req.Reformulator)
	if err != nil {
		return nil, bad(CodeUnknownReformulator, "%v", err)
	}
	if req.Scatter {
		return nil, bad(CodeScatterProxyOnly, "scatter is a router-side field; send the request to qprouter")
	}
	if req.Shard != nil {
		if req.Shard.Count < 1 || req.Shard.Index < 0 || req.Shard.Index >= req.Shard.Count {
			return nil, bad(CodeInvalidShard, "shard index must be in [0, count), got %d of %d", req.Shard.Index, req.Shard.Count)
		}
		if sess.algo != mediator.PI {
			return nil, bad(CodeInvalidShard, "plan-space sharding requires algorithm pi, got %q", sess.algoName)
		}
		sess.shard = req.Shard
	}
	return sess, nil
}

// measureFactory maps a measure name to a constructor over the derived
// entry catalog; the names match qporder's -measure flag.
func measureFactory(name string, n float64) (func(*lav.Catalog) measure.Measure, error) {
	switch name {
	case "linear":
		return func(e *lav.Catalog) measure.Measure { return costmodel.NewLinearCost(e) }, nil
	case "chain":
		return func(e *lav.Catalog) measure.Measure {
			return costmodel.NewChainCost(e, costmodel.Params{N: n})
		}, nil
	case "chain-fail":
		return func(e *lav.Catalog) measure.Measure {
			return costmodel.NewChainCost(e, costmodel.Params{N: n, Failure: true})
		}, nil
	case "chain-fail-caching":
		return func(e *lav.Catalog) measure.Measure {
			return costmodel.NewChainCost(e, costmodel.Params{N: n, Failure: true, Caching: true})
		}, nil
	case "monetary":
		return func(e *lav.Catalog) measure.Measure {
			return costmodel.NewMonetaryPerTuple(e, costmodel.Params{N: n})
		}, nil
	case "monetary-caching":
		return func(e *lav.Catalog) measure.Measure {
			return costmodel.NewMonetaryPerTuple(e, costmodel.Params{N: n, Caching: true})
		}, nil
	default:
		return nil, fmt.Errorf("unknown measure %q", name)
	}
}

// algorithmByName maps the qporder -algo names onto mediator algorithms.
func algorithmByName(name string) (mediator.Algorithm, error) {
	switch name {
	case "auto":
		return mediator.Auto, nil
	case "greedy":
		return mediator.Greedy, nil
	case "idrips":
		return mediator.IDrips, nil
	case "streamer":
		return mediator.Streamer, nil
	case "pi":
		return mediator.PI, nil
	case "exhaustive":
		return mediator.Exhaustive, nil
	default:
		return "", fmt.Errorf("unknown algorithm %q", name)
	}
}

// reformulatorByName maps request names onto mediator reformulators.
func reformulatorByName(name string) (mediator.Reformulator, error) {
	switch name {
	case "", "buckets":
		return mediator.Buckets, nil
	case "inverse":
		return mediator.InverseRules, nil
	case "minicon":
		return mediator.MiniCon, nil
	default:
		return "", fmt.Errorf("unknown reformulator %q", name)
	}
}

// errRejected reports an admission rejection (503 + code).
var errClientGone = errors.New("client gone")

// admit blocks until an execution slot frees (or the client leaves) and
// returns its release function. A full queue or an active drain rejects
// immediately.
func (s *Server) admit(r *http.Request) (release func(), rejectCode string, err error) {
	if s.draining.Load() {
		return nil, CodeDraining, nil
	}
	acquired := false
	select {
	case s.sem <- struct{}{}:
		acquired = true
	default:
	}
	if !acquired {
		w := s.waiting.Add(1)
		s.queueDepth.Set(float64(w))
		if w > int64(s.cfg.MaxQueue) {
			s.queueDepth.Set(float64(s.waiting.Add(-1)))
			return nil, CodeOverloaded, nil
		}
		select {
		case s.sem <- struct{}{}:
			s.queueDepth.Set(float64(s.waiting.Add(-1)))
		case <-r.Context().Done():
			s.queueDepth.Set(float64(s.waiting.Add(-1)))
			return nil, "", errClientGone
		}
	}
	s.inflight.Set(float64(len(s.sem)))
	return func() {
		<-s.sem
		s.inflight.Set(float64(len(s.sem)))
	}, "", nil
}

// writeError writes a structured non-2xx JSON body: {"error":{code,message}}.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(struct {
		Err ErrorBody `json:"error"`
	}{ErrorBody{Code: code, Message: msg}})
}

// handleQuery validates, admits, and streams one query session. Every
// request runs under a request trace: an incoming W3C traceparent header
// continues the caller's trace (a malformed one silently starts a fresh
// trace — tracing must never fail a request), the response carries the
// server's own traceparent, and the finished trace lands in the flight
// recorder, the structured log, and the NDJSON export.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	tr := obs.StartRequestTrace(s.reg, "POST /v1/query", r.Header.Get("traceparent"))
	w.Header().Set("Traceparent", tr.Traceparent())
	reqStart := time.Now()
	var ttfaNS atomic.Int64 // offset of the first streamed answer; 0 until one streams
	defer func() { s.finishTrace(tr, time.Duration(ttfaNS.Load())) }()
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	parseSpan := tr.StartSpan("server/parse")
	sess, berr := s.parseRequest(r)
	parseSpan.End()
	if berr != nil {
		s.badRequest.Inc()
		tr.SetAttr("code", berr.code)
		tr.SetError(berr.msg)
		writeError(w, berr.status, berr.code, berr.msg)
		return
	}
	tr.SetAttr("query", sess.query.String())
	tr.SetAttr("algorithm", sess.algoName)
	tr.SetAttr("measure", sess.measName)
	admitSpan := tr.StartSpan("server/admit")
	release, code, err := s.admit(r)
	admitSpan.End()
	if err != nil {
		tr.SetError("client disconnected while queued")
		return // client disconnected while queued; nothing to say to it
	}
	if code != "" {
		s.rejected.Inc()
		tr.SetAttr("code", code)
		tr.SetError("server cannot accept new sessions")
		writeError(w, http.StatusServiceUnavailable, code, "server cannot accept new sessions")
		return
	}
	defer release()

	// The reformulation prefix is shared across requests whose queries
	// are identical up to variable renaming and atom order.
	key := sess.query.CanonicalKey() + "|" + string(sess.reform)
	prepSpan := tr.StartSpan("server/prepare")
	prep, hit, err := s.cache.get(key, func() (*mediator.Prepared, error) {
		return mediator.Prepare(sess.query, s.cfg.Catalog, sess.reform)
	})
	prepSpan.End()
	if err != nil {
		s.badRequest.Inc()
		tr.SetAttr("code", CodeUnplannable)
		tr.SetError(err.Error())
		writeError(w, http.StatusUnprocessableEntity, CodeUnplannable, err.Error())
		return
	}

	start := time.Now()
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var streamErr error
	emit := func(e Event) {
		if streamErr != nil {
			return
		}
		if streamErr = enc.Encode(e); streamErr == nil && flusher != nil {
			flusher.Flush()
		}
	}

	mcfg := mediator.Config{
		Prepared:    prep,
		Measure:     sess.measure,
		Algorithm:   sess.algo,
		Parallelism: sess.par,
		Obs:         s.reg,
		Calib:       s.calib,
		OnPlan: func(e mediator.PlanEvent) {
			emit(Event{
				Event:        "plan",
				Index:        e.Index,
				Utility:      e.Utility,
				Plan:         e.Plan.String(),
				PlanKey:      e.Key,
				NewAnswers:   len(e.NewAnswers),
				TotalAnswers: e.TotalAnswers,
			})
			if len(e.NewAnswers) > 0 {
				out := make([]string, len(e.NewAnswers))
				for i, a := range e.NewAnswers {
					out[i] = a.String()
				}
				emit(Event{Event: "answers", Index: e.Index, Answers: out})
				ttfaNS.CompareAndSwap(0, int64(time.Since(reqStart)))
			}
		},
	}
	if sess.shard != nil {
		mcfg.ShardIndex = sess.shard.Index
		mcfg.ShardCount = sess.shard.Count
	}
	buildSpan := tr.StartSpan("server/build")
	sys, err := mediator.New(mcfg)
	buildSpan.End()
	if err != nil {
		s.badRequest.Inc()
		tr.SetAttr("code", CodeInapplicable)
		tr.SetError(err.Error())
		writeError(w, http.StatusUnprocessableEntity, CodeInapplicable, err.Error())
		return
	}

	// From here the response is a stream; failures become error events.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	cache := "miss"
	if hit {
		cache = "hit"
	}
	tr.SetAttr("cache", cache)
	emit(Event{
		Event:     "session",
		TraceID:   tr.TraceID().String(),
		Cache:     cache,
		Algorithm: sess.algoName,
		Measure:   sess.measName,
		K:         sess.k,
		PlanSpace: prep.PlanSpaceSize(),
	})

	// A fresh engine per session over the shared read-only store keeps
	// per-request cost accounting isolated while every session sees the
	// same simulated world (failure seed matches qporder -execute).
	eng := execsim.NewEngine(s.cfg.Catalog, s.store)
	eng.EnableFailures(s.cfg.Seed + 2)

	ctx, cancel := context.WithTimeout(r.Context(), sess.deadline)
	defer cancel()
	ctx = obs.WithTrace(ctx, tr)
	res, err := sys.RunContext(ctx, eng, mediator.Budget{MaxPlans: sess.k})
	// The spans trailer rides after done (or after a mid-stream error):
	// everything past the last data line is observability metadata, so
	// plain clients' event dispatch skips it while a stitching router
	// ingests it.
	emitSpans := func() {
		if !sess.spans {
			return
		}
		snap := tr.Snapshot()
		emit(Event{Event: "spans", TraceID: tr.TraceID().String(), Trace: &snap})
	}
	if err != nil {
		tr.SetAttr("code", CodeInternal)
		tr.SetError(err.Error())
		emit(Event{Event: "error", Err: &ErrorBody{Code: CodeInternal, Message: err.Error()}})
		emitSpans()
		return
	}
	tr.SetAttr("stopped", string(res.Stopped))
	if sess.explain {
		emit(Event{Event: "explain", TraceID: tr.TraceID().String(), Explain: tr.Plans()})
	}
	emit(Event{
		Event:        "done",
		TraceID:      tr.TraceID().String(),
		Stopped:      string(res.Stopped),
		Plans:        len(res.Executed),
		TotalAnswers: res.Answers.Len(),
		Cost:         res.Cost,
		Evals:        res.Evals,
		ElapsedMS:    float64(time.Since(start)) / float64(time.Millisecond),
	})
	emitSpans()
}

// finishTrace seals the request trace, feeds the session's latency to
// the SLO monitor, and fans the trace out to the retention sinks: the
// flight recorder (always on), the NDJSON export (tail-sampled when an
// SLO monitor is configured), and the structured log.
func (s *Server) finishTrace(tr *obs.Trace, ttfa time.Duration) {
	snap := tr.Finish()
	s.flight.Record(snap)
	full := time.Duration(snap.DurNS)
	errored := snap.Status == "error"
	s.cfg.SLO.Observe(ttfa, full, errored)
	if s.cfg.TraceOut != nil {
		if s.cfg.SLO.ShouldSample(ttfa, full, errored) {
			s.cfg.SLO.MarkExport(true)
			if b, err := json.Marshal(snap); err == nil {
				s.traceMu.Lock()
				_, _ = s.cfg.TraceOut.Write(append(b, '\n'))
				s.traceMu.Unlock()
			}
		} else {
			s.cfg.SLO.MarkExport(false)
		}
	}
	if s.cfg.CalibOut != nil {
		// One cumulative calibration snapshot per request that produced
		// observations, correlated to the request by trace ID. Requests
		// rejected before execution add nothing, so skip while empty.
		if cs := s.calib.Snapshot(); !cs.Empty() {
			rec := obs.CalibrationRecord{TraceID: snap.TraceID.String(), Calibration: cs}
			if b, err := json.Marshal(rec); err == nil {
				s.traceMu.Lock()
				_, _ = s.cfg.CalibOut.Write(append(b, '\n'))
				s.traceMu.Unlock()
			}
		}
	}
	if s.cfg.Logger != nil {
		lvl := slog.LevelInfo
		attrs := []any{
			"trace_id", snap.TraceID.String(),
			"status", snap.Status,
			"dur_ms", float64(snap.DurNS) / 1e6,
			"spans", len(snap.Spans),
			"plans", len(snap.Plans),
		}
		if q, ok := snap.Attrs["query"]; ok {
			attrs = append(attrs, "query", q)
		}
		if snap.Error != "" {
			lvl = slog.LevelWarn
			attrs = append(attrs, "error", snap.Error)
		}
		s.cfg.Logger.Log(context.Background(), lvl, "request", attrs...)
	}
}

// handleRequests serves the flight recorder: the retained recent,
// slowest, and errored request traces, as text by default, as JSON with
// ?format=json, or one full trace with ?trace=<id>.
func (s *Server) handleRequests(w http.ResponseWriter, r *http.Request) {
	if q := r.URL.Query().Get("trace"); q != "" {
		var id obs.TraceID
		if err := id.UnmarshalText([]byte(q)); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadTraceID, "invalid trace id "+q)
			return
		}
		t, ok := s.flight.Find(id)
		if !ok {
			writeError(w, http.StatusNotFound, CodeTraceNotFound, "trace "+q+" not retained")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(t)
		return
	}
	snap := s.flight.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = snap.WriteText(w)
}

// handleHealthz reports liveness; a draining server answers 503 so load
// balancers stop routing to it while in-flight streams finish.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// handleMetrics renders the registry: text by default, the JSON snapshot
// with ?format=json, or the standards-compliant scrape exposition with
// ?format=openmetrics (also negotiated via the Accept header, so a
// Prometheus-compatible scraper needs no query parameter).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "" && strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		format = "openmetrics"
	}
	switch format {
	case "json":
		w.Header().Set("Content-Type", "application/json")
		_ = s.reg.WriteJSON(w)
	case "openmetrics":
		w.Header().Set("Content-Type", obs.OpenMetricsContentType)
		_ = s.reg.WriteOpenMetrics(w)
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = s.reg.WriteText(w)
	}
}

// handleSLO serves the SLO monitor's rolling-window state: objectives,
// violation counts, burn rates, and tail-sampling outcomes, as text by
// default or JSON with ?format=json. With no monitor configured it
// reports the disabled state (and {} as JSON).
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = s.cfg.SLO.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = s.cfg.SLO.WriteText(w)
}

// handleCalibration serves the estimator-calibration state: per-source
// and per-plan q-error summaries, signed bias, and EWMA drift flags, as
// text by default or JSON with ?format=json.
func (s *Server) handleCalibration(w http.ResponseWriter, r *http.Request) {
	cs := s.calib.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(cs)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if cs.Empty() {
		fmt.Fprintln(w, "calibration: no observations yet (run a query)")
		return
	}
	_ = cs.WriteText(w)
}
