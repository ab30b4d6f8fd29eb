package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qporder/internal/obs"
	"qporder/internal/parallel"
	"qporder/internal/schema"
	"qporder/internal/server"
)

// Config parameterizes a Router. Zero values take the documented
// defaults; Shards is the only required field.
type Config struct {
	// Shards is the base URL of every qpserved shard, e.g.
	// "http://127.0.0.1:8091". Required, at least one.
	Shards []string
	// Replicas is the number of virtual nodes per shard on the
	// consistent-hash ring (default 64).
	Replicas int
	// HealthInterval is the /healthz probe period (default 1s).
	HealthInterval time.Duration
	// HealthTimeout bounds each probe attempt. It is decoupled from the
	// interval on purpose: a shard saturated with ordering work answers
	// probes slowly without being gone, and a timeout tighter than the
	// interval would empty the ring under load (default 2s, floored at
	// the interval).
	HealthTimeout time.Duration
	// Retries bounds how many distinct shards a session setup is
	// attempted on before the router gives up (default 3).
	Retries int
	// Backoff is the base sleep between retry attempts; it doubles per
	// attempt and is capped at one second (default 25ms).
	Backoff time.Duration
	// DefaultK mirrors the shards' default plan budget; the router needs
	// it to know where to cut a gathered scatter stream when the client
	// omits k (default 10).
	DefaultK int
	// Registry receives the fleet.* instruments; nil disables metrics.
	Registry *obs.Registry
	// Client issues shard requests and health probes. It must not have a
	// global timeout (plan streams are long-lived); per-probe deadlines
	// come from HealthTimeout. Default: a fresh http.Client.
	Client *http.Client
	// Logf, when set, receives operational log lines (reroutes, health
	// flips). Nil silences them.
	Logf func(format string, args ...any)
	// TraceOut, when non-nil, enables fleet-wide tracing: the router
	// runs its own request trace per session (admission, shard pick,
	// per-shard proxy, scatter merge), asks every shard for its span
	// tree via the spans trailer, and writes the unified export — the
	// router's snapshot plus each shard's, all under one W3C trace ID —
	// as NDJSON lines qptrace stitches. Writes are serialized.
	TraceOut io.Writer
	// SLO, when non-nil, observes every routed session's TTFA and full
	// latency against its objectives (served at GET /debug/slo,
	// burn-rate gauges on Registry) and tail-samples TraceOut: only
	// errored, objective-violating, or budget-burning sessions export.
	SLO *obs.SLOMonitor

	// probeHold, when non-nil, holds the health prober before its
	// startup probe until the channel is closed (tests only).
	probeHold <-chan struct{}
}

// Router is the stateless fleet front end: it owns no ordering state and
// no caches, only the health view and the ring. Every /v1/query request
// is either proxied whole to the shard owning the query's canonical key
// (session-cache affinity) or — with "scatter": true — split into
// plan-space slices across every healthy shard and gathered back into
// the canonical order. Kill a router and start another with the same
// -shards list: the ring is deterministic, so affinity is unchanged.
type Router struct {
	cfg      Config
	client   *http.Client
	prober   *prober
	mux      *http.ServeMux
	logf     func(string, ...any)
	draining atomic.Bool
	shards   []string   // normalized configured order (federation label = index)
	traceMu  sync.Mutex // serializes TraceOut lines

	shardsUp *obs.Gauge
	inflight map[string]*obs.Gauge
	stats    map[string]*shardStats
	proxied  *obs.Counter // affinity sessions streamed
	scatters *obs.Counter // scatter sessions gathered
	rerouted *obs.Counter // sessions served by a non-owner shard
	retried  *obs.Counter // individual setup retries
	rejected *obs.Counter // client-visible fleet failures
	flips    *obs.Counter // health transitions observed
	scrapes  *obs.Counter // federation scrape attempts
	scrapeEr *obs.Counter // federation scrape failures
}

// shardStats is one shard's per-session skew accounting, indexed like
// the inflight gauges by the shard's configured position: sessions
// touched, answers it streamed (pre-dedup for scatter slices, so the
// counter measures the shard's own production), and the per-session
// latency the router observed.
type shardStats struct {
	sessions *obs.Counter
	answers  *obs.Counter
	latency  *obs.Histogram
}

// New builds a Router and starts its health prober; call Close to stop
// it. The shard list is normalized (trailing slashes stripped) and must
// be non-empty.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("fleet: no shards configured")
	}
	shards := make([]string, 0, len(cfg.Shards))
	for _, s := range cfg.Shards {
		s = strings.TrimRight(strings.TrimSpace(s), "/")
		if s == "" {
			return nil, fmt.Errorf("fleet: empty shard URL")
		}
		shards = append(shards, s)
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 64
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = 2 * time.Second
	}
	if cfg.HealthTimeout < cfg.HealthInterval {
		cfg.HealthTimeout = cfg.HealthInterval
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 3
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 25 * time.Millisecond
	}
	if cfg.DefaultK <= 0 {
		cfg.DefaultK = 10
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	rt := &Router{
		cfg:      cfg,
		client:   client,
		logf:     cfg.Logf,
		shards:   shards,
		inflight: make(map[string]*obs.Gauge, len(shards)),
		stats:    make(map[string]*shardStats, len(shards)),
		shardsUp: cfg.Registry.Gauge("fleet.shards_up"),
		proxied:  cfg.Registry.Counter("fleet.sessions_proxied"),
		scatters: cfg.Registry.Counter("fleet.sessions_scatter"),
		rerouted: cfg.Registry.Counter("fleet.sessions_rerouted"),
		retried:  cfg.Registry.Counter("fleet.retries"),
		rejected: cfg.Registry.Counter("fleet.rejected"),
		flips:    cfg.Registry.Counter("fleet.probe_flips"),
		scrapes:  cfg.Registry.Counter("fleet.federate_scrapes"),
		scrapeEr: cfg.Registry.Counter("fleet.federate_errors"),
	}
	for i, s := range shards {
		rt.inflight[s] = cfg.Registry.Gauge(fmt.Sprintf("fleet.shard%d.inflight", i))
		rt.stats[s] = &shardStats{
			sessions: cfg.Registry.Counter(fmt.Sprintf("fleet.shard%d.sessions", i)),
			answers:  cfg.Registry.Counter(fmt.Sprintf("fleet.shard%d.answers", i)),
			latency:  cfg.Registry.Histogram(fmt.Sprintf("fleet.shard%d.latency_ns", i)),
		}
	}
	cfg.SLO.Bind(cfg.Registry) // no-op when no objectives are configured
	rt.prober = newProber(shards, cfg.Replicas, client, cfg.HealthInterval, cfg.HealthTimeout, func(url string, up bool) {
		rt.flips.Inc()
		rt.say("fleet: shard %s -> up=%v", url, up)
	})
	if cfg.Registry != nil {
		cfg.Registry.AddCollector(func() {
			_, n := rt.prober.view()
			rt.shardsUp.Set(float64(n))
		})
	}
	rt.prober.hold = cfg.probeHold
	go rt.prober.run()

	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("POST /v1/query", rt.handleQuery)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /debug/slo", rt.handleSLO)
	return rt, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the health prober. In-flight proxied streams are not
// interrupted; the caller drains them via http.Server.Shutdown.
func (rt *Router) Close() { rt.prober.close() }

// SetDraining flips the /healthz answer to 503 so upstream balancers
// stop sending new sessions during shutdown.
func (rt *Router) SetDraining(v bool) { rt.draining.Store(v) }

func (rt *Router) say(format string, args ...any) {
	if rt.logf != nil {
		rt.logf(format, args...)
	}
}

// routeProbe is the subset of the request the router itself inspects;
// the full body is forwarded (affinity) or rewritten per slice (scatter)
// without dropping fields the router doesn't know about.
type routeProbe struct {
	Query     string          `json:"query"`
	K         int             `json:"k"`
	Scatter   bool            `json:"scatter"`
	Algorithm string          `json:"algorithm"`
	Shard     json.RawMessage `json:"shard"`
	// Spans records whether the client itself asked for the trailing
	// spans event. The router always asks its shards for spans when
	// tracing, but strips the trailers from the client stream unless the
	// client opted in too.
	Spans bool `json:"spans"`
}

// routeCtx carries one routed session's observability state across the
// proxy and scatter paths: the router's own trace (nil unless TraceOut
// is configured), the shard span snapshots harvested from spans
// trailers, and the latency figures the SLO monitor observes.
type routeCtx struct {
	tr        *obs.Trace
	start     time.Time
	ttfa      time.Duration // offset of the first answers event; 0 until one streams
	errored   bool
	wantSpans bool // the client itself requested spans trailers
	snaps     []obs.TraceSnapshot
}

// fail marks the session errored for SLO accounting and records the
// message on the router's trace.
func (rc *routeCtx) fail(format string, args ...any) {
	rc.errored = true
	if rc.tr != nil {
		rc.tr.SetError(fmt.Sprintf(format, args...))
	}
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	states := rt.prober.states()
	up := 0
	for _, ok := range states {
		if ok {
			up++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	code := http.StatusOK
	status := "ok"
	if rt.draining.Load() {
		code = http.StatusServiceUnavailable
		status = "draining"
	} else if up == 0 {
		code = http.StatusServiceUnavailable
		status = "no_shards"
	}
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status": status, "shards_up": up, "shards": states,
	})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := rt.cfg.Registry
	if reg == nil {
		http.Error(w, "metrics disabled", http.StatusNotFound)
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" && strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		format = "openmetrics"
	}
	switch format {
	case "json":
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	case "openmetrics":
		rt.writeFederated(w, r)
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = reg.WriteText(w)
	}
}

// writeError emits a non-streaming structured error, mirroring the
// shard error body shape so clients need one decoder.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]*server.ErrorBody{
		"error": {Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

// CodeFleetUnavailable is returned when no healthy shard could accept a
// session within the retry budget.
const CodeFleetUnavailable = "fleet_unavailable"

// CodeShardStream is returned when a scatter sub-stream fails before or
// during the gather.
const CodeShardStream = "shard_stream"

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	rc := &routeCtx{start: time.Now()}
	if rt.cfg.TraceOut != nil {
		rc.tr = obs.StartRequestTrace("router /v1/query", r.Header.Get("Traceparent"))
		// The client joins the router's trace; the shard hops hang off it
		// below, all under the same trace ID.
		w.Header().Set("Traceparent", rc.tr.Traceparent())
	}
	defer rt.finishSession(rc)
	admit := rc.tr.StartSpan("router/admit")
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		admit.End()
		rc.fail("reading body: %v", err)
		writeError(w, http.StatusBadRequest, server.CodeBadJSON, "reading body: %v", err)
		return
	}
	var probe routeProbe
	if err := json.Unmarshal(body, &probe); err != nil {
		admit.End()
		rc.fail("decoding request: %v", err)
		writeError(w, http.StatusBadRequest, server.CodeBadJSON, "decoding request: %v", err)
		return
	}
	rc.wantSpans = probe.Spans
	if len(probe.Shard) > 0 && string(probe.Shard) != "null" {
		admit.End()
		rc.fail("client-set shard")
		writeError(w, http.StatusBadRequest, server.CodeInvalidShard,
			"shard is assigned by the router; clients must not set it")
		return
	}
	admit.End()
	if probe.Scatter {
		rt.scatterGather(w, r, body, probe, rc)
		return
	}
	rt.proxy(w, r, body, probe, rc)
}

// finishSession closes out one routed session's observability: the SLO
// monitor observes its latency, and — when tracing — the router's own
// snapshot plus every harvested shard snapshot are written to TraceOut
// as one NDJSON group under the session's trace ID, subject to tail
// sampling when an SLO monitor is configured.
func (rt *Router) finishSession(rc *routeCtx) {
	full := time.Since(rc.start)
	rt.cfg.SLO.Observe(rc.ttfa, full, rc.errored)
	if rc.tr == nil {
		return
	}
	snap := rc.tr.Finish()
	if rt.cfg.SLO != nil {
		if !rt.cfg.SLO.ShouldSample(rc.ttfa, full, rc.errored) {
			rt.cfg.SLO.MarkExport(false)
			return
		}
		rt.cfg.SLO.MarkExport(true)
	}
	rt.traceMu.Lock()
	defer rt.traceMu.Unlock()
	enc := json.NewEncoder(rt.cfg.TraceOut)
	if err := enc.Encode(snap); err != nil {
		rt.say("fleet: trace export failed: %v", err)
		return
	}
	for i := range rc.snaps {
		if err := enc.Encode(rc.snaps[i]); err != nil {
			rt.say("fleet: trace export failed: %v", err)
			return
		}
	}
}

// handleSLO serves the router's SLO burn-rate snapshot (text by
// default, ?format=json for machines).
func (rt *Router) handleSLO(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = rt.cfg.SLO.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = rt.cfg.SLO.WriteText(w)
}

// affinityKey maps the request to its ring position: the query's
// canonical key, so syntactic variants of the same query share a shard
// and hence its session cache. An unparsable query falls back to the
// raw text — the owning shard then reports the canonical parse error.
func affinityKey(query string) string {
	if q, err := schema.ParseQuery(query); err == nil {
		return q.CanonicalKey()
	}
	return query
}

// proxy streams a whole session from the shard owning the query's
// canonical key, walking the ring's successor sequence with bounded
// doubling backoff when the owner is unreachable or draining. Retries
// happen only before any response byte reaches the client — session
// setup is idempotent (the session cache makes a replayed setup a
// cache hit at worst), mid-stream failures are not replayed.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, body []byte, probe routeProbe, rc *routeCtx) {
	pick := rc.tr.StartSpan("router/pick")
	ring, _ := rt.prober.view()
	cands := ring.Successors(affinityKey(probe.Query))
	if len(cands) == 0 {
		// The health view can be transiently wrong (every probe timed out
		// under load). Fall back to the full configured set and let the
		// per-attempt failures below decide — truly dead shards error out,
		// draining ones answer 503 themselves.
		cands = rt.prober.all()
	}
	pick.End()
	if len(cands) == 0 {
		rt.rejected.Inc()
		rc.fail("no healthy shards")
		writeError(w, http.StatusServiceUnavailable, CodeFleetUnavailable, "no healthy shards")
		return
	}
	if rc.tr != nil && !probe.Spans {
		// Ask the shard for its span tree; the trailer is stripped from
		// the client stream in relay since the client didn't opt in.
		body = withSpans(body)
	}
	attempts := rt.cfg.Retries
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			rt.retried.Inc()
			time.Sleep(backoffFor(rt.cfg.Backoff, i-1))
		}
		// Walk the successor sequence; wrap so a transient 503 on a
		// small fleet still gets the full retry budget.
		shard := cands[i%len(cands)]
		span := rc.tr.StartSpan("router/proxy")
		span.Annotate(shard)
		resp, err := rt.send(r, shard, body, span.Traceparent())
		if err != nil {
			// Connection-level failure: the shard is gone right now.
			// Tell the prober so the very next session routes around it.
			span.End()
			rt.prober.markDown(shard)
			rt.say("fleet: %s unreachable, rerouting: %v", shard, err)
			lastErr = err
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			// Draining or at MaxInflight: healthy but not accepting.
			span.End()
			resp.Body.Close()
			lastErr = fmt.Errorf("%s answered 503", shard)
			continue
		}
		if shard != cands[0] {
			rt.rerouted.Inc()
		}
		rt.relay(w, resp, shard, rc)
		span.End()
		return
	}
	rt.rejected.Inc()
	rc.fail("no shard accepted after %d attempts", attempts)
	writeError(w, http.StatusServiceUnavailable, CodeFleetUnavailable,
		"no shard accepted the session after %d attempts: %v", attempts, lastErr)
}

// withSpans rewrites the request body with "spans": true so the shard
// appends its span-tree trailer. A body that fails to round-trip is
// forwarded unchanged — the session then simply exports without shard
// spans rather than failing.
func withSpans(body []byte) []byte {
	var fields map[string]any
	if err := json.Unmarshal(body, &fields); err != nil {
		return body
	}
	fields["spans"] = true
	b, err := json.Marshal(fields)
	if err != nil {
		return body
	}
	return b
}

// send issues the shard sub-request. When the router runs its own trace
// (tp non-empty) the sub-request carries the router span's traceparent,
// so the shard's trace hangs off that span while sharing the client's
// trace ID; otherwise the client's header is forwarded verbatim.
func (rt *Router) send(r *http.Request, shard string, body []byte, tp string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, shard+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tp == "" {
		tp = r.Header.Get("Traceparent")
	}
	if tp != "" {
		req.Header.Set("Traceparent", tp)
	}
	return rt.client.Do(req)
}

// relay streams the shard response to the client line by line, flushing
// per line so NDJSON arrives as the shard emits it. Along the way it
// notes the first answers event (TTFA), counts the shard's answers, and
// harvests spans trailers into the route context — forwarding them only
// when the client itself asked for spans.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, shard string, rc *routeCtx) {
	defer resp.Body.Close()
	if g := rt.inflight[shard]; g != nil {
		g.Add(1)
		defer g.Add(-1)
	}
	rt.proxied.Inc()
	if stats := rt.stats[shard]; stats != nil {
		stats.sessions.Inc()
		defer func() { stats.latency.ObserveSince(rc.start) }()
	}
	for _, h := range []string{"Content-Type", "Traceparent"} {
		if h == "Traceparent" && rc.tr != nil {
			continue // the client already has the router's traceparent
		}
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if resp.StatusCode != http.StatusOK {
		rc.fail("shard %s answered %d", shard, resp.StatusCode)
	}
	w.WriteHeader(resp.StatusCode)
	fw := &flushWriter{w: w}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []byte // reused per line; sc.Bytes must not be appended to
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, answersPrefix):
			if rc.ttfa == 0 {
				rc.ttfa = time.Since(rc.start)
			}
			if stats := rt.stats[shard]; stats != nil {
				stats.answers.Add(int64(answerCount(line)))
			}
		case bytes.HasPrefix(line, spansPrefix):
			var e server.Event
			if json.Unmarshal(line, &e) == nil && e.Trace != nil {
				rc.snaps = append(rc.snaps, *e.Trace)
			}
			if !rc.wantSpans {
				continue
			}
		case bytes.HasPrefix(line, errorPrefix):
			rc.errored = true
		}
		out = append(append(out[:0], line...), '\n')
		if _, err := fw.Write(out); err != nil {
			// Headers (and possibly bytes) are out: nothing to retry.
			rt.say("fleet: mid-stream copy from %s failed: %v", shard, err)
			return
		}
	}
	if err := sc.Err(); err != nil {
		rt.say("fleet: mid-stream copy from %s failed: %v", shard, err)
	}
}

// Event prefixes the relay dispatches on. The shard writes events with
// json.Marshal on a struct whose first field is Event, so the prefix
// match is exact, not heuristic.
var (
	answersPrefix = []byte(`{"event":"answers"`)
	spansPrefix   = []byte(`{"event":"spans"`)
	errorPrefix   = []byte(`{"event":"error"`)
)

// answerCount extracts the answer count from an answers event line.
func answerCount(line []byte) int {
	var e struct {
		Answers []json.RawMessage `json:"answers"`
	}
	if json.Unmarshal(line, &e) != nil {
		return 0
	}
	return len(e.Answers)
}

// flushWriter flushes after every write so line-buffered shard output
// reaches the client without router-side batching.
type flushWriter struct{ w http.ResponseWriter }

func (f *flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if fl, ok := f.w.(http.Flusher); ok {
		fl.Flush()
	}
	return n, err
}

// backoffFor doubles base per attempt, capped at one second.
func backoffFor(base time.Duration, attempt int) time.Duration {
	d := base << attempt
	if d > time.Second || d <= 0 {
		d = time.Second
	}
	return d
}

// scatterGather partitions the plan space across every healthy shard
// (residue classes of the deterministic enumeration order) and merges
// the per-shard streams back into the canonical (utility, plan key)
// order. For prefix-independent measures the gathered plan and answers
// events are byte-identical to a single qpserved executing the same
// request — see core.NewPISharded for the argument. The shard count is
// fixed at launch; a shard dying mid-gather fails the stream with an
// error event rather than silently dropping its slice of the plan space.
func (rt *Router) scatterGather(w http.ResponseWriter, r *http.Request, body []byte, probe routeProbe, rc *routeCtx) {
	if probe.Algorithm != "" && probe.Algorithm != "pi" {
		rc.fail("scatter with non-pi algorithm")
		writeError(w, http.StatusBadRequest, server.CodeInvalidShard,
			"scatter requires algorithm pi, got %q", probe.Algorithm)
		return
	}
	var fields map[string]any
	if err := json.Unmarshal(body, &fields); err != nil {
		rc.fail("decoding request: %v", err)
		writeError(w, http.StatusBadRequest, server.CodeBadJSON, "decoding request: %v", err)
		return
	}
	delete(fields, "scatter")
	if probe.Algorithm == "" {
		// The shard default is streamer; sharding is a PI contract.
		fields["algorithm"] = "pi"
	}
	if rc.tr != nil {
		// Every slice returns its span tree for the unified export; the
		// trailers stay out of the client stream unless the client opted
		// in via its own "spans": true (still set in fields).
		fields["spans"] = true
	}
	pick := rc.tr.StartSpan("router/pick")
	shards := rt.prober.healthy()
	if len(shards) == 0 {
		// Same fallback as the affinity path: an all-timeouts probe round
		// must not reject sessions the shards would happily serve.
		shards = rt.prober.all()
	}
	pick.End()
	n := len(shards)
	if n == 0 {
		rt.rejected.Inc()
		rc.fail("no healthy shards")
		writeError(w, http.StatusServiceUnavailable, CodeFleetUnavailable, "no healthy shards")
		return
	}
	k := probe.K
	if k <= 0 {
		k = rt.cfg.DefaultK
	}

	start := rc.start
	streams := make([]*shardStream, n)
	var sliceSpans []*obs.TraceSpan
	if rc.tr != nil {
		sliceSpans = make([]*obs.TraceSpan, n)
		for i := range sliceSpans {
			sliceSpans[i] = rc.tr.StartSpan(fmt.Sprintf("router/slice%d", i))
		}
	}
	endSlices := func() {
		for i, sp := range sliceSpans {
			if streams[i] != nil {
				sp.Annotate(streams[i].shard)
			}
			sp.End()
		}
		sliceSpans = nil
	}
	defer endSlices()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		fields["shard"] = map[string]int{"index": i, "count": n}
		slice, err := json.Marshal(fields)
		if err != nil {
			rc.fail("encoding slice: %v", err)
			writeError(w, http.StatusInternalServerError, server.CodeInternal, "encoding slice: %v", err)
			return
		}
		tp := ""
		if rc.tr != nil {
			tp = sliceSpans[i].Traceparent()
		}
		wg.Add(1)
		go func(i int, slice []byte, tp string) {
			defer wg.Done()
			streams[i], errs[i] = rt.openSlice(r, shards, i, slice, tp)
		}(i, slice, tp)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		for _, ss := range streams {
			if ss != nil {
				ss.close()
			}
		}
		rt.rejected.Inc()
		rc.fail("scatter setup failed: %v", err)
		var se *sliceError
		if asSliceError(err, &se) && se.status != 0 && se.status != http.StatusServiceUnavailable {
			// A shard rejected the request itself (bad measure, parse
			// error, ...): relay its structured error verbatim.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(se.status)
			_, _ = w.Write(se.body)
			return
		}
		writeError(w, http.StatusServiceUnavailable, CodeFleetUnavailable, "scatter setup failed: %v", err)
		return
	}
	defer func() {
		for _, ss := range streams {
			ss.close()
		}
	}()
	for _, ss := range streams {
		if stats := rt.stats[ss.shard]; stats != nil {
			stats.sessions.Inc()
			defer func(stats *shardStats) { stats.latency.ObserveSince(start) }(stats)
		}
	}

	// Prime every cursor before committing the response status: a shard
	// that accepts the request but errors immediately still produces a
	// clean non-200 for the client.
	for _, ss := range streams {
		wg.Add(1)
		go func(ss *shardStream) { defer wg.Done(); ss.advance() }(ss)
	}
	wg.Wait()
	for _, ss := range streams {
		if ss.err != nil {
			rt.rejected.Inc()
			rc.fail("shard stream: %v", ss.err)
			writeError(w, http.StatusBadGateway, CodeShardStream, "%v", ss.err)
			return
		}
	}
	rt.scatters.Inc()

	w.Header().Set("Content-Type", "application/x-ndjson")
	if rc.tr == nil {
		if tp := streams[0].resp.Header.Get("Traceparent"); tp != "" {
			w.Header().Set("Traceparent", tp)
		}
	}
	w.WriteHeader(http.StatusOK)
	emit := func(e server.Event) bool {
		line, err := json.Marshal(e)
		if err != nil {
			return false
		}
		fw := &flushWriter{w: w}
		_, err = fw.Write(append(line, '\n'))
		return err == nil
	}

	sess := server.Event{Event: "session", K: k, Shards: n}
	if s0 := streams[0].session; s0 != nil {
		sess.TraceID = s0.TraceID
		sess.Algorithm = s0.Algorithm
		sess.Measure = s0.Measure
		sess.PlanSpace = s0.PlanSpace
	}
	if !emit(sess) {
		return
	}

	merge := rc.tr.StartSpan("router/merge")
	st := newMergeState()
	for st.emitted < k {
		best := bestHead(streams)
		if best < 0 {
			break
		}
		g := streams[best].head
		if stats := rt.stats[streams[best].shard]; stats != nil && g.answers != nil {
			// Pre-dedup count: the shard's own production, so skew shows
			// even when the merge discards duplicates.
			stats.answers.Add(int64(len(g.answers.Answers)))
		}
		streams[best].advance()
		if err := streams[best].err; err != nil {
			merge.End()
			rc.fail("shard stream: %v", err)
			_ = emit(server.Event{Event: "error", Err: &server.ErrorBody{Code: CodeShardStream, Message: err.Error()}})
			return
		}
		plan, answers := st.take(g)
		if !emit(plan) {
			merge.End()
			return
		}
		if answers != nil {
			if rc.ttfa == 0 {
				rc.ttfa = time.Since(rc.start)
			}
			if !emit(*answers) {
				merge.End()
				return
			}
		}
	}
	merge.End()
	stopped := "plans-exhausted"
	if st.emitted >= k {
		stopped = "max-plans"
	}
	if !emit(server.Event{
		Event: "done", TraceID: sess.TraceID, Stopped: stopped,
		Plans: st.emitted, TotalAnswers: len(st.seen),
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000.0,
	}) {
		return
	}

	if rc.tr == nil && !rc.wantSpans {
		return
	}
	// Drain the spans trailers: they ride after each slice's done event,
	// which the merge may not have consumed (a stream can still be
	// mid-plan when the k-th plan emits elsewhere). The drain closes the
	// slice spans first so the shard trees reparent onto completed spans.
	endSlices()
	drain := rc.tr.StartSpan("router/drain")
	for _, ss := range streams {
		rc.snaps = append(rc.snaps, ss.trailer()...)
	}
	drain.End()
	if rc.wantSpans {
		for i := range rc.snaps {
			// Label each trailer from its own snapshot: without router
			// tracing the shards run under separate trace IDs.
			_ = emit(server.Event{Event: "spans", TraceID: rc.snaps[i].TraceID.String(), Trace: &rc.snaps[i]})
		}
	}
}

// bestHead picks the stream whose head comes first in the canonical
// output order; ties cannot occur (plan keys are unique across slices).
// The merge step is parallel.BestHead — the same contract the in-process
// parallel orderer uses to gather worker results deterministically.
func bestHead(streams []*shardStream) int {
	return parallel.BestHead(len(streams),
		func(i int) bool { return streams[i].head != nil },
		func(i, j int) bool { return betterGroup(streams[i].head, streams[j].head) })
}

// sliceError carries a shard's non-200 setup response for relaying.
type sliceError struct {
	status int
	body   []byte
	msg    string
}

func (e *sliceError) Error() string { return e.msg }

func asSliceError(err error, out **sliceError) bool {
	se, ok := err.(*sliceError)
	if ok {
		*out = se
	}
	return ok
}

func firstError(errs []error) error {
	// Prefer a definitive shard rejection over a transport error so the
	// client sees the most actionable failure.
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var se *sliceError
		if asSliceError(err, &se) && se.status != http.StatusServiceUnavailable {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// openSlice opens slice i's sub-request, retrying on other shards with
// the same bounded backoff as the affinity path. A slice may land on a
// shard already serving another slice — shards are stateless with
// respect to the partition, only the (index, count) pair matters. A
// non-empty tp (the router's per-slice span) replaces the client's
// traceparent so the shard trace reparents onto the router's span.
func (rt *Router) openSlice(r *http.Request, shards []string, i int, body []byte, tp string) (*shardStream, error) {
	var lastErr error
	for attempt := 0; attempt < rt.cfg.Retries; attempt++ {
		if attempt > 0 {
			rt.retried.Inc()
			time.Sleep(backoffFor(rt.cfg.Backoff, attempt-1))
		}
		shard := shards[(i+attempt)%len(shards)]
		ctx, cancel := context.WithCancel(r.Context())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, shard+"/v1/query", bytes.NewReader(body))
		if err != nil {
			cancel()
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		hdr := tp
		if hdr == "" {
			hdr = r.Header.Get("Traceparent")
		}
		if hdr != "" {
			req.Header.Set("Traceparent", hdr)
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			cancel()
			rt.prober.markDown(shard)
			lastErr = fmt.Errorf("slice %d: %s unreachable: %v", i, shard, err)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 64*1024))
			resp.Body.Close()
			cancel()
			lastErr = &sliceError{status: resp.StatusCode, body: b,
				msg: fmt.Sprintf("slice %d: %s answered %d: %s", i, shard, resp.StatusCode, strings.TrimSpace(string(b)))}
			if resp.StatusCode != http.StatusServiceUnavailable {
				// A definitive rejection will repeat on every shard; stop.
				return nil, lastErr
			}
			continue
		}
		return newShardStream(shard, resp, cancel), nil
	}
	return nil, lastErr
}
