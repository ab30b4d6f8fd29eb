package obs

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the request-scoped half of the observability layer: a
// *Trace is created per request (or per CLI invocation), carries a W3C
// trace ID, collects nested timed spans, a bounded structured event log,
// and the plan-ordering provenance recorded by the orderers, and is
// propagated through context.Context from the serving layer down into
// mediator runs. Like the rest of obs, every method on a nil *Trace or
// nil *TraceSpan is a no-op that performs no allocations, so hot paths
// attach tracing unconditionally.

// TraceID is the 16-byte W3C trace identifier.
type TraceID [16]byte

// SpanID is the 8-byte W3C span (parent) identifier.
type SpanID [8]byte

// IsZero reports whether the ID is all zeros (invalid per W3C).
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the ID is all zeros (invalid per W3C).
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// MarshalText implements encoding.TextMarshaler (JSON renders hex).
func (id TraceID) MarshalText() ([]byte, error) {
	out := make([]byte, 32)
	hex.Encode(out, id[:])
	return out, nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (id *TraceID) UnmarshalText(b []byte) error {
	if len(b) != 32 {
		return fmt.Errorf("obs: trace ID must be 32 hex digits, got %d", len(b))
	}
	_, err := hex.Decode(id[:], b)
	return err
}

// MarshalText implements encoding.TextMarshaler.
func (id SpanID) MarshalText() ([]byte, error) {
	out := make([]byte, 16)
	hex.Encode(out, id[:])
	return out, nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (id *SpanID) UnmarshalText(b []byte) error {
	if len(b) != 16 {
		return fmt.Errorf("obs: span ID must be 16 hex digits, got %d", len(b))
	}
	_, err := hex.Decode(id[:], b)
	return err
}

// NewTraceID returns a random non-zero trace ID.
func NewTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		_, _ = cryptorand.Read(id[:])
	}
	return id
}

// NewSpanID returns a random non-zero span ID.
func NewSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		_, _ = cryptorand.Read(id[:])
	}
	return id
}

// ParseTraceparent parses a W3C traceparent header
// ("version-traceid-parentid-flags", e.g.
// "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"). It returns
// ok=false for anything malformed — wrong field count, bad version,
// wrong-length or non-lowercase-hex IDs, all-zero IDs — and callers are
// expected to start a fresh trace in that case, never to fail the
// request.
func ParseTraceparent(h string) (tid TraceID, parent SpanID, ok bool) {
	// version(2)-traceid(32)-parentid(16)-flags(2) = 55 bytes minimum.
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceID{}, SpanID{}, false
	}
	ver, verOK := hexField(h[0:2])
	if !verOK || ver == "ff" { // "ff" is forbidden by the spec
		return TraceID{}, SpanID{}, false
	}
	if ver == "00" && len(h) != 55 {
		return TraceID{}, SpanID{}, false // version 00 has no suffix
	}
	if len(h) > 55 && h[55] != '-' {
		return TraceID{}, SpanID{}, false // future versions: dash-separated suffix
	}
	tidHex, tidOK := hexField(h[3:35])
	pidHex, pidOK := hexField(h[36:52])
	if _, flagsOK := hexField(h[53:55]); !tidOK || !pidOK || !flagsOK {
		return TraceID{}, SpanID{}, false
	}
	hex.Decode(tid[:], []byte(tidHex))
	hex.Decode(parent[:], []byte(pidHex))
	if tid.IsZero() || parent.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return tid, parent, true
}

// hexField validates a lowercase-hex field (the W3C grammar forbids
// uppercase) and returns it unchanged.
func hexField(s string) (string, bool) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", false
		}
	}
	return s, true
}

// FormatTraceparent renders a version-00 traceparent header with the
// sampled flag set.
func FormatTraceparent(tid TraceID, sid SpanID) string {
	return "00-" + tid.String() + "-" + sid.String() + "-01"
}

// Bounds of a trace's per-request buffers. Requests live for seconds, so
// the buffers are small; overflow increments a dropped counter instead
// of growing.
const (
	DefaultMaxTraceSpans  = 256
	DefaultMaxTraceEvents = 128
	DefaultMaxTracePlans  = 1024
)

// SpanRecord is one completed span of a trace. Offsets are relative to
// the trace start so records serialize compactly and compare across
// machines.
type SpanRecord struct {
	ID      SpanID `json:"id"`
	Parent  SpanID `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// TraceEvent is one structured point annotation on a trace.
type TraceEvent struct {
	OffsetNS int64  `json:"offset_ns"`
	Name     string `json:"name"`
	Msg      string `json:"msg,omitempty"`
}

// PlanProvenance explains why one plan was emitted at its position: the
// conditional utility at selection time and the ordering work the Next
// call that selected it performed. DomWon counts dominance tests in
// which the tested plan was dominated (pruned); DomLost counts tests
// that failed to prune. Refinements and Splits are the abstract-plan
// refinements and plan-space splits of that Next call; Evals the
// utility evaluations.
type PlanProvenance struct {
	Index       int     `json:"index"`
	Algo        string  `json:"algo,omitempty"`
	Plan        string  `json:"plan"`
	Utility     float64 `json:"utility"`
	DomWon      int64   `json:"dom_won"`
	DomLost     int64   `json:"dom_lost"`
	Refinements int64   `json:"refinements"`
	Splits      int64   `json:"splits"`
	Evals       int64   `json:"evals"`

	// Execution ground truth, annotated after the plan runs (zero until
	// then, and absent for plans ordered but never executed): the fresh
	// answers the plan contributed and its execution wall time. Together
	// with Utility these are the per-plan estimate-vs-actual pair the
	// calibration layer aggregates.
	NewAnswers int   `json:"new_answers,omitempty"`
	ExecNS     int64 `json:"exec_ns,omitempty"`
	Executed   bool  `json:"executed,omitempty"`
}

// TraceSnapshot is the serializable form of a finished (or in-flight)
// trace: one NDJSON line of a trace export file, one entry of the
// flight recorder.
type TraceSnapshot struct {
	TraceID    TraceID           `json:"trace_id"`
	RootSpan   SpanID            `json:"root_span"`
	ParentSpan SpanID            `json:"parent_span"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurNS      int64             `json:"dur_ns"`
	Status     string            `json:"status"` // "ok" | "error"
	Error      string            `json:"error,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Spans      []SpanRecord      `json:"spans,omitempty"`
	Events     []TraceEvent      `json:"events,omitempty"`
	Plans      []PlanProvenance  `json:"plans,omitempty"`
	Dropped    int               `json:"dropped,omitempty"`
}

// Trace is one request-scoped trace. All methods are concurrency-safe
// (the mediator's pipelined producer records spans from its own
// goroutine) and nil-safe: a nil *Trace is the disabled state and every
// method on it is a no-op costing no allocations.
type Trace struct {
	id     TraceID
	root   SpanID
	parent SpanID  // remote parent from an accepted traceparent; zero if none
	salt   [8]byte // per-trace random entropy mixed into span IDs
	name   string
	start  time.Time
	reg    *Registry // folds every span End into its aggregates; nil for none

	spanSeq atomic.Uint64 // span-ID allocator; unique within the trace

	mu       sync.Mutex
	spans    []SpanRecord
	events   []TraceEvent
	plans    []PlanProvenance
	attrs    map[string]string
	dropped  int
	errMsg   string
	failed   bool
	finished bool
	dur      time.Duration
}

// NewTrace starts a trace with a fresh random trace ID. Every span the
// trace ends is also folded into reg's per-name span aggregates, so the
// registry and the trace report each phase from the same stopwatch; a
// nil reg keeps no aggregates.
func NewTrace(reg *Registry, name string) *Trace {
	return newTrace(reg, NewTraceID(), SpanID{}, name)
}

// StartRequestTrace starts a trace bound to reg (see NewTrace) for an
// incoming request carrying the given traceparent header. A well-formed
// header joins the caller's trace (same trace ID, the caller's span as
// remote parent); a missing or malformed header starts a fresh trace —
// malformed tracing metadata must never fail a request.
func StartRequestTrace(reg *Registry, name, traceparent string) *Trace {
	tid, parent, ok := ParseTraceparent(traceparent)
	if !ok {
		return NewTrace(reg, name)
	}
	return newTrace(reg, tid, parent, name)
}

func newTrace(reg *Registry, id TraceID, parent SpanID, name string) *Trace {
	t := &Trace{id: id, parent: parent, name: name, start: time.Now(), reg: reg}
	_, _ = cryptorand.Read(t.salt[:])
	t.root = t.nextSpanID()
	return t
}

// nextSpanID allocates the next span ID: the trace-unique sequence
// number mixed with per-trace random entropy, so IDs differ across
// traces and — crucially for fleet-wide stitching — across the
// processes participating in one distributed trace (the router and
// every shard join the same trace ID but draw from independent salts,
// so a reassembled span tree never collides).
func (t *Trace) nextSpanID() SpanID {
	var id SpanID
	seq := t.spanSeq.Add(1)
	binary.BigEndian.PutUint64(id[:], seq)
	for i := 0; i < 6; i++ { // keep the low two sequence bytes readable
		id[i] ^= t.salt[i]
	}
	if id.IsZero() {
		id[7] = 1
	}
	return id
}

// TraceID returns the trace's ID (zero for a nil trace).
func (t *Trace) TraceID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// Traceparent renders the header value identifying this trace's root
// span, for propagation to clients and downstream services.
func (t *Trace) Traceparent() string {
	if t == nil {
		return ""
	}
	return FormatTraceparent(t.id, t.root)
}

// SetAttr attaches a key=value annotation to the trace.
func (t *Trace) SetAttr(k, v string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.attrs == nil {
		t.attrs = make(map[string]string, 4)
	}
	t.attrs[k] = v
	t.mu.Unlock()
}

// SetError marks the trace failed with the given message. The flight
// recorder retains errored traces separately.
func (t *Trace) SetError(msg string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.failed = true
	if t.errMsg == "" {
		t.errMsg = msg
	}
	t.mu.Unlock()
}

// Event appends a structured point annotation (bounded; overflow counts
// as dropped).
func (t *Trace) Event(name, msg string) {
	if t == nil {
		return
	}
	e := TraceEvent{OffsetNS: int64(time.Since(t.start)), Name: name, Msg: msg}
	t.mu.Lock()
	if len(t.events) >= DefaultMaxTraceEvents {
		t.dropped++
	} else {
		t.events = append(t.events, e)
	}
	t.mu.Unlock()
}

// EmitPlan appends one plan's ordering provenance (bounded; overflow
// counts as dropped).
func (t *Trace) EmitPlan(p PlanProvenance) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.plans) >= DefaultMaxTracePlans {
		t.dropped++
	} else {
		t.plans = append(t.plans, p)
	}
	t.mu.Unlock()
}

// AnnotatePlan merges execution ground truth into the earliest
// not-yet-executed provenance record whose Plan key matches: plans are
// emitted and executed in the same order, but matching by key (rather
// than position) stays correct when an adaptive re-ordering abandons
// emitted-ahead records or re-emits a plan under revised statistics.
// No-op when no record matches (the record may have been dropped at the
// provenance bound).
func (t *Trace) AnnotatePlan(planKey string, newAnswers int, execNS int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for i := range t.plans {
		if t.plans[i].Executed || t.plans[i].Plan != planKey {
			continue
		}
		t.plans[i].NewAnswers = newAnswers
		t.plans[i].ExecNS = execNS
		t.plans[i].Executed = true
		break
	}
	t.mu.Unlock()
}

// PlanCount returns how many provenance records the trace holds (0 for
// a nil trace). Orderers rebuilt mid-request use it to continue the
// plan index instead of restarting at zero.
func (t *Trace) PlanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.plans)
}

// Plans returns a copy of the provenance recorded so far (nil for a nil
// trace) — the payload of the serving layer's explain event.
func (t *Trace) Plans() []PlanProvenance {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]PlanProvenance(nil), t.plans...)
}

// TraceSpan is one in-flight timed operation within a trace. Start
// children with StartSpan; End it exactly once. A nil *TraceSpan is a
// no-op.
type TraceSpan struct {
	t      *Trace
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	ended  bool
}

// StartSpan begins a root-parented span. A nil trace yields a nil
// (no-op) span, so callers never branch on whether tracing is enabled.
func (t *Trace) StartSpan(name string) *TraceSpan {
	if t == nil {
		return nil
	}
	return &TraceSpan{t: t, id: t.nextSpanID(), parent: t.root, name: name, start: time.Now()}
}

// StartSpan begins a child span.
func (s *TraceSpan) StartSpan(name string) *TraceSpan {
	if s == nil {
		return nil
	}
	return &TraceSpan{t: s.t, id: s.t.nextSpanID(), parent: s.id, name: name, start: time.Now()}
}

// ID returns the span's ID (zero for a nil span).
func (s *TraceSpan) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Traceparent renders the header value identifying this span, so a
// sub-request issued while the span is open parents under it — the
// cross-process link trace stitching joins on.
func (s *TraceSpan) Traceparent() string {
	if s == nil {
		return ""
	}
	return FormatTraceparent(s.t.id, s.id)
}

// Annotate appends a point event attributed to this span's name.
func (s *TraceSpan) Annotate(msg string) {
	if s == nil {
		return
	}
	s.t.Event(s.name, msg)
}

// End finishes the span, appending its record to the trace (bounded;
// overflow counts as dropped), folding its duration into the bound
// registry's aggregate for its name (unbounded: every End counts), and
// returning the duration. A second End (or End on a nil span) is a no-op
// returning 0.
func (s *TraceSpan) End() time.Duration {
	if s == nil || s.ended {
		return 0
	}
	s.ended = true
	d := time.Since(s.start)
	rec := SpanRecord{
		ID: s.id, Parent: s.parent, Name: s.name,
		StartNS: int64(s.start.Sub(s.t.start)), DurNS: int64(d),
	}
	t := s.t
	t.mu.Lock()
	if len(t.spans) >= DefaultMaxTraceSpans {
		t.dropped++
	} else {
		t.spans = append(t.spans, rec)
	}
	t.mu.Unlock()
	t.reg.observeSpan(s.name, int64(d))
	return d
}

// Finish seals the trace (recording its total duration; later Finish
// calls keep the first) and returns its snapshot. A nil trace yields a
// zero snapshot.
func (t *Trace) Finish() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	if !t.finished {
		t.finished = true
		t.dur = time.Since(t.start)
	}
	t.mu.Unlock()
	return t.Snapshot()
}

// Snapshot copies the trace's current state. The snapshot always
// contains a root span record named after the trace and covering its
// full duration, so span trees reconstructed from exports are rooted.
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	dur := t.dur
	if !t.finished {
		dur = time.Since(t.start)
	}
	s := TraceSnapshot{
		TraceID:    t.id,
		RootSpan:   t.root,
		ParentSpan: t.parent,
		Name:       t.name,
		Start:      t.start,
		DurNS:      int64(dur),
		Status:     "ok",
		Error:      t.errMsg,
		Spans:      make([]SpanRecord, 0, len(t.spans)+1),
		Dropped:    t.dropped,
	}
	if t.failed {
		s.Status = "error"
	}
	s.Spans = append(s.Spans, SpanRecord{ID: t.root, Name: t.name, DurNS: int64(dur)})
	s.Spans = append(s.Spans, t.spans...)
	if len(t.events) > 0 {
		s.Events = append([]TraceEvent(nil), t.events...)
	}
	if len(t.plans) > 0 {
		s.Plans = append([]PlanProvenance(nil), t.plans...)
	}
	if len(t.attrs) > 0 {
		s.Attrs = make(map[string]string, len(t.attrs))
		for k, v := range t.attrs {
			s.Attrs[k] = v
		}
	}
	return s
}

// traceCtxKey keys the trace in a context.Context.
type traceCtxKey struct{}

// WithTrace returns a context carrying the trace. A nil trace returns
// ctx unchanged.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom extracts the trace from a context (nil, hence no-op
// tracing, when absent).
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}
