package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

const wellFormedTraceparent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"

// TestParseTraceparentTable covers the W3C header grammar: the well-formed
// shapes parse, and every malformed shape is rejected (ok=false) without
// error — callers start a fresh trace instead.
func TestParseTraceparentTable(t *testing.T) {
	cases := []struct {
		name string
		in   string
		ok   bool
	}{
		{"valid version 00", wellFormedTraceparent, true},
		{"valid other version", "01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", true},
		{"valid future version with suffix", "cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra", true},
		{"flags not sampled", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00", true},
		{"empty", "", false},
		{"garbage", "not-a-traceparent", false},
		{"bad version ff", "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", false},
		{"uppercase version", "0A-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", false},
		{"version 00 with suffix", wellFormedTraceparent + "-extra", false},
		{"suffix without dash", wellFormedTraceparent + "extra", false},
		{"short trace id", "00-0af7651916cd43dd8448eb211c8031-b7ad6b7169203331-01", false},
		{"short span id", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b71692033-01", false},
		{"non-hex trace id", "00-0af7651916cd43dd8448eb211c80319z-b7ad6b7169203331-01", false},
		{"uppercase trace id", "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01", false},
		{"non-hex flags", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0g", false},
		{"all-zero trace id", "00-00000000000000000000000000000000-b7ad6b7169203331-01", false},
		{"all-zero span id", "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", false},
		{"missing dashes", "000af7651916cd43dd8448eb211c80319cb7ad6b716920333101xxx", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tid, parent, ok := ParseTraceparent(tc.in)
			if ok != tc.ok {
				t.Fatalf("ParseTraceparent(%q) ok = %v, want %v", tc.in, ok, tc.ok)
			}
			if !ok {
				if !tid.IsZero() || !parent.IsZero() {
					t.Fatalf("malformed header returned non-zero IDs: %s %s", tid, parent)
				}
				return
			}
			if got := tid.String(); got != "0af7651916cd43dd8448eb211c80319c" {
				t.Fatalf("trace ID = %s", got)
			}
			if got := parent.String(); got != "b7ad6b7169203331" {
				t.Fatalf("parent span ID = %s", got)
			}
		})
	}
}

// TestStartRequestTraceMalformed is the satellite guarantee: any malformed
// traceparent starts a fresh trace — the request never fails and never
// inherits a bogus ID.
func TestStartRequestTraceMalformed(t *testing.T) {
	malformed := []string{
		"",
		"00",
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
		"00-XYZ7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		wellFormedTraceparent + "-extra",
	}
	for _, h := range malformed {
		tr := StartRequestTrace(nil, "req", h)
		if tr == nil {
			t.Fatalf("StartRequestTrace(%q) = nil", h)
		}
		if tr.TraceID().IsZero() {
			t.Fatalf("StartRequestTrace(%q) has zero trace ID", h)
		}
		if tr.TraceID().String() == "0af7651916cd43dd8448eb211c80319c" {
			t.Fatalf("StartRequestTrace(%q) joined a malformed header's trace", h)
		}
		if !tr.Finish().ParentSpan.IsZero() {
			t.Fatalf("StartRequestTrace(%q) recorded a remote parent", h)
		}
	}
}

// TestStartRequestTraceJoins checks the well-formed path: same trace ID,
// caller's span retained as remote parent, and the response traceparent
// carries the joined trace ID with a fresh local root span.
func TestStartRequestTraceJoins(t *testing.T) {
	tr := StartRequestTrace(nil, "req", wellFormedTraceparent)
	if got := tr.TraceID().String(); got != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("trace ID = %s, want the header's", got)
	}
	tid, root, ok := ParseTraceparent(tr.Traceparent())
	if !ok {
		t.Fatalf("Traceparent() %q does not parse", tr.Traceparent())
	}
	if tid != tr.TraceID() {
		t.Fatalf("Traceparent carries trace ID %s, want %s", tid, tr.TraceID())
	}
	if root.String() == "b7ad6b7169203331" {
		t.Fatal("root span reused the caller's span ID")
	}
	snap := tr.Finish()
	if got := snap.ParentSpan.String(); got != "b7ad6b7169203331" {
		t.Fatalf("ParentSpan = %s, want the caller's span", got)
	}
	if snap.RootSpan != root {
		t.Fatalf("RootSpan = %s, want %s", snap.RootSpan, root)
	}
}

func TestFormatTraceparentRoundTrip(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	h := FormatTraceparent(tid, sid)
	gotT, gotS, ok := ParseTraceparent(h)
	if !ok || gotT != tid || gotS != sid {
		t.Fatalf("round trip of %q failed: %v %s %s", h, ok, gotT, gotS)
	}
}

// TestTraceSpansEventsPlans exercises the recording surface and checks
// the snapshot: synthetic root span, parenting, events, provenance,
// attrs, and error status.
func TestTraceSpansEventsPlans(t *testing.T) {
	tr := NewTrace(nil, "req")
	tr.SetAttr("query", "Q(x)")
	sp := tr.StartSpan("order")
	child := sp.StartSpan("refine")
	child.Annotate("deepened")
	if child.End() < 0 {
		t.Fatal("negative span duration")
	}
	if sp.End() <= 0 {
		t.Fatal("span duration not positive")
	}
	if d := sp.End(); d != 0 {
		t.Fatalf("second End = %v, want 0", d)
	}
	tr.Event("adaptive/reorder", "drift")
	tr.EmitPlan(PlanProvenance{Index: 0, Algo: "greedy", Plan: "1|2", Utility: 0.5, Evals: 3})
	if n := tr.PlanCount(); n != 1 {
		t.Fatalf("PlanCount = %d, want 1", n)
	}
	tr.SetError("boom")

	snap := tr.Finish()
	if snap.Status != "error" || snap.Error != "boom" {
		t.Fatalf("status = %s error = %q", snap.Status, snap.Error)
	}
	if snap.Attrs["query"] != "Q(x)" {
		t.Fatalf("attrs = %v", snap.Attrs)
	}
	if len(snap.Spans) != 3 { // synthetic root + order + refine
		t.Fatalf("spans = %d, want 3", len(snap.Spans))
	}
	if snap.Spans[0].ID != snap.RootSpan || snap.Spans[0].Name != "req" {
		t.Fatalf("first span is not the synthetic root: %+v", snap.Spans[0])
	}
	byName := map[string]SpanRecord{}
	for _, s := range snap.Spans {
		byName[s.Name] = s
	}
	if byName["order"].Parent != snap.RootSpan {
		t.Fatal("order span not parented to root")
	}
	if byName["refine"].Parent != byName["order"].ID {
		t.Fatal("refine span not parented to order")
	}
	if len(snap.Events) != 2 { // Annotate + Event
		t.Fatalf("events = %d, want 2", len(snap.Events))
	}
	if len(snap.Plans) != 1 || snap.Plans[0].Plan != "1|2" {
		t.Fatalf("plans = %+v", snap.Plans)
	}
}

// TestTraceBounds: overflowing any of the bounded buffers increments
// Dropped instead of growing.
func TestTraceBounds(t *testing.T) {
	tr := NewTrace(nil, "req")
	const extra = 5
	for i := 0; i < DefaultMaxTraceSpans+extra; i++ {
		tr.StartSpan("s").End()
	}
	for i := 0; i < DefaultMaxTraceEvents+extra; i++ {
		tr.Event("e", "")
	}
	for i := 0; i < DefaultMaxTracePlans+extra; i++ {
		tr.EmitPlan(PlanProvenance{Index: i})
	}
	snap := tr.Finish()
	if got := len(snap.Spans); got != DefaultMaxTraceSpans+1 { // +1 synthetic root
		t.Fatalf("spans = %d, want %d", got, DefaultMaxTraceSpans+1)
	}
	if got := len(snap.Events); got != DefaultMaxTraceEvents {
		t.Fatalf("events = %d, want %d", got, DefaultMaxTraceEvents)
	}
	if got := len(snap.Plans); got != DefaultMaxTracePlans {
		t.Fatalf("plans = %d, want %d", got, DefaultMaxTracePlans)
	}
	if snap.Dropped != 3*extra {
		t.Fatalf("dropped = %d, want %d", snap.Dropped, 3*extra)
	}
}

// TestTraceFinishSeals: Finish fixes the duration; later Snapshot and
// Finish calls keep the first measurement.
func TestTraceFinishSeals(t *testing.T) {
	tr := NewTrace(nil, "req")
	first := tr.Finish()
	time.Sleep(5 * time.Millisecond)
	if again := tr.Finish(); again.DurNS != first.DurNS {
		t.Fatalf("second Finish changed duration: %d -> %d", first.DurNS, again.DurNS)
	}
	if snap := tr.Snapshot(); snap.DurNS != first.DurNS {
		t.Fatalf("Snapshot after Finish changed duration: %d -> %d", first.DurNS, snap.DurNS)
	}
}

// TestTraceSnapshotJSONRoundTrip: a snapshot survives the NDJSON export
// format (what -trace-out writes and qptrace reads back).
func TestTraceSnapshotJSONRoundTrip(t *testing.T) {
	tr := StartRequestTrace(nil, "req", wellFormedTraceparent)
	tr.SetAttr("algorithm", "streamer")
	tr.StartSpan("order").End()
	tr.EmitPlan(PlanProvenance{Index: 0, Algo: "streamer", Plan: "2|1", Utility: 1.5, DomWon: 2, DomLost: 1, Evals: 7})
	snap := tr.Finish()

	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"trace_id":"0af7651916cd43dd8448eb211c80319c"`) {
		t.Fatalf("trace ID not rendered as hex: %s", b)
	}
	var back TraceSnapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.TraceID != snap.TraceID || back.RootSpan != snap.RootSpan || back.ParentSpan != snap.ParentSpan {
		t.Fatalf("IDs did not round-trip: %+v vs %+v", back, snap)
	}
	if len(back.Spans) != len(snap.Spans) || back.Attrs["algorithm"] != "streamer" {
		t.Fatalf("spans/attrs did not round-trip: %+v", back)
	}
	if len(back.Plans) != 1 || back.Plans[0] != snap.Plans[0] {
		t.Fatalf("provenance did not round-trip: %+v", back.Plans)
	}
}

func TestWithTraceContext(t *testing.T) {
	if got := TraceFrom(context.Background()); got != nil {
		t.Fatalf("TraceFrom(empty ctx) = %v, want nil", got)
	}
	tr := NewTrace(nil, "req")
	ctx := WithTrace(context.Background(), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Fatalf("TraceFrom = %v, want the stored trace", got)
	}
	base := context.Background()
	if got := WithTrace(base, nil); got != base {
		t.Fatal("WithTrace(ctx, nil) should return ctx unchanged")
	}
}

// TestTraceNilSafety: the disabled state is a nil *Trace; every method
// must be a safe no-op, including on the nil spans it hands out.
func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	if got := tr.TraceID(); !got.IsZero() {
		t.Fatalf("nil TraceID = %s", got)
	}
	if got := tr.Traceparent(); got != "" {
		t.Fatalf("nil Traceparent = %q", got)
	}
	tr.SetAttr("k", "v")
	tr.SetError("boom")
	tr.Event("e", "m")
	tr.EmitPlan(PlanProvenance{})
	if n := tr.PlanCount(); n != 0 {
		t.Fatalf("nil PlanCount = %d", n)
	}
	if p := tr.Plans(); p != nil {
		t.Fatalf("nil Plans = %v", p)
	}
	sp := tr.StartSpan("x")
	if sp != nil {
		t.Fatal("nil trace must yield a nil span")
	}
	sp.Annotate("m")
	if d := sp.End(); d != 0 {
		t.Fatalf("nil span End = %v", d)
	}
	if c := sp.StartSpan("child"); c != nil {
		t.Fatal("nil span must yield a nil child")
	}
	if snap := tr.Finish(); snap.DurNS != 0 || len(snap.Spans) != 0 {
		t.Fatalf("nil Finish = %+v", snap)
	}
	if snap := tr.Snapshot(); snap.Status != "" {
		t.Fatalf("nil Snapshot = %+v", snap)
	}
}

// TestDisabledTraceAllocs proves the nil-trace hot path allocates
// nothing — the zero-overhead guarantee the orderers rely on.
func TestDisabledTraceAllocs(t *testing.T) {
	var tr *Trace
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.StartSpan("x")
		sp.Annotate("m")
		sp.End()
		tr.Event("e", "m")
		tr.EmitPlan(PlanProvenance{})
		_ = tr.PlanCount()
		_ = TraceFrom(ctx)
		_ = WithTrace(ctx, tr)
	})
	if allocs != 0 {
		t.Fatalf("disabled trace path allocates %.1f per op, want 0", allocs)
	}
}

// TestTraceConcurrency hammers one trace from many goroutines; run with
// -race this doubles as the data-race gate for the mediator's pipelined
// producer recording into the request trace.
func TestTraceConcurrency(t *testing.T) {
	tr := StartRequestTrace(nil, "req", wellFormedTraceparent)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ { // 8*30 = 240 spans, under the 256 cap
				sp := tr.StartSpan("work")
				tr.Event("e", "m")
				tr.EmitPlan(PlanProvenance{Index: i})
				tr.SetAttr(fmt.Sprintf("g%d", g), "v")
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	snap := tr.Finish()
	if got := len(snap.Spans); got != 8*30+1 {
		t.Fatalf("spans = %d, want %d", got, 8*30+1)
	}
	seen := map[SpanID]bool{}
	for _, s := range snap.Spans {
		if seen[s.ID] {
			t.Fatalf("duplicate span ID %s", s.ID)
		}
		seen[s.ID] = true
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
}
