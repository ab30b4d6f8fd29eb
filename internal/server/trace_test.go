package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"qporder/internal/obs"
)

const clientTraceparent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"

// postWithHeader sends a query request with a traceparent header and
// returns the status, the response's Traceparent header, and the stream.
func postWithHeader(t *testing.T, url, traceparent string, req queryRequest) (int, string, []Event) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if traceparent != "" {
		hreq.Header.Set("Traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Traceparent"), events
}

// eventByName returns the first event of the given kind.
func eventByName(events []Event, name string) (Event, bool) {
	for _, e := range events {
		if e.Event == name {
			return e, true
		}
	}
	return Event{}, false
}

// TestTraceparentRoundTrip: a well-formed inbound traceparent joins the
// caller's trace — the response header, the stream's trace IDs, and the
// flight recorder all carry the caller's trace ID.
func TestTraceparentRoundTrip(t *testing.T) {
	s, ts := testServer(t, nil)
	status, tp, events := postWithHeader(t, ts.URL, clientTraceparent, queryRequest{Query: testQuery, K: 4})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	tid, root, ok := obs.ParseTraceparent(tp)
	if !ok {
		t.Fatalf("response Traceparent %q does not parse", tp)
	}
	if got := tid.String(); got != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("response trace ID %s, want the caller's", got)
	}
	if root.String() == "b7ad6b7169203331" {
		t.Fatal("response reused the caller's span ID as its root")
	}
	sess, ok := eventByName(events, "session")
	if !ok || sess.TraceID != tid.String() {
		t.Fatalf("session event trace ID %q, want %s", sess.TraceID, tid)
	}
	done, ok := eventByName(events, "done")
	if !ok || done.TraceID != tid.String() {
		t.Fatalf("done event trace ID %q, want %s", done.TraceID, tid)
	}
	snap, found := s.flight.Find(tid)
	if !found {
		t.Fatal("flight recorder did not retain the request")
	}
	if snap.Status != "ok" || len(snap.Spans) < 2 || snap.Attrs["query"] == "" {
		t.Fatalf("retained trace looks wrong: status=%s spans=%d attrs=%v", snap.Status, len(snap.Spans), snap.Attrs)
	}
	if got := snap.ParentSpan.String(); got != "b7ad6b7169203331" {
		t.Fatalf("retained trace parent span %s, want the caller's", got)
	}
}

// TestMalformedTraceparentStartsFresh is the satellite guarantee at the
// HTTP layer: a malformed header must not fail the request and must not
// be joined — the server starts a fresh trace.
func TestMalformedTraceparentStartsFresh(t *testing.T) {
	_, ts := testServer(t, nil)
	for _, h := range []string{
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",
		"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01",
		"garbage",
	} {
		status, tp, events := postWithHeader(t, ts.URL, h, queryRequest{Query: testQuery, K: 2})
		if status != http.StatusOK {
			t.Fatalf("header %q: status %d, want 200", h, status)
		}
		tid, _, ok := obs.ParseTraceparent(tp)
		if !ok || tid.IsZero() {
			t.Fatalf("header %q: response Traceparent %q invalid", h, tp)
		}
		if tid.String() == "0af7651916cd43dd8448eb211c80319c" {
			t.Fatalf("header %q: server joined a malformed trace", h)
		}
		if sess, ok := eventByName(events, "session"); !ok || sess.TraceID != tid.String() {
			t.Fatalf("header %q: session trace ID %q != header %s", h, sess.TraceID, tid)
		}
	}
}

// TestExplainEvent: explain:true yields one explain event before done,
// carrying a provenance record per plan event with matching utilities.
func TestExplainEvent(t *testing.T) {
	_, ts := testServer(t, nil)
	status, _, events := postWithHeader(t, ts.URL, "", queryRequest{Query: testQuery, K: 10, Explain: true})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	ex, ok := eventByName(events, "explain")
	if !ok {
		t.Fatal("no explain event in the stream")
	}
	if ex.TraceID == "" {
		t.Fatal("explain event has no trace ID")
	}
	var planEvents []Event
	sawExplain := false
	for _, e := range events {
		switch e.Event {
		case "plan":
			if sawExplain {
				t.Fatal("plan event after the explain event")
			}
			planEvents = append(planEvents, e)
		case "explain":
			sawExplain = true
		case "done":
			if !sawExplain {
				t.Fatal("done event before the explain event")
			}
		}
	}
	if len(planEvents) == 0 {
		t.Fatal("no plan events")
	}
	// Provenance covers every plan the orderer emitted — at least the
	// executed (sound) ones the stream carries.
	if len(ex.Explain) < len(planEvents) {
		t.Fatalf("%d provenance records for %d executed plans", len(ex.Explain), len(planEvents))
	}
	utilities := map[float64]bool{}
	for _, p := range ex.Explain {
		if p.Plan == "" {
			t.Fatalf("provenance record without a plan: %+v", p)
		}
		utilities[p.Utility] = true
	}
	for _, e := range planEvents {
		if !utilities[e.Utility] {
			t.Fatalf("plan event utility %g has no matching provenance record", e.Utility)
		}
	}
	// Without explain, no explain event.
	_, _, plain := postWithHeader(t, ts.URL, "", queryRequest{Query: testQuery, K: 2})
	if _, ok := eventByName(plain, "explain"); ok {
		t.Fatal("explain event present without explain:true")
	}
}

// TestDebugRequestsEndpoint: text view, JSON view, single-trace lookup,
// and the two error shapes.
func TestDebugRequestsEndpoint(t *testing.T) {
	_, ts := testServer(t, nil)
	_, tp, _ := postWithHeader(t, ts.URL, "", queryRequest{Query: testQuery, K: 2})
	tid, _, _ := obs.ParseTraceparent(tp)
	post(t, ts.URL, queryRequest{Query: "nonsense ]["}) // an errored request for the errored ring

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	status, text := get("/debug/requests")
	if status != http.StatusOK || !strings.Contains(text, tid.String()) {
		t.Fatalf("text view: status %d, body missing trace ID:\n%s", status, text)
	}
	if !strings.Contains(text, "errored (newest first):") {
		t.Fatalf("text view missing errored section:\n%s", text)
	}

	status, body := get("/debug/requests?format=json")
	if status != http.StatusOK {
		t.Fatalf("json view: status %d", status)
	}
	var snap obs.FlightSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("json view does not decode: %v", err)
	}
	if snap.Total < 2 || len(snap.Recent) < 2 || len(snap.Errored) == 0 {
		t.Fatalf("json view: total=%d recent=%d errored=%d", snap.Total, len(snap.Recent), len(snap.Errored))
	}

	status, body = get("/debug/requests?trace=" + tid.String())
	if status != http.StatusOK {
		t.Fatalf("trace lookup: status %d", status)
	}
	var one obs.TraceSnapshot
	if err := json.Unmarshal([]byte(body), &one); err != nil || one.TraceID != tid {
		t.Fatalf("trace lookup returned %v (err %v)", one.TraceID, err)
	}

	if status, body = get("/debug/requests?trace=zzz"); status != http.StatusBadRequest || !strings.Contains(body, CodeBadTraceID) {
		t.Fatalf("bad id: status %d body %s", status, body)
	}
	unknown := obs.NewTraceID().String()
	if status, body = get("/debug/requests?trace=" + unknown); status != http.StatusNotFound || !strings.Contains(body, CodeTraceNotFound) {
		t.Fatalf("unknown id: status %d body %s", status, body)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing exports.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTraceExportAndLogging: every request (ok and errored) lands in the
// -trace-out NDJSON export, the export re-ingests through obs.ReadTraces
// (the qptrace path), and the structured log carries the trace ID.
func TestTraceExportAndLogging(t *testing.T) {
	var exported, logged syncBuffer
	_, ts := testServer(t, func(cfg *Config) {
		cfg.TraceOut = &exported
		cfg.Logger = slog.New(slog.NewTextHandler(&logged, nil))
	})
	_, tp, _ := postWithHeader(t, ts.URL, "", queryRequest{Query: testQuery, K: 3})
	tid, _, _ := obs.ParseTraceparent(tp)
	post(t, ts.URL, queryRequest{Query: "nonsense ]["})

	traces, err := obs.ReadTraces(strings.NewReader(exported.String()))
	if err != nil {
		t.Fatalf("export does not re-ingest: %v", err)
	}
	if len(traces) != 2 {
		t.Fatalf("export holds %d traces, want 2", len(traces))
	}
	byStatus := map[string]obs.TraceSnapshot{}
	for _, tr := range traces {
		byStatus[tr.Status] = tr
	}
	okTrace, found := byStatus["ok"]
	if !found || okTrace.TraceID != tid {
		t.Fatalf("no ok trace with ID %s in export: %+v", tid, byStatus)
	}
	if len(okTrace.Plans) == 0 {
		t.Fatal("exported ok trace has no provenance records")
	}
	errTrace, found := byStatus["error"]
	if !found || errTrace.Error == "" || errTrace.Attrs["code"] != CodeParseError {
		t.Fatalf("errored request not exported usefully: %+v", errTrace)
	}

	rep := obs.AnalyzeTraces(traces, 5)
	if rep.Traces != 2 || rep.Errors != 1 || rep.Plans == 0 {
		t.Fatalf("analysis of the export looks wrong: %+v", rep)
	}

	logs := logged.String()
	if !strings.Contains(logs, "trace_id="+tid.String()) {
		t.Fatalf("log lines not correlated by trace ID:\n%s", logs)
	}
	if !strings.Contains(logs, "level=WARN") {
		t.Fatalf("errored request not logged at warn:\n%s", logs)
	}
}

// TestLoadgenRecordsSlowest: the load generator sends traceparents and
// reports the trace IDs of its slowest sessions, duration-descending.
func TestLoadgenRecordsSlowest(t *testing.T) {
	s, ts := testServer(t, nil)
	rep, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:     ts.URL,
		Queries:     []string{testQuery},
		Requests:    8,
		Concurrency: 2,
		K:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("load run had %d errors: %s", rep.Errors, rep.FirstError)
	}
	if len(rep.Slowest) == 0 || len(rep.Slowest) > 5 {
		t.Fatalf("slowest = %d entries, want 1..5", len(rep.Slowest))
	}
	for i, sl := range rep.Slowest {
		var id obs.TraceID
		if err := id.UnmarshalText([]byte(sl.TraceID)); err != nil || id.IsZero() {
			t.Fatalf("slowest[%d] trace ID %q invalid: %v", i, sl.TraceID, err)
		}
		if sl.FullMS <= 0 {
			t.Fatalf("slowest[%d] duration %g", i, sl.FullMS)
		}
		if i > 0 && sl.FullMS > rep.Slowest[i-1].FullMS {
			t.Fatalf("slowest not sorted: %g after %g", sl.FullMS, rep.Slowest[i-1].FullMS)
		}
		if _, ok := s.flight.Find(id); !ok {
			t.Fatalf("slowest[%d] trace %s not in the server's flight recorder", i, sl.TraceID)
		}
	}
}

// TestMetricsSpansMatchRequestTraces: /metrics and /debug/requests time
// each phase with the same TraceSpan.End, so for every span name the
// registry's count and total_ns equal the sums over the retained traces
// exactly.
func TestMetricsSpansMatchRequestTraces(t *testing.T) {
	_, ts := testServer(t, func(c *Config) { c.FlightEntries = 64 })
	for i, req := range []queryRequest{
		{Query: testQuery, K: 4},
		{Query: "Q(X, Y) :- review-of(Y, X), play-in(B, X)", K: 2}, // cache hit
		{Query: testQuery, K: 4, Algorithm: "idrips", Explain: true},
		{Query: testQuery, K: 4, Parallelism: 2},
		{Query: "not a query"}, // rejected after server/parse
	} {
		want := http.StatusOK
		if i == 4 {
			want = http.StatusBadRequest
		}
		if status, _ := post(t, ts.URL, req); status != want {
			t.Fatalf("request %d: status %d, want %d", i, status, want)
		}
	}

	resp, err := http.Get(ts.URL + "/debug/requests?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var flight obs.FlightSnapshot
	err = json.NewDecoder(resp.Body).Decode(&flight)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if flight.Total != 5 || len(flight.Recent) != 5 {
		t.Fatalf("flight recorder kept %d of %d requests, want 5", len(flight.Recent), flight.Total)
	}
	want := map[string]obs.SpanAgg{}
	for _, tr := range flight.Recent {
		if tr.Dropped != 0 {
			t.Fatalf("trace %s dropped %d records", tr.TraceID, tr.Dropped)
		}
		for _, sp := range tr.Spans {
			if sp.ID == tr.RootSpan {
				continue // the synthetic root is not a timed span
			}
			a := want[sp.Name]
			a.Count++
			a.TotalNS += sp.DurNS
			want[sp.Name] = a
		}
	}

	snap, err := FetchSnapshot(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]obs.SpanAgg{}
	for _, a := range snap.Spans {
		got[a.Name] = obs.SpanAgg{Count: a.Count, TotalNS: a.TotalNS}
	}
	if len(got) != len(want) {
		t.Errorf("/metrics has %d span names, traces have %d:\n%+v\n%+v", len(got), len(want), got, want)
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("span %s: /metrics count=%d total_ns=%d, traces count=%d total_ns=%d",
				name, g.Count, g.TotalNS, w.Count, w.TotalNS)
		}
	}
	for _, name := range []string{"server/parse", "mediator/run", "mediator/order", "mediator/execute"} {
		if got[name].Count == 0 {
			t.Errorf("/metrics lists no %s spans", name)
		}
	}
}
