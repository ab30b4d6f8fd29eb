package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"qporder/internal/costmodel"
	"qporder/internal/execsim"
	"qporder/internal/lav"
	"qporder/internal/measure"
	"qporder/internal/mediator"
	"qporder/internal/schema"
)

// testCatalog is the movie catalog of the mediator tests: two sources per
// bucket, so the fixture query has 4 sound plans.
func testCatalog(t *testing.T) *lav.Catalog {
	t.Helper()
	cat := lav.NewCatalog()
	stats := lav.Stats{Tuples: 50, TransmitCost: 1, Overhead: 10}
	for _, d := range []string{
		"V1(A, M) :- play-in(A, M), american(M)",
		"V3(A, M) :- play-in(A, M)",
		"V4(R, M) :- review-of(R, M)",
		"V5(R, M) :- review-of(R, M)",
	} {
		def := schema.MustParseQuery(d)
		cat.MustAdd(def.Name, def, stats)
	}
	return cat
}

const testQuery = "Q(M, R) :- play-in(A, M), review-of(R, M)"

// testServer boots a server over the movie catalog on an httptest listener.
func testServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Catalog: testCatalog(t), Seed: 1}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a query request and decodes the whole NDJSON stream.
func post(t *testing.T, url string, req queryRequest) (int, []Event) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
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
	return resp.StatusCode, events
}

func TestQueryStream(t *testing.T) {
	_, ts := testServer(t, nil)
	status, events := post(t, ts.URL, queryRequest{Query: testQuery, K: 10})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(events) < 3 {
		t.Fatalf("stream too short: %+v", events)
	}
	if events[0].Event != "session" || events[0].Cache != "miss" {
		t.Errorf("first event %+v, want a session miss", events[0])
	}
	if events[0].PlanSpace == 0 {
		t.Error("session event has no plan space size")
	}
	last := events[len(events)-1]
	if last.Event != "done" {
		t.Fatalf("last event %+v, want done", last)
	}
	if last.Stopped != string(mediator.StopExhausted) {
		t.Errorf("stopped %q, want %q", last.Stopped, mediator.StopExhausted)
	}
	if last.Plans != 4 {
		t.Errorf("executed %d plans, want 4", last.Plans)
	}
	var plans, answers int
	total := 0
	for _, e := range events[1 : len(events)-1] {
		switch e.Event {
		case "plan":
			plans++
			if e.Index != plans {
				t.Errorf("plan %d has index %d", plans, e.Index)
			}
			if e.Plan == "" {
				t.Errorf("plan event %d has no plan text", plans)
			}
			total = e.TotalAnswers
		case "answers":
			answers += len(e.Answers)
		default:
			t.Errorf("unexpected mid-stream event %q", e.Event)
		}
	}
	if plans != last.Plans {
		t.Errorf("%d plan events, done says %d", plans, last.Plans)
	}
	if answers != last.TotalAnswers || total != last.TotalAnswers {
		t.Errorf("answers: streamed %d, last plan total %d, done %d", answers, total, last.TotalAnswers)
	}
	if last.TotalAnswers == 0 {
		t.Error("no answers streamed")
	}
}

// TestSessionCacheHit: a second request whose query differs only by
// variable names and atom order is served from the session cache.
func TestSessionCacheHit(t *testing.T) {
	s, ts := testServer(t, nil)
	_, events := post(t, ts.URL, queryRequest{Query: testQuery})
	if events[0].Cache != "miss" {
		t.Fatalf("first request cache=%q", events[0].Cache)
	}
	variant := "Q(Movie, Rev) :- review-of(Rev, Movie), play-in(Actor, Movie)"
	_, events = post(t, ts.URL, queryRequest{Query: variant})
	if events[0].Cache != "hit" {
		t.Errorf("renamed+reordered query missed the cache")
	}
	// A semantically different query must not be served from the entry.
	_, events = post(t, ts.URL, queryRequest{Query: "Q(M, R) :- play-in(R, M), review-of(R, M)"})
	if events[0].Cache != "miss" {
		t.Errorf("different query hit the cache")
	}
	snap := s.Registry().Snapshot()
	if snap.Counters["server.cache_hits"] != 1 || snap.Counters["server.cache_misses"] != 2 {
		t.Errorf("cache counters: %+v", snap.Counters)
	}
}

// TestServedPlanOrderMatchesDirect: the streamed plan order is exactly
// what a directly constructed mediator produces for the same query,
// algorithm, and measure — serving adds no nondeterminism.
func TestServedPlanOrderMatchesDirect(t *testing.T) {
	cat := testCatalog(t)
	sys, err := mediator.New(mediator.Config{
		Catalog:   cat,
		Query:     schema.MustParseQuery(testQuery),
		Algorithm: mediator.Streamer,
		Measure: func(entries *lav.Catalog) measure.Measure {
			return costmodel.NewChainCost(entries, costmodel.Params{N: 50000})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := buildStore(cat, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := execsim.NewEngine(cat, store)
	eng.EnableFailures(1 + 2)
	res, err := sys.Run(eng, mediator.Budget{MaxPlans: 10})
	if err != nil {
		t.Fatal(err)
	}

	_, ts := testServer(t, nil)
	plans, err := StreamPlans(context.Background(), ts.URL, LoadConfig{K: 10, Algorithm: "streamer", Measure: "chain"}, testQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != len(res.Executed) {
		t.Fatalf("served %d plans, direct %d", len(plans), len(res.Executed))
	}
	for i := range plans {
		if plans[i] != res.Executed[i].String() {
			t.Errorf("plan %d differs:\n  served %s\n  direct %s", i, plans[i], res.Executed[i])
		}
	}
}

// TestAdmissionOverload: with all slots held and no queue, a request is
// rejected with 503 overloaded rather than piling up.
func TestAdmissionOverload(t *testing.T) {
	s, ts := testServer(t, func(c *Config) {
		c.MaxInflight = 1
		c.MaxQueue = 1
	})
	// Hold the only slot and saturate the queue (white-box: the HTTP
	// path releases them in defer, so occupy directly).
	s.sem <- struct{}{}
	s.waiting.Add(1)
	defer func() { <-s.sem; s.waiting.Add(-1) }()

	status, events := post(t, ts.URL, queryRequest{Query: testQuery})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", status)
	}
	if len(events) != 1 || events[0].Err == nil || events[0].Err.Code != CodeOverloaded {
		t.Errorf("body %+v, want overloaded error", events)
	}
}

// TestDraining: a draining server fails health checks and refuses new
// sessions with 503 draining.
func TestDraining(t *testing.T) {
	s, ts := testServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy server healthz = %d", resp.StatusCode)
	}
	s.SetDraining(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", resp.StatusCode)
	}
	status, events := post(t, ts.URL, queryRequest{Query: testQuery})
	if status != http.StatusServiceUnavailable || len(events) != 1 || events[0].Err == nil || events[0].Err.Code != CodeDraining {
		t.Errorf("draining query: status %d body %+v", status, events)
	}
}

// TestDeadlineCancels: a tiny deadline stops the stream with a canceled
// (or at worst exhausted, on a fast machine) done event, never an error.
func TestDeadlineCancels(t *testing.T) {
	_, ts := testServer(t, nil)
	status, events := post(t, ts.URL, queryRequest{Query: testQuery, DeadlineMS: 1, Parallelism: 2})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	last := events[len(events)-1]
	if last.Event != "done" {
		t.Fatalf("last event %+v, want done", last)
	}
	if last.Stopped != string(mediator.StopCanceled) && last.Stopped != string(mediator.StopExhausted) {
		t.Errorf("stopped %q", last.Stopped)
	}
}

// TestMetricsEndpoints: both renderings of /metrics respond, and the JSON
// form decodes into an obs snapshot with the server instruments present.
func TestMetricsEndpoints(t *testing.T) {
	_, ts := testServer(t, nil)
	post(t, ts.URL, queryRequest{Query: testQuery})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), "server.requests") {
		t.Errorf("text metrics missing server.requests:\n%s", buf.String())
	}
	snap, err := FetchSnapshot(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["server.requests"] == 0 {
		t.Errorf("json metrics missing requests counter: %+v", snap.Counters)
	}
	if snap.Counters["mediator.plans_executed"] == 0 {
		t.Errorf("mediator counters not aggregated into the server registry")
	}
}

// TestRunLoad drives the load generator against a live server: shuffled
// duplicates of one query must produce zero errors and cache hits.
func TestRunLoad(t *testing.T) {
	s, ts := testServer(t, nil)
	rep, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:     ts.URL,
		Queries:     []string{testQuery},
		Requests:    12,
		Concurrency: 4,
		K:           5,
		Shuffle:     true,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("load run had %d errors, first: %s", rep.Errors, rep.FirstError)
	}
	if rep.Requests != 12 {
		t.Errorf("completed %d requests, want 12", rep.Requests)
	}
	if rep.Plans == 0 || rep.Answers == 0 {
		t.Errorf("load run produced no work: %+v", rep)
	}
	if rep.Full.P50 <= 0 || rep.Full.Max < rep.Full.P50 {
		t.Errorf("suspicious latency quantiles: %+v", rep.Full)
	}
	snap := s.Registry().Snapshot()
	if snap.Counters["server.cache_hits"] == 0 {
		t.Error("no session-cache hits across 12 shuffled duplicates")
	}
	if got := snap.Counters["server.cache_misses"]; got != 1 {
		t.Errorf("cache misses = %d, want 1 (identical canonical queries)", got)
	}
}

// TestQPSPacing: open-loop pacing spreads request starts, so a paced run
// takes at least (requests-1)/QPS.
func TestQPSPacing(t *testing.T) {
	_, ts := testServer(t, nil)
	start := time.Now()
	rep, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:     ts.URL,
		Queries:     []string{testQuery},
		Requests:    6,
		Concurrency: 6,
		K:           1,
		QPS:         50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("paced run had errors: %s", rep.FirstError)
	}
	if min := 5 * (time.Second / 50); time.Since(start) < min {
		t.Errorf("paced run finished in %v, want >= %v", time.Since(start), min)
	}
}

// TestConcurrentRequestsShareOnePrepared: requests that arrive together
// for one cold canonical key share one cached mediator.Prepared, so
// their sessions fill its soundness memo concurrently, some on a
// pipelined producer goroutine. Every stream must carry the plans a
// lone request gets; under -race this checks the shared memo.
func TestConcurrentRequestsShareOnePrepared(t *testing.T) {
	cfg := LoadConfig{K: 10, Algorithm: "streamer", Measure: "chain", Parallelism: 2}
	_, lone := testServer(t, nil)
	want, err := StreamPlans(context.Background(), lone.URL, cfg, testQuery)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := testServer(t, nil)
	const workers = 6
	got := make([][]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = StreamPlans(context.Background(), ts.URL, cfg, testQuery)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("request %d streamed %v, a lone request %v", i, got[i], want)
		}
	}
	if n := s.Registry().Snapshot().Counters["server.cache_misses"]; n != 1 {
		t.Errorf("cache misses = %d, want 1 (one shared Prepared)", n)
	}
}
