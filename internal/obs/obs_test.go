package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	g.Add(1.5)
	if got := g.Value(); got != 4 {
		t.Fatalf("Value = %g, want 4", got)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 100, 0} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 106 {
		t.Fatalf("Count=%d Sum=%d, want 5/106", s.Count, s.Sum)
	}
	if s.Min != 0 || s.Max != 100 {
		t.Fatalf("Min=%d Max=%d, want 0/100", s.Min, s.Max)
	}
	if want := 106.0 / 5; s.Mean != want {
		t.Fatalf("Mean=%g, want %g", s.Mean, want)
	}
	var total int64
	for _, b := range s.Buckets {
		if b.Lo > b.Hi {
			t.Fatalf("bucket %+v has Lo > Hi", b)
		}
		total += b.Count
	}
	if total != s.Count {
		t.Fatalf("bucket counts sum to %d, want %d", total, s.Count)
	}
	h.ObserveSince(time.Now().Add(-time.Millisecond))
	if got := h.Snapshot().Count; got != 6 {
		t.Fatalf("Count after ObserveSince = %d, want 6", got)
	}
}

func TestBucketIndexBounds(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3},
		{math.MaxInt64, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestSpans(t *testing.T) {
	r := NewRegistry()
	tr := NewTrace(r, "req")
	root := tr.StartSpan("order")
	child := root.StartSpan("soundness")
	child.Annotate("checking plan")
	if d := child.End(); d < 0 {
		t.Fatalf("child duration negative: %v", d)
	}
	if d := child.End(); d != 0 {
		t.Fatalf("second End = %v, want 0", d)
	}
	root.End()

	stats := r.Snapshot().Spans
	if len(stats) != 2 {
		t.Fatalf("registry has %d span names, want 2: %+v", len(stats), stats)
	}
	if stats[0].Name != "order" || stats[1].Name != "soundness" {
		t.Fatalf("span names = %q, %q", stats[0].Name, stats[1].Name)
	}
	for _, st := range stats {
		if st.Count != 1 || st.MinNS != st.MaxNS || st.TotalNS != st.MinNS {
			t.Fatalf("aggregate wrong for single span: %+v", st)
		}
	}

	snap := tr.Finish()
	if len(snap.Spans) != 3 { // synthetic root + order + soundness
		t.Fatalf("trace has %d spans, want 3", len(snap.Spans))
	}
	if len(snap.Events) != 1 || snap.Events[0].Msg != "checking plan" {
		t.Fatalf("trace events = %+v", snap.Events)
	}
}

func TestSpanAggregatesMinMax(t *testing.T) {
	r := NewRegistry()
	tr := NewTrace(r, "req")
	for i := 0; i < 3; i++ {
		s := tr.StartSpan("work")
		time.Sleep(time.Duration(i) * time.Millisecond)
		s.End()
	}
	st := r.Snapshot().Spans[0]
	if st.Count != 3 || st.MinNS > st.MaxNS || st.TotalNS < st.MaxNS || st.MaxNS < int64(2*time.Millisecond) {
		t.Fatalf("aggregate inconsistent: %+v", st)
	}
}

// TestTraceOverflowStillAggregates: a trace stops recording span records
// at DefaultMaxTraceSpans, but its registry counts every End.
func TestTraceOverflowStillAggregates(t *testing.T) {
	r := NewRegistry()
	tr := NewTrace(r, "req")
	const n = DefaultMaxTraceSpans + 7
	for i := 0; i < n; i++ {
		tr.StartSpan("s").End()
	}
	snap := tr.Finish()
	if len(snap.Spans) != DefaultMaxTraceSpans+1 || snap.Dropped != n-DefaultMaxTraceSpans {
		t.Fatalf("trace kept %d spans, dropped %d", len(snap.Spans), snap.Dropped)
	}
	if st := r.Snapshot().Spans; len(st) != 1 || st[0].Count != n {
		t.Fatalf("registry spans = %+v, want one row counting %d", st, n)
	}
}

// TestAnalyzeTracesMatchesRegistry: the offline report and a registry
// fed the same span ends build identical SpanAgg rows.
func TestAnalyzeTracesMatchesRegistry(t *testing.T) {
	r := NewRegistry()
	var snaps []TraceSnapshot
	for i := 0; i < 3; i++ {
		tr := NewTrace(r, "req")
		outer := tr.StartSpan("outer")
		for j := 0; j <= i; j++ {
			inner := outer.StartSpan("inner")
			time.Sleep(time.Duration(j) * 100 * time.Microsecond)
			inner.End()
		}
		outer.End()
		snaps = append(snaps, tr.Finish())
	}
	got := AnalyzeTraces(snaps, 100).Spans
	sort.Slice(got, func(i, j int) bool { return got[i].Name < got[j].Name })
	want := r.Snapshot().Spans
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AnalyzeTraces spans = %+v\nregistry spans = %+v", got, want)
	}
	if len(want) != 2 || want[0].Count != 6 || want[1].Count != 3 {
		t.Fatalf("unexpected rows: %+v", want)
	}
}

func TestRegistrySharingAndSnapshot(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("same-name counters are distinct")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("same-name gauges are distinct")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same-name histograms are distinct")
	}
	r.Counter("x").Add(7)
	r.Gauge("g").Set(1.25)
	r.Histogram("h").Observe(9)
	NewTrace(r, "req").StartSpan("phase").End()

	s := r.Snapshot()
	if s.Counters["x"] != 7 || s.Gauges["g"] != 1.25 || s.Histograms["h"].Count != 1 {
		t.Fatalf("snapshot wrong: %+v", s)
	}
	if len(s.Spans) != 1 || s.Spans[0].Name != "phase" || s.Spans[0].Count != 1 {
		t.Fatalf("snapshot spans wrong: %+v", s.Spans)
	}
}

func TestRegistryRenderings(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.streamer.dominance_tests").Add(3)
	r.Gauge("mediator.time_to_first_answer_ns").Set(1500)
	r.Histogram("core.streamer.next_ns").Observe(2048)
	NewTrace(r, "req").StartSpan("mediator/order").End()

	var jsonBuf bytes.Buffer
	if err := r.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(jsonBuf.Bytes(), &snap); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v", err)
	}
	if snap.Counters["core.streamer.dominance_tests"] != 3 {
		t.Fatalf("JSON round-trip lost counter: %+v", snap)
	}

	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"counters:", "core.streamer.dominance_tests", "gauges:",
		"histograms:", "spans:", "mediator/order",
	} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("WriteText output missing %q:\n%s", want, text.String())
		}
	}
}

// TestNilSafety calls every public method on nil receivers; any panic
// fails the test. Disabled instrumentation relies on this.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil Counter value not 0")
	}

	var g *Gauge
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil Gauge value not 0")
	}

	var h *Histogram
	h.Observe(1)
	h.ObserveSince(time.Now())
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil Histogram snapshot not zero")
	}

	var r *Registry
	if r.Counter("c") != nil || r.Gauge("g") != nil || r.Histogram("h") != nil {
		t.Fatal("nil Registry handed out non-nil instruments")
	}
	NewTrace(r, "req").StartSpan("s").End() // a trace bound to nil keeps no aggregates
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Spans) != 0 {
		t.Fatal("nil Registry snapshot not zero")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentRegistry hammers one registry from many goroutines while
// snapshotting; run with -race (CI does) to verify concurrency safety.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("lat")
			g := r.Gauge("g")
			tr := NewTrace(r, "w")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(int64(i % 100))
				g.Add(1)
				if i%500 == 0 {
					s := tr.StartSpan("w")
					s.Annotate("tick")
					s.End()
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("lat").Snapshot().Count; got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("g").Value(); got != workers*perWorker {
		t.Fatalf("gauge = %g, want %d", got, workers*perWorker)
	}
	if got := r.Snapshot().Spans; len(got) != 1 || got[0].Count != workers*perWorker/500 {
		t.Fatalf("spans = %+v, want one row counting %d", got, workers*perWorker/500)
	}
}

// TestDisabledPathAllocs proves the disabled (nil) instruments allocate
// nothing on the hot path.
func TestDisabledPathAllocs(t *testing.T) {
	var c *Counter
	var h *Histogram
	var tr *Trace
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(5)
		sp := tr.StartSpan("x")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f per op, want 0", allocs)
	}
}
