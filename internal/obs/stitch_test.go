package obs

import (
	"strings"
	"testing"
	"time"
)

// sid builds a recognizable SpanID for tests.
func sid(b byte) SpanID { return SpanID{b, b, b, b, b, b, b, b} }

// fleetTrace builds a synthetic router + two-shard export: the router's
// snapshot with two slice spans, and one shard snapshot parented under
// each slice span.
func fleetTrace(id TraceID, base time.Time) []TraceSnapshot {
	router := TraceSnapshot{
		TraceID:  id,
		RootSpan: sid(1),
		Name:     "router /v1/query",
		Start:    base,
		DurNS:    int64(100 * time.Millisecond),
		Status:   "ok",
		Spans: []SpanRecord{
			{ID: sid(1), Name: "router /v1/query", DurNS: int64(100 * time.Millisecond)},
			{ID: sid(2), Parent: sid(1), Name: "router/slice0", StartNS: int64(time.Millisecond), DurNS: int64(90 * time.Millisecond)},
			{ID: sid(3), Parent: sid(1), Name: "router/slice1", StartNS: int64(time.Millisecond), DurNS: int64(40 * time.Millisecond)},
		},
	}
	shard0 := TraceSnapshot{
		TraceID:    id,
		RootSpan:   sid(0x10),
		ParentSpan: sid(2), // hangs off router/slice0
		Name:       "POST /v1/query",
		Start:      base.Add(2 * time.Millisecond),
		DurNS:      int64(80 * time.Millisecond),
		Status:     "ok",
		Spans: []SpanRecord{
			{ID: sid(0x10), Name: "POST /v1/query", DurNS: int64(80 * time.Millisecond)},
			{ID: sid(0x11), Parent: sid(0x10), Name: "order", StartNS: int64(time.Millisecond), DurNS: int64(70 * time.Millisecond)},
		},
	}
	shard1 := TraceSnapshot{
		TraceID:    id,
		RootSpan:   sid(0x20),
		ParentSpan: sid(3), // hangs off router/slice1
		Name:       "POST /v1/query",
		Start:      base.Add(2 * time.Millisecond),
		DurNS:      int64(30 * time.Millisecond),
		Status:     "ok",
		Spans: []SpanRecord{
			{ID: sid(0x20), Name: "POST /v1/query", DurNS: int64(30 * time.Millisecond)},
		},
	}
	// Shards listed before the router on purpose: root election must not
	// depend on input order.
	return []TraceSnapshot{shard0, shard1, router}
}

func TestStitchTraces(t *testing.T) {
	id := NewTraceID()
	base := time.Unix(1_700_000_000, 0)
	got := StitchTraces(fleetTrace(id, base))
	if len(got) != 1 {
		t.Fatalf("stitched %d traces, want 1", len(got))
	}
	st := got[0]
	if st.TraceID != id || st.Procs != 3 || st.Status != "ok" {
		t.Fatalf("stitched = %+v", st)
	}
	if st.Name != "router /v1/query" {
		t.Fatalf("root hop = %q, want the router", st.Name)
	}
	if len(st.Hops) != 3 || st.Hops[0] != "router /v1/query" {
		t.Fatalf("hops = %v", st.Hops)
	}
	if st.Orphans != 0 {
		t.Fatalf("orphans = %d, want 0", st.Orphans)
	}
	if st.Spans != 6 {
		t.Fatalf("merged spans = %d, want 6", st.Spans)
	}
	// Critical path crosses the process boundary: slice0 -> shard0's
	// request -> its order span.
	want := "router/slice0 > POST /v1/query > order"
	if st.CriticalPath != want {
		t.Fatalf("critical path = %q, want %q", st.CriticalPath, want)
	}
	if st.CriticalNS != int64(70*time.Millisecond) {
		t.Fatalf("critical leaf = %s", time.Duration(st.CriticalNS))
	}
	// Breakdown self-times: 100-90, 90-80, 80-70, 70.
	wantSelf := []int64{
		int64(10 * time.Millisecond), int64(10 * time.Millisecond),
		int64(10 * time.Millisecond), int64(70 * time.Millisecond),
	}
	if len(st.Breakdown) != len(wantSelf) {
		t.Fatalf("breakdown = %+v", st.Breakdown)
	}
	var sum int64
	for i, part := range st.Breakdown {
		if part.SelfNS != wantSelf[i] {
			t.Fatalf("breakdown[%d] = %+v, want self %s", i, part, time.Duration(wantSelf[i]))
		}
		sum += part.SelfNS
	}
	if sum != st.DurNS {
		t.Fatalf("breakdown self-times sum to %s, want the root duration %s",
			time.Duration(sum), time.Duration(st.DurNS))
	}
}

func TestStitchSkipsLoneSnapshots(t *testing.T) {
	a := TraceSnapshot{TraceID: NewTraceID(), RootSpan: sid(1), Name: "solo", DurNS: 5}
	if got := StitchTraces([]TraceSnapshot{a}); len(got) != 0 {
		t.Fatalf("a lone snapshot stitched: %+v", got)
	}
}

func TestStitchOrphan(t *testing.T) {
	id := NewTraceID()
	base := time.Unix(1_700_000_000, 0)
	ts := fleetTrace(id, base)
	// Break shard1's parent link: its remote parent is now unknown.
	ts[1].ParentSpan = sid(0x7f)
	got := StitchTraces(ts)
	if len(got) != 1 {
		t.Fatalf("stitched %d, want 1", len(got))
	}
	if got[0].Orphans != 1 {
		t.Fatalf("orphans = %d, want 1", got[0].Orphans)
	}
	// The intact hop still participates in the critical path.
	if !strings.Contains(got[0].CriticalPath, "order") {
		t.Fatalf("critical path lost the intact shard: %q", got[0].CriticalPath)
	}
}

func TestStitchErrorStatusPropagates(t *testing.T) {
	id := NewTraceID()
	ts := fleetTrace(id, time.Unix(1_700_000_000, 0))
	ts[0].Status = "error"
	got := StitchTraces(ts)
	if len(got) != 1 || got[0].Status != "error" {
		t.Fatalf("errored hop did not mark the stitched trace: %+v", got)
	}
}

func TestStitchOrderedByDuration(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	slow := fleetTrace(NewTraceID(), base)
	fast := fleetTrace(NewTraceID(), base)
	for i := range fast {
		fast[i].DurNS /= 10
		for j := range fast[i].Spans {
			fast[i].Spans[j].DurNS /= 10
		}
	}
	got := StitchTraces(append(fast, slow...))
	if len(got) != 2 {
		t.Fatalf("stitched %d, want 2", len(got))
	}
	if got[0].DurNS < got[1].DurNS {
		t.Fatalf("not ordered by duration: %d then %d", got[0].DurNS, got[1].DurNS)
	}
}

// End-to-end through the live Trace API: two processes' worth of traces
// built with StartRequestTrace must stitch with correct parent links.
func TestStitchLiveTraces(t *testing.T) {
	router := NewTrace(nil, "router /v1/query")
	slice := router.StartSpan("router/slice0")
	shard := StartRequestTrace(nil, "POST /v1/query", slice.Traceparent())
	sp := shard.StartSpan("order")
	time.Sleep(time.Millisecond)
	sp.End()
	shardSnap := shard.Finish()
	slice.End()
	routerSnap := router.Finish()

	if shardSnap.TraceID != routerSnap.TraceID {
		t.Fatal("shard did not join the router's trace")
	}
	if shardSnap.ParentSpan != slice.ID() {
		t.Fatal("shard's remote parent is not the slice span")
	}
	got := StitchTraces([]TraceSnapshot{shardSnap, routerSnap})
	if len(got) != 1 {
		t.Fatalf("stitched %d, want 1", len(got))
	}
	st := got[0]
	if st.Name != "router /v1/query" || st.Procs != 2 || st.Orphans != 0 {
		t.Fatalf("stitched = %+v", st)
	}
	want := "router/slice0 > POST /v1/query > order"
	if st.CriticalPath != want {
		t.Fatalf("critical path = %q, want %q", st.CriticalPath, want)
	}
}

// Span IDs must not collide across the processes of one trace even
// though they share the trace ID (the per-trace salt, not the trace ID,
// provides the entropy).
func TestCrossProcessSpanIDsDistinct(t *testing.T) {
	parent := NewTrace(nil, "router")
	a := StartRequestTrace(nil, "shard-a", parent.Traceparent())
	b := StartRequestTrace(nil, "shard-b", parent.Traceparent())
	seen := map[SpanID]bool{}
	for _, tr := range []*Trace{parent, a, b} {
		for i := 0; i < 16; i++ {
			s := tr.StartSpan("s")
			if seen[s.ID()] {
				t.Fatalf("span ID collision across processes: %v", s.ID())
			}
			seen[s.ID()] = true
			s.End()
		}
	}
}
