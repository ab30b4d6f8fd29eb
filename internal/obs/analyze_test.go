package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// ndjson marshals snapshots one per line, blank line between them, the
// way a trace export file looks after two daemon restarts.
func ndjson(t *testing.T, snaps ...TraceSnapshot) string {
	t.Helper()
	var buf bytes.Buffer
	for i, s := range snaps {
		if i > 0 {
			buf.WriteByte('\n') // blank separator line must be tolerated
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.String()
}

func TestReadTracesRoundTrip(t *testing.T) {
	a := NewTrace(nil, "one")
	a.StartSpan("order").End()
	b := NewTrace(nil, "two")
	in := ndjson(t, a.Finish(), b.Finish())
	ts, err := ReadTraces(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || ts[0].Name != "one" || ts[1].Name != "two" {
		t.Fatalf("ReadTraces = %+v", ts)
	}
}

func TestReadTracesMalformed(t *testing.T) {
	good := ndjson(t, NewTrace(nil, "ok").Finish())
	if _, err := ReadTraces(strings.NewReader(good + "{not json\n")); err == nil {
		t.Fatal("malformed line did not error")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error does not name the line: %v", err)
	}
	if _, err := ReadTraces(strings.NewReader(`{"trace_id":"00000000000000000000000000000000"}` + "\n")); err == nil {
		t.Fatal("zero trace ID did not error")
	}
	if ts, err := ReadTraces(strings.NewReader("")); err != nil || len(ts) != 0 {
		t.Fatalf("empty input: %v %v", ts, err)
	}
}

// span builds a SpanRecord with a small ID derived from seq.
func span(seq byte, parent SpanID, name string, durNS int64) SpanRecord {
	var id SpanID
	id[7] = seq
	return SpanRecord{ID: id, Parent: parent, Name: name, DurNS: durNS}
}

// TestAnalyzeTraces checks the aggregate report on a hand-built trace:
// span totals, provenance sums, statuses, and the critical path (the
// root-to-leaf chain maximizing duration).
func TestAnalyzeTraces(t *testing.T) {
	var tid TraceID
	tid[15] = 1
	var rootID SpanID
	rootID[7] = 9
	orderSpan := span(1, rootID, "order", 60)
	trace := TraceSnapshot{
		TraceID:  tid,
		RootSpan: rootID,
		Name:     "req",
		Status:   "ok",
		DurNS:    100,
		Spans: []SpanRecord{
			{ID: rootID, Name: "req", DurNS: 100}, // synthetic root
			orderSpan,
			span(2, rootID, "soundness", 30),
			span(3, orderSpan.ID, "refine", 50),
		},
		Plans: []PlanProvenance{
			{Index: 0, Utility: 2, DomWon: 3, DomLost: 1, Refinements: 4, Splits: 2, Evals: 7},
			{Index: 1, Utility: 1, DomWon: 1, DomLost: 2, Refinements: 0, Splits: 0, Evals: 5},
		},
	}
	errTrace := TraceSnapshot{TraceID: TraceID{1}, Name: "req", Status: "error", DurNS: 40}

	rep := AnalyzeTraces([]TraceSnapshot{trace, errTrace}, 10)
	if rep.Traces != 2 || rep.Errors != 1 || rep.TotalNS != 140 {
		t.Fatalf("traces/errors/total = %d/%d/%d", rep.Traces, rep.Errors, rep.TotalNS)
	}
	if rep.Plans != 2 || rep.DomWon != 4 || rep.DomLost != 3 || rep.Refines != 4 || rep.Splits != 2 || rep.Evals != 12 {
		t.Fatalf("provenance sums wrong: %+v", rep)
	}
	if rep.Statuses["ok"] != 1 || rep.Statuses["error"] != 1 {
		t.Fatalf("statuses = %v", rep.Statuses)
	}
	// Spans are sorted by total time descending and exclude the root.
	if len(rep.Spans) != 3 || rep.Spans[0].Name != "order" || rep.Spans[0].TotalNS != 60 {
		t.Fatalf("span aggregates = %+v", rep.Spans)
	}
	// Slowest requests are duration-descending; the 100ns trace leads.
	if len(rep.Slowest) != 2 || rep.Slowest[0].TraceID != tid {
		t.Fatalf("slowest = %+v", rep.Slowest)
	}
	// order(60) beats soundness(30) at the root; refine is order's leaf.
	if got := rep.Slowest[0].CriticalPath; got != "order > refine" {
		t.Fatalf("critical path = %q, want \"order > refine\"", got)
	}
	if rep.Slowest[0].CriticalNS != 50 {
		t.Fatalf("critical leaf = %d, want 50", rep.Slowest[0].CriticalNS)
	}
}

func TestAnalyzeTracesTopCap(t *testing.T) {
	var ts []TraceSnapshot
	for i := 0; i < 15; i++ {
		var tid TraceID
		tid[15] = byte(i + 1)
		var rootID SpanID
		rootID[7] = 1
		ts = append(ts, TraceSnapshot{
			TraceID: tid, RootSpan: rootID, Name: "req", Status: "ok", DurNS: int64(i + 1),
			Spans: []SpanRecord{
				{ID: rootID, Name: "req", DurNS: int64(i + 1)},
				span(2, rootID, "s"+string(rune('a'+i)), 10),
			},
		})
	}
	rep := AnalyzeTraces(ts, 3)
	if len(rep.Spans) != 3 || len(rep.Slowest) != 3 {
		t.Fatalf("top=3 kept %d spans, %d slowest", len(rep.Spans), len(rep.Slowest))
	}
	if rep.Slowest[0].DurNS != 15 {
		t.Fatalf("slowest[0] = %d, want 15", rep.Slowest[0].DurNS)
	}
}

func TestTraceReportWriteText(t *testing.T) {
	tr := NewTrace(nil, "req")
	tr.StartSpan("order").End()
	tr.EmitPlan(PlanProvenance{Index: 0, Evals: 3})
	rep := AnalyzeTraces([]TraceSnapshot{tr.Finish()}, 10)
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"traces: 1", "plans emitted: 1", "top spans by total time:", "order", "slowest requests:", "critical path: order"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
