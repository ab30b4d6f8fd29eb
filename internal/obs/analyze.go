package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// This file analyzes exported traces offline: qpserved -trace-out and
// qporder -trace write one TraceSnapshot per NDJSON line; ReadTraces
// ingests such a stream and AnalyzeTraces aggregates it into the report
// cmd/qptrace prints — slowest requests, the hottest span paths, and
// per-trace critical paths.

// ReadTraces decodes an NDJSON stream of TraceSnapshots. Blank lines are
// skipped; any malformed line is an error (the export is machine-written,
// so corruption should fail loudly, not be papered over).
func ReadTraces(r io.Reader) ([]TraceSnapshot, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []TraceSnapshot
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var t TraceSnapshot
		if err := json.Unmarshal(b, &t); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		if t.TraceID.IsZero() {
			return nil, fmt.Errorf("obs: trace line %d: zero trace ID", line)
		}
		out = append(out, t)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// SpanAgg aggregates all spans sharing one name: across the analyzed
// traces in a TraceReport, across every bound trace in a Registry.
type SpanAgg struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
	MinNS   int64  `json:"min_ns"`
	MaxNS   int64  `json:"max_ns"`
}

// add folds one span duration into the aggregate.
func (a *SpanAgg) add(d int64) {
	if a.Count == 0 || d < a.MinNS {
		a.MinNS = d
	}
	if d > a.MaxNS {
		a.MaxNS = d
	}
	a.Count++
	a.TotalNS += d
}

// RequestSummary is one analyzed request.
type RequestSummary struct {
	TraceID TraceID `json:"trace_id"`
	Name    string  `json:"name"`
	Status  string  `json:"status"`
	DurNS   int64   `json:"dur_ns"`
	Spans   int     `json:"spans"`
	Plans   int     `json:"plans"`
	// CriticalPath is the root-to-leaf span chain maximizing summed
	// duration, rendered as "a > b > c".
	CriticalPath string `json:"critical_path"`
	// CriticalNS is the leaf-most span duration of that chain — the time
	// the request cannot go below without speeding that span up.
	CriticalNS int64 `json:"critical_ns"`
}

// TraceReport is the aggregate qptrace prints.
type TraceReport struct {
	Traces   int              `json:"traces"`
	Errors   int              `json:"errors"`
	TotalNS  int64            `json:"total_ns"`
	Spans    []SpanAgg        `json:"spans,omitempty"`   // by total time, descending
	Slowest  []RequestSummary `json:"slowest,omitempty"` // by duration, descending
	Plans    int              `json:"plans"`
	DomWon   int64            `json:"dom_won"`
	DomLost  int64            `json:"dom_lost"`
	Refines  int64            `json:"refinements"`
	Splits   int64            `json:"splits"`
	Evals    int64            `json:"evals"`
	Statuses map[string]int   `json:"statuses,omitempty"`
	// Stitched holds the multi-process traces reassembled across hops
	// (router + shards) by trace ID, by duration descending. See
	// StitchTraces.
	Stitched []StitchedTrace `json:"stitched,omitempty"`
	// CalibrationRecords counts the calibration lines ingested alongside
	// the traces; Calibration holds the last (cumulative) snapshot.
	CalibrationRecords int                  `json:"calibration_records,omitempty"`
	Calibration        *CalibrationSnapshot `json:"calibration,omitempty"`
}

// criticalPath walks the span tree of one trace from its root and
// returns the chain of span names maximizing summed duration, plus the
// duration of the chain's leaf.
func criticalPath(t TraceSnapshot) (string, int64) {
	children := make(map[SpanID][]SpanRecord, len(t.Spans))
	for _, s := range t.Spans {
		if s.ID == t.RootSpan {
			continue
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	var names []string
	cur, curDur := t.RootSpan, t.DurNS
	for {
		kids := children[cur]
		if len(kids) == 0 {
			return strings.Join(names, " > "), curDur
		}
		best := kids[0]
		for _, k := range kids[1:] {
			if k.DurNS > best.DurNS || (k.DurNS == best.DurNS && k.StartNS < best.StartNS) {
				best = k
			}
		}
		names = append(names, best.Name)
		cur, curDur = best.ID, best.DurNS
	}
}

// AnalyzeTraces aggregates the traces into a report keeping the top
// `top` spans and slowest requests (top <= 0 keeps 10).
func AnalyzeTraces(ts []TraceSnapshot, top int) TraceReport {
	if top <= 0 {
		top = 10
	}
	rep := TraceReport{Traces: len(ts), Statuses: make(map[string]int)}
	aggs := make(map[string]*SpanAgg)
	sums := make([]RequestSummary, 0, len(ts))
	for _, t := range ts {
		rep.TotalNS += t.DurNS
		rep.Statuses[t.Status]++
		if t.Status == "error" {
			rep.Errors++
		}
		for _, s := range t.Spans {
			if s.ID == t.RootSpan {
				continue // the synthetic root duplicates the trace duration
			}
			a := aggs[s.Name]
			if a == nil {
				a = &SpanAgg{Name: s.Name}
				aggs[s.Name] = a
			}
			a.add(s.DurNS)
		}
		for _, p := range t.Plans {
			rep.Plans++
			rep.DomWon += p.DomWon
			rep.DomLost += p.DomLost
			rep.Refines += p.Refinements
			rep.Splits += p.Splits
			rep.Evals += p.Evals
		}
		path, leafNS := criticalPath(t)
		sums = append(sums, RequestSummary{
			TraceID: t.TraceID, Name: t.Name, Status: t.Status, DurNS: t.DurNS,
			Spans: len(t.Spans), Plans: len(t.Plans),
			CriticalPath: path, CriticalNS: leafNS,
		})
	}
	for _, a := range aggs {
		rep.Spans = append(rep.Spans, *a)
	}
	sort.Slice(rep.Spans, func(i, j int) bool {
		if rep.Spans[i].TotalNS != rep.Spans[j].TotalNS {
			return rep.Spans[i].TotalNS > rep.Spans[j].TotalNS
		}
		return rep.Spans[i].Name < rep.Spans[j].Name
	})
	if len(rep.Spans) > top {
		rep.Spans = rep.Spans[:top]
	}
	sort.Slice(sums, func(i, j int) bool {
		if sums[i].DurNS != sums[j].DurNS {
			return sums[i].DurNS > sums[j].DurNS
		}
		return sums[i].TraceID.String() < sums[j].TraceID.String()
	})
	if len(sums) > top {
		sums = sums[:top]
	}
	rep.Slowest = sums
	rep.Stitched = StitchTraces(ts)
	if len(rep.Stitched) > top {
		rep.Stitched = rep.Stitched[:top]
	}
	return rep
}

// WriteText renders the report for terminals.
func (r TraceReport) WriteText(w io.Writer) error {
	var err error
	p := func(format string, args ...interface{}) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("traces: %d  errors: %d  total: %s\n", r.Traces, r.Errors, time.Duration(r.TotalNS))
	if r.Plans > 0 {
		p("plans emitted: %d  evals: %d  dominance won/lost: %d/%d  refinements: %d  splits: %d\n",
			r.Plans, r.Evals, r.DomWon, r.DomLost, r.Refines, r.Splits)
	}
	if len(r.Spans) > 0 {
		p("top spans by total time:\n")
		for _, a := range r.Spans {
			p("  %-32s count=%-6d total=%-12s max=%s\n",
				a.Name, a.Count, time.Duration(a.TotalNS), time.Duration(a.MaxNS))
		}
	}
	if len(r.Slowest) > 0 {
		p("slowest requests:\n")
		for _, s := range r.Slowest {
			p("  %s  %-5s %10s  spans=%-3d plans=%-3d %s\n",
				s.TraceID, s.Status, time.Duration(s.DurNS), s.Spans, s.Plans, s.Name)
			if s.CriticalPath != "" {
				p("    critical path: %s (%s)\n", s.CriticalPath, time.Duration(s.CriticalNS))
			}
		}
	}
	if len(r.Stitched) > 0 {
		p("stitched fleet traces (joined across processes by trace ID):\n")
		for _, s := range r.Stitched {
			p("  %s  %-5s %10s  procs=%d spans=%-3d %s", s.TraceID, s.Status,
				time.Duration(s.DurNS), s.Procs, s.Spans, strings.Join(s.Hops, " + "))
			if s.Orphans > 0 {
				p("  orphans=%d", s.Orphans)
			}
			p("\n")
			if s.CriticalPath != "" {
				p("    critical path: %s (%s)\n", s.CriticalPath, time.Duration(s.CriticalNS))
			}
			if len(s.Breakdown) > 0 {
				p("    breakdown:")
				for _, part := range s.Breakdown {
					p(" %s=%s", part.Name, time.Duration(part.SelfNS))
				}
				p("\n")
			}
		}
	}
	if r.Calibration != nil {
		p("calibration records ingested: %d (showing the last, cumulative)\n", r.CalibrationRecords)
		if err == nil {
			err = r.Calibration.WriteText(w)
		}
	}
	return err
}
