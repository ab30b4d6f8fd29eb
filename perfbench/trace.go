package main

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// ledger accumulates the traced replay's per-layer stopwatch totals and
// work counts. A nil *ledger records nothing, so the same replay code
// runs untraced (for the tracing-overhead baseline) and traced.
type ledger struct {
	dur   map[string]time.Duration
	count map[string]float64
}

func newLedger() *ledger {
	return &ledger{dur: map[string]time.Duration{}, count: map[string]float64{}}
}

// start reads the clock for a layer call; it returns the zero time on a
// nil ledger so the untraced replay pays no clock read.
func (l *ledger) start() time.Time {
	if l == nil {
		return time.Time{}
	}
	return time.Now()
}

// stop charges the time since t to layer.
func (l *ledger) stop(layer string, t time.Time) {
	if l != nil {
		l.dur[layer] += time.Since(t)
	}
}

// add adds v to the named work count.
func (l *ledger) add(name string, v float64) {
	if l != nil {
		l.count[name] += v
	}
}

// Per-layer timed metrics: each is the stopwatch total of the calls into
// one layer's entry points, per session.
var timedLayers = []string{
	"schema.parse_ms",
	"reformulate.prepare_ms",
	"core.build_ms",
	"core.next_ms",
	"reformulate.soundness_ms",
	"physopt.optimize_ms",
	"execsim.execute_ms",
	"execsim.merge_ms",
}

// Per-layer work counts, per session.
var countedLayers = []string{
	"core.evals",
	"core.dominance_tests",
	"core.refinements",
	"execsim.accesses",
	"execsim.tuples",
	"execsim.answers",
	"server.stream_kb",
}

// runTraced measures the untraced sessions for a third of d, then
// replays exactly those sessions twice through the layers' entry points:
// once without stopwatches and once with them. The replays must
// reproduce the recorded plans and answers. It reports the per-layer
// ledger per session, the garbage collector's share from the untraced
// sessions, the tracing overhead (traced minus untraced replay) and the
// unattributed time (traced replay minus the sum of timed layers).
func runTraced(w benchWorkload, d time.Duration) (*result, error) {
	lp := runLoop(w, d/3)
	res := &result{Correct: true, Attempted: lp.attempted, Failed: lp.failed}
	for _, e := range lp.errs {
		fmt.Fprintln(os.Stderr, "perfbench: session failed:", e)
	}
	if err := w.check(); err != nil {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	n := lp.attempted
	plainStart := time.Now()
	if err := w.replay(n, nil); err != nil {
		res.Correct = false
		return res, fmt.Errorf("untraced replay: %w", err)
	}
	plain := time.Since(plainStart)
	l := newLedger()
	tracedStart := time.Now()
	if err := w.replay(n, l); err != nil {
		res.Correct = false
		return res, fmt.Errorf("traced replay: %w", err)
	}
	traced := time.Since(tracedStart)

	per := func(v float64) float64 { return v / float64(n) }
	msPer := func(d time.Duration) float64 { return per(ms(d)) }
	res.Metrics = map[string]metric{}
	var layered time.Duration
	for _, name := range timedLayers {
		layer := name[:len(name)-len("_ms")]
		layered += l.dur[layer]
		res.Metrics[name] = metric{msPer(l.dur[layer]), "ms"}
	}
	for _, name := range countedLayers {
		unit := "count"
		if name == "server.stream_kb" {
			unit = "KiB"
		}
		res.Metrics[name] = metric{per(l.count[name]), unit}
	}
	res.Metrics["execsim.cache_hit_ratio"] = metric{ratio(l.count["execsim.cache_hits"],
		l.count["execsim.cache_hits"]+l.count["execsim.accesses"]), "ratio"}
	res.Metrics["server.cache_hit_ratio"] = metric{ratio(l.count["server.cache_hits"],
		l.count["server.requests"]), "ratio"}
	// The HTTP session time of the serving path minus the layered replay
	// of the same requests: parse-to-stream work the layers do not see.
	overhead := 0.0
	if l.count["server.requests"] > 0 {
		overhead = mean(lp.totals) - msPer(plain)
	}
	res.Metrics["server.overhead_ms"] = metric{overhead, "ms"}
	res.Metrics["runtime.gc_cpu_ms"] = metric{msPer(lp.usage.gcCPU), "ms"}
	res.Metrics["runtime.gc_cycles"] = metric{per(float64(lp.usage.gcCycles)), "count"}
	res.Metrics["unattributed_ms"] = metric{msPer(traced - layered), "ms"}
	res.Metrics["trace.overhead_ms"] = metric{msPer(traced - plain), "ms"}

	fmt.Printf("traced replay sessions=%d untraced_replay=%.3fms/session traced_replay=%.3fms/session loop_mean=%.3fms/session\n",
		n, msPer(plain), msPer(traced), mean(lp.totals))
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-26s %12.4f %s\n", name, m.Value, m.Unit)
	}
	return res, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// mean is the mean over every kind's session latencies.
func mean(perKind [][]float64) float64 {
	s, n := 0.0, 0
	for _, xs := range perKind {
		for _, x := range xs {
			s += x
			n++
		}
	}
	return s / float64(n)
}
