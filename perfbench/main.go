// Command perfbench is qporder's end-to-end session benchmark. It drives
// one of three closed-loop workloads (order, mediate, serve) for a fixed
// time, checks every session's output against results it computes on its
// own, and prints the end-to-end metrics as one JSON object on the last
// line of stdout. With --trace 1 it instead replays the workload's
// sessions through each layer's entry points with a stopwatch around
// every call and prints the per-layer metrics.
//
// Usage:
//
//	perfbench --workload order|mediate|serve --seed N --seconds S --trace 0|1
//
// See README.md for the workloads, the metrics and how they are computed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// setupReps is how many times a run builds its workload from scratch;
// setup_s is the median of those builds and the last one is measured.
const setupReps = 3

// benchWorkload is one benchmark workload. A session is one request: index i
// of the run's session sequence has kind i % len(kinds()), and the
// inputs of session i are a pure function of the seed and i.
type benchWorkload interface {
	// kinds names the session kinds, interleaved round-robin.
	kinds() []string
	// clients is the number of concurrent closed-loop clients.
	clients() int
	// setup builds every input and warms the caches. It may be called
	// several times; each call replaces the previous state.
	setup(seed int64) error
	// session runs session i and reports its total and first-result
	// latency. It must be safe to call from clients() goroutines.
	session(i int) (sessionTiming, error)
	// check verifies every recorded session output; it runs after the
	// timed phase.
	check() error
	// discard drops the recorded session outputs once they are checked,
	// so the live heap a run reports holds the program's state and the
	// workload's inputs, not records that grow with the session count.
	discard()
	// replay re-runs sessions 0..n-1 through the layers' entry points
	// and records each call's time and work into l (nil: untimed). It fails
	// if a replayed session's plans or answers differ from the recorded
	// ones.
	replay(n int, l *ledger) error
	// close releases the workload's resources (listeners, goroutines).
	close()
}

type sessionTiming struct {
	total, first time.Duration
}

func newWorkload(name string) (benchWorkload, error) {
	switch name {
	case "order":
		return &orderWorkload{}, nil
	case "mediate":
		return &mediateWorkload{}, nil
	case "serve":
		return &serveWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want order, mediate or serve)", name)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: order, mediate or serve")
	seed := flag.Int64("seed", 1, "workload seed; every input is derived from it")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	w, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	w.close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res == nil {
			os.Exit(1)
		}
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

// run sets the workload up setupReps times, then either measures it for
// d (trace off) or runs the traced replay (trace on).
func run(w benchWorkload, seed int64, d time.Duration, traced bool) (*result, error) {
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		if err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	sort.Float64s(setups)
	setupS := setups[len(setups)/2]

	if traced {
		return runTraced(w, d)
	}
	lp := runLoop(w, d)
	res := &result{Correct: true, Attempted: lp.attempted, Failed: lp.failed}
	for _, e := range lp.errs {
		fmt.Fprintln(os.Stderr, "perfbench: session failed:", e)
	}
	if err := w.check(); err != nil {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	w.discard()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	sessions := float64(lp.attempted - lp.failed)
	msMetric := func(v float64) metric { return metric{v, "ms"} }
	res.Metrics = map[string]metric{
		"setup_s":              {setupS, "s"},
		"sessions_per_s":       {sessions / lp.wall.Seconds(), "1/s"},
		"session_p50_ms":       msMetric(lp.kindPercentile(w.kinds(), 0.5, false)),
		"session_p90_ms":       msMetric(lp.kindPercentile(w.kinds(), 0.9, false)),
		"first_result_p50_ms":  msMetric(lp.kindPercentile(w.kinds(), 0.5, true)),
		"cpu_ms_per_session":   msMetric(lp.usage.cpu.Seconds() * 1e3 / sessions),
		"alloc_mb_per_session": {float64(lp.usage.allocBytes) / (1 << 20) / sessions, "MiB"},
		"allocs_per_session":   {float64(lp.usage.mallocs) / sessions, "count"},
		"live_heap_mb":         {float64(mem.HeapAlloc) / (1 << 20), "MiB"},
	}
	fmt.Printf("workload sessions=%d failed=%d wall=%.2fs kinds=%s\n",
		lp.attempted, lp.failed, lp.wall.Seconds(), strings.Join(w.kinds(), ","))
	for k, name := range w.kinds() {
		t, f := lp.totals[k], lp.firsts[k]
		fmt.Printf("  %-24s n=%-5d p50=%.3fms p90=%.3fms first_p50=%.3fms\n", name, len(t),
			percentile(t, 0.5), percentile(t, 0.9), percentile(f, 0.5))
	}
	return res, nil
}

// loop is the outcome of one timed closed-loop phase.
type loop struct {
	attempted, failed int
	wall              time.Duration
	totals, firsts    [][]float64 // per kind, milliseconds
	usage             usage
	errs              []error
}

// kindPercentile is the geometric mean over kinds of each kind's q-th
// percentile: kinds differ several-fold in length, and a percentile
// pooled over them jumps between modes from run to run.
func (lp *loop) kindPercentile(kinds []string, q float64, first bool) float64 {
	per := make([]float64, len(kinds))
	for k := range kinds {
		if first {
			per[k] = percentile(lp.firsts[k], q)
		} else {
			per[k] = percentile(lp.totals[k], q)
		}
	}
	return geomean(per)
}

// runLoop drives the workload's clients in a closed loop until d has
// passed, always ending on a whole round (one session of every kind).
func runLoop(w benchWorkload, d time.Duration) *loop {
	kinds := len(w.kinds())
	lp := &loop{totals: make([][]float64, kinds), firsts: make([][]float64, kinds)}
	var mu sync.Mutex
	next, stopped := 0, false
	take := func(deadline time.Time) int {
		mu.Lock()
		defer mu.Unlock()
		if stopped || (next%kinds == 0 && !time.Now().Before(deadline)) {
			stopped = true
			return -1
		}
		next++
		return next - 1
	}
	runtime.GC()
	before := readUsage()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := take(deadline)
				if i < 0 {
					return
				}
				t, err := w.session(i)
				mu.Lock()
				lp.attempted++
				if err != nil {
					lp.failed++
					lp.errs = append(lp.errs, fmt.Errorf("session %d: %w", i, err))
				} else {
					lp.totals[i%kinds] = append(lp.totals[i%kinds], ms(t.total))
					lp.firsts[i%kinds] = append(lp.firsts[i%kinds], ms(t.first))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	lp.wall = time.Since(start)
	lp.usage = readUsage().sub(before)
	return lp
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
