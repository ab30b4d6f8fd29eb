package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
)

// This file mirrors a small set of Go runtime metrics into a Registry so
// they appear in /metrics in every format (text, JSON,
// OpenMetrics) next to the pipeline's own instruments: live heap bytes,
// GC pause p50/p95 from the runtime's pause-duration histogram,
// goroutine count, and GOMAXPROCS. The values refresh lazily — a
// registered collector reads runtime/metrics at Snapshot time — so an
// idle registry costs nothing between scrapes.

// Runtime metric gauge names.
const (
	MetricHeapBytes  = "runtime.heap_bytes"
	MetricGCPauseP50 = "runtime.gc_pause_p50_ns"
	MetricGCPauseP95 = "runtime.gc_pause_p95_ns"
	MetricGoroutines = "runtime.goroutines"
	MetricGoMaxProcs = "runtime.gomaxprocs"
)

// runtime/metrics sample names (both present since Go 1.22).
const (
	sampleHeapBytes = "/memory/classes/heap/objects:bytes"
	sampleGCPauses  = "/sched/pauses/total/gc:seconds"
)

// RegisterRuntimeMetrics installs a Snapshot-time collector that
// refreshes the runtime.* gauges from runtime/metrics. Safe to call on
// a nil registry (no-op); calling it twice installs two collectors that
// set the same gauges, which is harmless.
func RegisterRuntimeMetrics(reg *Registry) {
	if reg == nil {
		return
	}
	heap := reg.Gauge(MetricHeapBytes)
	gcP50 := reg.Gauge(MetricGCPauseP50)
	gcP95 := reg.Gauge(MetricGCPauseP95)
	goroutines := reg.Gauge(MetricGoroutines)
	gomaxprocs := reg.Gauge(MetricGoMaxProcs)

	// The sample slice is reused across collections; concurrent
	// Snapshot calls run collectors concurrently, so guard it.
	var mu sync.Mutex
	samples := []metrics.Sample{
		{Name: sampleHeapBytes},
		{Name: sampleGCPauses},
	}
	reg.AddCollector(func() {
		mu.Lock()
		metrics.Read(samples)
		if samples[0].Value.Kind() == metrics.KindUint64 {
			heap.Set(float64(samples[0].Value.Uint64()))
		}
		if samples[1].Value.Kind() == metrics.KindFloat64Histogram {
			h := samples[1].Value.Float64Histogram()
			gcP50.Set(float64HistQuantile(h, 0.50) * 1e9)
			gcP95.Set(float64HistQuantile(h, 0.95) * 1e9)
		}
		mu.Unlock()
		goroutines.Set(float64(runtime.NumGoroutine()))
		gomaxprocs.Set(float64(runtime.GOMAXPROCS(0)))
	})
}

// float64HistQuantile estimates the q-quantile of a runtime/metrics
// histogram: the target rank's bucket is located on the cumulative
// counts and the value interpolated linearly within the bucket,
// clamping the open-ended edge buckets to their finite boundary. An
// empty histogram yields 0.
func float64HistQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil || len(h.Counts) == 0 {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) < rank {
			seen += float64(c)
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		frac := 0.0
		if c > 0 {
			frac = (rank - seen) / float64(c)
		}
		return lo + frac*(hi-lo)
	}
	// rank beyond the last non-empty bucket (floating-point edge).
	last := h.Buckets[len(h.Buckets)-1]
	if math.IsInf(last, 1) {
		last = h.Buckets[len(h.Buckets)-2]
	}
	return last
}
