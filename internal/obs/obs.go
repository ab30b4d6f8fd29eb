// Package obs is the zero-dependency observability layer of the
// pipeline: atomic counters, gauges, and histograms; request-scoped
// traces (trace.go) with nested spans, a bounded event log, and plan
// provenance; and a Registry aggregating the instruments plus the
// per-name span aggregates of every trace bound to it, with text, JSON,
// and OpenMetrics rendering. A span is timed once, by TraceSpan.End,
// which both records it on its trace and folds it into the registry.
//
// Every public method is nil-safe: a nil *Registry hands out nil
// instruments, and a nil *Counter, *Gauge, *Histogram, *Trace, or
// *TraceSpan is a no-op. Hot paths therefore instrument unconditionally — when
// observability is disabled the calls reduce to a nil check and cost no
// allocations (see BenchmarkOrdererObs in the repository root).
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is ready to use; a nil Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 instantaneous value. The zero value is
// ready to use; a nil Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta atomically.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for a nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the number of power-of-two histogram buckets: bucket 0
// holds observations <= 0, bucket i (i >= 1) holds [2^(i-1), 2^i - 1].
const histBuckets = 64

// Histogram records non-negative int64 observations (typically
// nanoseconds) in power-of-two buckets with count/sum/min/max. The zero
// value is ready to use; a nil Histogram is a no-op. All methods are
// concurrency-safe.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid only when count > 0; raced first-store is benign via CAS loop
	max     atomic.Int64
	sampled atomic.Bool // set once the min sentinel has been initialized
	buckets [histBuckets]atomic.Int64
}

// bucketIndex maps an observation to its bucket.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if h.sampled.CompareAndSwap(false, true) {
		h.min.Store(math.MaxInt64)
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.min.Load()
		if v >= old || h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// ObserveSince records the nanoseconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h != nil {
		h.Observe(int64(time.Since(start)))
	}
}

// HistBucket is one non-empty bucket of a histogram snapshot: Count
// observations fell in [Lo, Hi].
type HistBucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// HistSnapshot is a point-in-time copy of a histogram. Concurrent
// observations may make the fields mutually slightly inconsistent; each
// field individually is a valid atomic read. P50/P95/P99/P999 are
// quantile estimates interpolated within the power-of-two buckets (see
// Quantile), so their relative error is bounded by the bucket width.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Min     int64        `json:"min"`
	Max     int64        `json:"max"`
	Mean    float64      `json:"mean"`
	P50     int64        `json:"p50,omitempty"`
	P95     int64        `json:"p95,omitempty"`
	P99     int64        `json:"p99,omitempty"`
	P999    int64        `json:"p999,omitempty"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Quantile estimates the q-quantile (q in [0, 1]) from the snapshot's
// buckets: the target rank's bucket is located on the cumulative counts
// and the value interpolated linearly within the bucket's [Lo, Hi]
// range, clamped to the observed Min and Max. A snapshot with no
// observations yields 0.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count <= 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is 1-based: the ceil(q*count)-th smallest observation.
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, b := range s.Buckets {
		if seen+b.Count < rank {
			seen += b.Count
			continue
		}
		// Interpolate the rank's position within this bucket.
		frac := float64(rank-seen) / float64(b.Count)
		v := float64(b.Lo) + frac*float64(b.Hi-b.Lo)
		est := int64(v)
		if est < s.Min {
			est = s.Min
		}
		if est > s.Max {
			est = s.Max
		}
		return est
	}
	return s.Max
}

// Snapshot returns a copy of the histogram's current state. A nil
// Histogram yields a zero snapshot.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if s.Count > 0 {
		s.Min = h.min.Load()
		if s.Min == math.MaxInt64 { // racing first Observe; count came first
			s.Min = 0
		}
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		b := HistBucket{Count: n}
		if i > 0 {
			b.Lo = int64(1) << (i - 1)
			if i < 63 {
				b.Hi = int64(1)<<i - 1
			} else {
				b.Hi = math.MaxInt64
			}
		}
		s.Buckets = append(s.Buckets, b)
	}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	s.P999 = s.Quantile(0.999)
	return s
}
