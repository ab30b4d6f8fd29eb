package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// percentile returns the q-th quantile of xs by linear interpolation
// between closest ranks (xs is sorted in place). NaN when xs is empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// usage is the benchmark process's resource consumption: CPU time (user
// plus system, all threads), heap bytes and objects allocated, and the
// garbage collector's CPU time and cycle count.
type usage struct {
	cpu        time.Duration
	allocBytes uint64
	mallocs    uint64
	gcCPU      time.Duration
	gcCycles   uint64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	// The cpu-seconds classes are only refreshed by a GC cycle or a
	// stop-the-world; ReadMemStats provides the latter.
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	metrics.Read(s)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: s[0].Value.Uint64(),
		mallocs:    s[1].Value.Uint64(),
		gcCPU:      time.Duration(s[2].Value.Float64() * 1e9),
		gcCycles:   s[3].Value.Uint64(),
	}
}

func (u usage) sub(v usage) usage {
	return usage{
		cpu:        u.cpu - v.cpu,
		allocBytes: u.allocBytes - v.allocBytes,
		mallocs:    u.mallocs - v.mallocs,
		gcCPU:      u.gcCPU - v.gcCPU,
		gcCycles:   u.gcCycles - v.gcCycles,
	}
}
