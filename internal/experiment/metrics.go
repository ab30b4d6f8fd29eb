package experiment

import (
	"time"

	"qporder/internal/obs"
	"qporder/internal/workload"
)

// repCutoff is the first-rep wall time above which Cell.Reps extra
// timing repetitions are skipped: a cell at the one-second scale is far
// above the scheduler/GC noise floor, and repeating it would multiply
// the benchmark's runtime for no precision gain.
const repCutoff = time.Second

// MetricsSchemaVersion identifies the qpbench --metrics-json layout.
// Bump it when a field is renamed or its meaning changes; adding fields
// does not require a bump.
const MetricsSchemaVersion = 1

// MetricRecord is one row of the stable machine-readable benchmark
// output. Field names are part of the schema consumed by downstream
// tooling: rename nothing, only append.
type MetricRecord struct {
	Algorithm  string `json:"algorithm"`
	Measure    string `json:"measure"`
	BucketSize int    `json:"bucket_size"`
	K          int    `json:"k"`
	// Parallelism is the orderer worker count the cell ran with (0 and 1
	// both mean the sequential path; recorded as given).
	Parallelism int `json:"parallelism"`
	// Plans is the number of plans actually produced (<= K).
	Plans int `json:"plans"`
	// Evals counts utility evaluations, the paper's machine-neutral work
	// measure (Section 6).
	Evals int64 `json:"evals"`
	// DominanceTests counts Lo(p) >= Hi(q) comparisons (Section 5.1).
	DominanceTests int64 `json:"dominance_tests"`
	// Refinements counts abstract-plan expansions (Section 5.1).
	Refinements int64 `json:"refinements"`
	// Splits counts plan-space splits after an output (Section 5.2).
	Splits int64 `json:"splits"`
	// IndepChecks / IndepHits count plan-independence oracle queries and
	// how many reported independence (Section 6).
	IndepChecks int64 `json:"indep_checks"`
	IndepHits   int64 `json:"indep_hits"`
	// TotalNs is wall time from query issue until the k-th plan; NsPerPlan
	// divides by Plans; TimeToFirstNs is wall time until the first plan.
	TotalNs       int64 `json:"total_ns"`
	NsPerPlan     int64 `json:"ns_per_plan"`
	TimeToFirstNs int64 `json:"time_to_first_plan_ns"`
	// Mallocs is the heap-allocation count (runtime.MemStats.Mallocs
	// delta) over the cell; MallocsPerEval divides by Evals. Sequential
	// cells gate on this in CompareAllocs — the snapshot-cached coverage
	// hot path promises zero allocations per concrete Evaluate, so a
	// per-eval alloc creep is a regression even when timing hides it.
	Mallocs        int64   `json:"mallocs"`
	MallocsPerEval float64 `json:"mallocs_per_eval"`
	Error          string  `json:"error,omitempty"`
}

// MetricsReport is the top-level --metrics-json document.
type MetricsReport struct {
	SchemaVersion int             `json:"schema_version"`
	Workload      workload.Config `json:"workload"`
	// CPUs and GoMaxProcs record the machine the numbers came from, so a
	// parallel speedup (or its absence) can be read honestly: a 1-CPU
	// runner cannot show one.
	CPUs       int            `json:"cpus"`
	GoMaxProcs int            `json:"gomaxprocs"`
	Records    []MetricRecord `json:"records"`
	// Serve carries the serving-throughput sweep when the serve
	// experiment ran (additive; absent in older reports).
	Serve []ServeRecord `json:"serve,omitempty"`
	// Fleet carries the router-fronted fleet sweep when the fleet
	// experiment ran (additive; absent in older reports).
	Fleet []FleetRecord `json:"fleet,omitempty"`
	// Store carries the cold-vs-warm segment-store sweep when the store
	// experiment ran (additive; absent in older reports).
	Store []StoreRecord `json:"store,omitempty"`
}

// counterNames lists the per-algorithm registry counters that feed a
// MetricRecord, in the order consumed by recordDeltas.
func counterNames(algo Algorithm) []string {
	a := string(algo)
	return []string{
		"core." + a + ".dominance_tests",
		"core." + a + ".refinements",
		"core." + a + ".splits",
		"measure." + a + ".evals",
		"measure." + a + ".indep_checks",
		"measure." + a + ".indep_hits",
	}
}

func counterValues(reg *obs.Registry, names []string) []int64 {
	vals := make([]int64, len(names))
	for i, n := range names {
		vals[i] = reg.Counter(n).Value()
	}
	return vals
}

// Regression is one cell whose timing worsened beyond the threshold
// against a baseline report.
type Regression struct {
	Record   MetricRecord
	Baseline int64 // baseline ns_per_plan
	Ratio    float64
}

// CompareReports checks cur's sequential records against base (the
// checked-in benchmark baseline): a cell regresses when its ns_per_plan
// exceeds the baseline's by more than threshold (0.20 = 20%). Parallel
// records, errored cells, and cells absent from the baseline are skipped
// — timing of the parallel path depends on the runner's core count, so
// only the sequential path gates.
func CompareReports(cur, base MetricsReport, threshold float64) []Regression {
	type key struct {
		algo, measure string
		bucket, k     int
	}
	baseline := map[key]int64{}
	for _, r := range base.Records {
		if r.Parallelism <= 1 && r.Error == "" && r.NsPerPlan > 0 {
			baseline[key{r.Algorithm, r.Measure, r.BucketSize, r.K}] = r.NsPerPlan
		}
	}
	var out []Regression
	for _, r := range cur.Records {
		if r.Parallelism > 1 || r.Error != "" || r.NsPerPlan <= 0 {
			continue
		}
		b, ok := baseline[key{r.Algorithm, r.Measure, r.BucketSize, r.K}]
		if !ok {
			continue
		}
		ratio := float64(r.NsPerPlan) / float64(b)
		if ratio > 1+threshold {
			out = append(out, Regression{Record: r, Baseline: b, Ratio: ratio})
		}
	}
	return out
}

// AllocRegression is one cell whose per-evaluation allocation count grew
// beyond the threshold against a baseline report.
type AllocRegression struct {
	Record   MetricRecord
	Baseline float64 // baseline mallocs_per_eval
	Ratio    float64
}

// CompareAllocs checks cur's sequential records' mallocs_per_eval
// against base, mirroring CompareReports for the allocation dimension.
// Cells whose baseline lacks allocation data (older reports predate the
// field and unmarshal it as zero) are skipped, so the gate arms itself
// automatically once a baseline with allocation counts is checked in.
func CompareAllocs(cur, base MetricsReport, threshold float64) []AllocRegression {
	type key struct {
		algo, measure string
		bucket, k     int
	}
	baseline := map[key]float64{}
	for _, r := range base.Records {
		if r.Parallelism <= 1 && r.Error == "" && r.MallocsPerEval > 0 {
			baseline[key{r.Algorithm, r.Measure, r.BucketSize, r.K}] = r.MallocsPerEval
		}
	}
	var out []AllocRegression
	for _, r := range cur.Records {
		if r.Parallelism > 1 || r.Error != "" || r.Evals == 0 {
			continue
		}
		b, ok := baseline[key{r.Algorithm, r.Measure, r.BucketSize, r.K}]
		if !ok {
			continue
		}
		ratio := r.MallocsPerEval / b
		if ratio > 1+threshold {
			out = append(out, AllocRegression{Record: r, Baseline: b, Ratio: ratio})
		}
	}
	return out
}

// CollectMetrics runs every cell against the shared domain and returns
// one MetricRecord per cell. All cells share reg (created if nil);
// per-cell numbers are computed as before/after counter deltas.
func CollectMetrics(d *workload.Domain, cells []Cell, reg *obs.Registry) []MetricRecord {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	recs := make([]MetricRecord, 0, len(cells))
	for _, cell := range cells {
		names := counterNames(cell.Algo)
		before := counterValues(reg, names)
		res := RunObserved(d, cell, reg)
		after := counterValues(reg, names)
		// Extra reps keep the fastest wall time and lowest malloc count.
		// Counter deltas come from the first rep alone: the orderers are
		// deterministic, so every rep produces identical counts.
		for r := 1; r < cell.Reps && res.Err == "" && res.Time < repCutoff; r++ {
			res2 := RunObserved(d, cell, reg)
			if res2.Err != "" {
				continue
			}
			if res2.Time < res.Time {
				res.Time = res2.Time
				res.TimeToFirst = res2.TimeToFirst
			}
			if res2.Mallocs < res.Mallocs {
				res.Mallocs = res2.Mallocs
			}
		}
		delta := func(i int) int64 { return after[i] - before[i] }
		rec := MetricRecord{
			Mallocs:        res.Mallocs,
			Algorithm:      string(cell.Algo),
			Measure:        string(cell.Measure),
			BucketSize:     cell.Config.BucketSize,
			K:              cell.K,
			Parallelism:    cell.Parallelism,
			Plans:          res.Plans,
			Evals:          delta(3),
			DominanceTests: delta(0),
			Refinements:    delta(1),
			Splits:         delta(2),
			IndepChecks:    delta(4),
			IndepHits:      delta(5),
			TotalNs:        res.Time.Nanoseconds(),
			TimeToFirstNs:  res.TimeToFirst.Nanoseconds(),
			Error:          res.Err,
		}
		if res.Plans > 0 {
			rec.NsPerPlan = rec.TotalNs / int64(res.Plans)
		}
		if rec.Evals > 0 {
			rec.MallocsPerEval = float64(res.Mallocs) / float64(rec.Evals)
		}
		recs = append(recs, rec)
	}
	return recs
}
