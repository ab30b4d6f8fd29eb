// Command qpbench regenerates the paper's evaluation (Section 6): every
// panel of Figure 6, the overlap-rate and query-length sweeps described
// in the text, the plans-evaluated fraction, and a Greedy scaling
// experiment for Section 4.
//
// Usage:
//
//	qpbench                        # run everything with default sizes
//	qpbench -exp fig6a,fig6b      # selected panels
//	qpbench -exp fig6 -sizes 10,20,40
//	qpbench -exp overlap,qlen,evalfrac,greedy
//	qpbench -csv                   # machine-readable output
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"qporder/internal/experiment"
	"qporder/internal/stats"
	"qporder/internal/workload"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "experiments: all, fig6, fig6a..fig6l, overlap, qlen, evalfrac, ablation, tta, soundness, greedy, par, serve, fleet, calibration, store (comma-separated)")
		sizesFlag = flag.String("sizes", "10,20,40,60,80", "bucket sizes for Figure 6 panels")
		seed      = flag.Int64("seed", 42, "workload seed")
		qlen      = flag.Int("qlen", 3, "query length (paper default 3)")
		zones     = flag.Int("zones", 3, "coverage zones; overlap rate ≈ 1/zones (paper default 0.3)")
		universe  = flag.Int("universe", 4096, "coverage universe size")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		metrics   = flag.String("metrics-json", "", "write the machine-readable metrics report (JSON) to this path")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
		par       = flag.Int("parallelism", 1, "orderer worker count for the par experiment and the parallel metrics records (1 = sequential only)")
		compare   = flag.String("compare", "", "baseline metrics JSON to regression-check sequential ns/plan against (exit 1 on regression)")
		regThresh = flag.Float64("regress-threshold", 0.20, "allowed ns/plan worsening vs -compare baseline (0.20 = 20%)")
		reps      = flag.Int("reps", 3, "timing repetitions per metrics cell (best-of-N; sub-second cells only)")
		calibFlag = flag.Bool("calibration", false, "run the estimator-calibration experiment (alias for -exp calibration)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "qpbench: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof: serving %s (/debug/pprof/)\n", *pprofAddr)
	}

	sizes, err := parseInts(*sizesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qpbench: bad -sizes:", err)
		os.Exit(2)
	}
	base := workload.Config{QueryLen: *qlen, Zones: *zones, Universe: *universe, Seed: *seed}
	dc := make(experiment.DomainCache)

	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(e)] = true
	}
	if *calibFlag {
		// -calibration alone runs just that experiment; combined with
		// -exp it adds the calibration cell to the selection.
		if *expFlag == "all" {
			delete(want, "all")
		}
		want["calibration"] = true
	}
	wants := func(names ...string) bool {
		if want["all"] {
			return true
		}
		for _, n := range names {
			if want[n] {
				return true
			}
		}
		return false
	}

	render := func(t *stats.Table) {
		if *csv {
			t.CSV(os.Stdout)
		} else {
			t.Render(os.Stdout)
		}
		fmt.Println()
	}

	start := time.Now()
	for _, p := range experiment.Fig6Panels() {
		if !wants("fig6", "fig"+p.ID) {
			continue
		}
		fmt.Printf("== Figure %s: %s (qlen=%d, overlap≈%.2f) ==\n", p.ID, p.Title, *qlen, 1/float64(*zones))
		pr := experiment.RunPanel(dc, p, sizes, base)
		render(pr.Table())
	}

	if wants("overlap") {
		fmt.Println("== Overlap-rate sweep: coverage, k=10, PI vs Streamer ==")
		cfg := base
		cfg.BucketSize = 40
		pts := experiment.RunOverlapSweep(dc, []int{10, 5, 3, 2, 1}, 10, cfg)
		render(experiment.SweepTable(pts, []experiment.Algorithm{experiment.AlgoPI, experiment.AlgoStreamer}))
	}

	if wants("qlen") {
		fmt.Println("== Query-length sweep: coverage, k=10, bucket=10 ==")
		cfg := base
		cfg.BucketSize = 10
		pts := experiment.RunQueryLenSweep(dc, []int{1, 2, 3, 4, 5, 6, 7}, 10, experiment.MeasureCoverage, cfg)
		render(experiment.SweepTable(pts, []experiment.Algorithm{
			experiment.AlgoPI, experiment.AlgoIDrips, experiment.AlgoStreamer}))
	}

	if wants("evalfrac") {
		fmt.Println("== Plans evaluated, first plan: Streamer vs PI (paper: <4%) ==")
		t := stats.NewTable("bucket", "streamer-evals", "pi-evals", "fraction")
		for _, m := range sizes {
			cfg := base
			cfg.BucketSize = m
			s, p, f := experiment.EvalFraction(dc, cfg)
			t.Add(fmt.Sprint(m), fmt.Sprint(s), fmt.Sprint(p), fmt.Sprintf("%.2f%%", 100*f))
		}
		render(t)
	}

	if wants("tta") {
		fmt.Println("== Time to answers: ordered (coverage/Streamer) vs unordered execution ==")
		cfg := base
		cfg.BucketSize = 12
		d := dc.Get(cfg)
		r, err := experiment.RunFirstAnswers(d, []float64{0.25, 0.5, 0.75, 0.9, 1.0})
		if err != nil {
			fmt.Fprintln(os.Stderr, "qpbench: tta:", err)
			os.Exit(1)
		}
		fmt.Printf("(%d total answers, full cost %.0f)\n", r.TotalAnswers, r.TotalCost)
		render(r.Table())
	}

	if wants("soundness") {
		fmt.Println("== Sound-plan density and rank of first sound plan (Section 2's argument) ==")
		r, err := experiment.RunSoundness(200, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qpbench: soundness:", err)
			os.Exit(1)
		}
		render(r.Table())
	}

	if wants("ablation") {
		fmt.Println("== Heuristic ablation: coverage, k=10, bucket=40 ==")
		cfg := base
		cfg.BucketSize = 40
		render(experiment.AblationTable(experiment.RunHeuristicAblation(dc, 10, cfg)))
	}

	if wants("par") {
		workers := *par
		if workers <= 1 {
			workers = 4
		}
		fmt.Printf("== Sequential vs parallel ordering: coverage, k=10, %d workers (%d CPUs) ==\n",
			workers, runtime.NumCPU())
		t := stats.NewTable("bucket", "algorithm", "seq-time", "par-time", "speedup", "evals-match")
		for _, m := range sizes {
			cfg := base
			cfg.BucketSize = m
			d := dc.Get(cfg)
			for _, algo := range []experiment.Algorithm{
				experiment.AlgoPI, experiment.AlgoIDrips, experiment.AlgoStreamer,
			} {
				seq := experiment.Run(d, experiment.Cell{Algo: algo, Measure: experiment.MeasureCoverage, K: 10, Config: cfg})
				p := experiment.Run(d, experiment.Cell{Algo: algo, Measure: experiment.MeasureCoverage, K: 10, Config: cfg, Parallelism: workers})
				speedup := float64(seq.Time) / float64(p.Time)
				t.Add(fmt.Sprint(m), string(algo),
					stats.FormatDuration(seq.Time), stats.FormatDuration(p.Time),
					fmt.Sprintf("%.2fx", speedup), fmt.Sprint(seq.Evals == p.Evals))
			}
		}
		render(t)
	}

	var serveRecs []experiment.ServeRecord
	if wants("serve") {
		fmt.Println("== Serving throughput: qpserved-equivalent daemon, chain/streamer, warm session cache ==")
		cfg := base
		cfg.BucketSize = 12
		recs, err := experiment.RunServe(dc.Get(cfg), experiment.ServeConfig{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "qpbench: serve:", err)
			os.Exit(1)
		}
		serveRecs = recs
		render(experiment.ServeTable(recs))
	}

	var fleetRecs []experiment.FleetRecord
	if wants("fleet") {
		fmt.Println("== Fleet throughput: sharded daemons behind a consistent-hash router, affinity vs scatter ==")
		cfg := base
		// Session cost is dominated by simulated plan execution; a small
		// bucket keeps the whole two-mode sweep in the tens of seconds.
		cfg.BucketSize = 6
		recs, err := experiment.RunFleet(dc.Get(cfg), experiment.FleetConfig{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "qpbench: fleet:", err)
			os.Exit(1)
		}
		fleetRecs = recs
		render(experiment.FleetTable(recs))
	}

	if wants("calibration") {
		fmt.Println("== Estimator calibration: fresh vs stale statistics (stale must trip the drift detector) ==")
		cfg := base
		cfg.QueryLen = 2
		cfg.BucketSize = 4
		recs, err := experiment.RunCalibration(cfg, 16, 12)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qpbench: calibration:", err)
			os.Exit(1)
		}
		render(experiment.CalibTable(recs))
		for _, r := range recs {
			if r.Scenario == "stale" && len(r.Drifted) == 0 {
				fmt.Fprintln(os.Stderr, "qpbench: calibration: stale scenario did not trip the drift detector")
				os.Exit(1)
			}
		}
	}

	var storeRecs []experiment.StoreRecord
	if wants("store") {
		// The sweep runs against a catalog 16× the default in-memory
		// universe (per-source answer sets an order of magnitude past
		// what default runs hold), persisted to disk and re-read cold
		// and warm through the segment store's page-touch tracker.
		cfg := base
		cfg.Universe = *universe * 16
		cfg.BucketSize = 12
		fmt.Printf("== Segment store: in-memory vs store-backed cold/warm, universe %d (16x default) ==\n", cfg.Universe)
		recs, err := experiment.RunStore(experiment.StoreConfig{Config: cfg})
		if err != nil {
			fmt.Fprintln(os.Stderr, "qpbench: store:", err)
			os.Exit(1)
		}
		storeRecs = recs
		render(experiment.StoreTable(recs))
		for _, r := range recs {
			if r.Error == "" && !r.Parity {
				fmt.Fprintf(os.Stderr, "qpbench: store: %s/%s diverged from the in-memory stream\n", r.Mode, r.Algorithm)
				os.Exit(1)
			}
		}
	}

	if wants("greedy") {
		fmt.Println("== Greedy scaling (Section 4): linear cost, k=20 ==")
		t := stats.NewTable("bucket", "greedy-time", "greedy-evals", "exhaustive-time", "exhaustive-evals")
		for _, m := range sizes {
			cfg := base
			cfg.BucketSize = m
			d := dc.Get(cfg)
			g := runCell(d, experiment.AlgoGreedy, experiment.MeasureLinear, 20, cfg)
			e := runCell(d, experiment.AlgoExhaustive, experiment.MeasureLinear, 20, cfg)
			t.Add(fmt.Sprint(m),
				stats.FormatDuration(g.Time), fmt.Sprint(g.Evals),
				stats.FormatDuration(e.Time), fmt.Sprint(e.Evals))
		}
		render(t)
	}

	if *metrics != "" || *compare != "" {
		rep := buildMetrics(dc, sizes, base, *par, *reps)
		rep.Serve = serveRecs
		rep.Fleet = fleetRecs
		rep.Store = storeRecs
		if *metrics != "" {
			if err := writeReport(*metrics, rep); err != nil {
				fmt.Fprintln(os.Stderr, "qpbench: metrics:", err)
				os.Exit(1)
			}
			fmt.Printf("metrics: wrote %s\n", *metrics)
		}
		if *compare != "" {
			if !checkRegressions(rep, *compare, *regThresh) {
				os.Exit(1)
			}
		}
	}

	fmt.Printf("total: %s\n", stats.FormatDuration(time.Since(start)))
}

// buildMetrics runs the instrumented benchmark cells — coverage with PI,
// iDrips, and Streamer (k=10) plus linear cost with Greedy (k=20) at each
// bucket size — and assembles the MetricsReport document. With par > 1
// each cell also runs with that worker count, so the report carries
// sequential-vs-parallel pairs (tagged by the parallelism field). Cells
// are timed best-of-reps (sub-second cells only) so the micro cells
// aren't at the mercy of one scheduler hiccup.
func buildMetrics(dc experiment.DomainCache, sizes []int, base workload.Config, par, reps int) experiment.MetricsReport {
	var recs []experiment.MetricRecord
	for _, m := range sizes {
		cfg := base
		cfg.BucketSize = m
		cells := []experiment.Cell{
			{Algo: experiment.AlgoPI, Measure: experiment.MeasureCoverage, K: 10, Config: cfg, Reps: reps},
			{Algo: experiment.AlgoIDrips, Measure: experiment.MeasureCoverage, K: 10, Config: cfg, Reps: reps},
			{Algo: experiment.AlgoStreamer, Measure: experiment.MeasureCoverage, K: 10, Config: cfg, Reps: reps},
			{Algo: experiment.AlgoGreedy, Measure: experiment.MeasureLinear, K: 20, Config: cfg, Reps: reps},
		}
		if par > 1 {
			for _, c := range cells[:len(cells):len(cells)] {
				c.Parallelism = par
				cells = append(cells, c)
			}
		}
		recs = append(recs, experiment.CollectMetrics(dc.Get(cfg), cells, nil)...)
	}
	return experiment.MetricsReport{
		SchemaVersion: experiment.MetricsSchemaVersion,
		Workload:      base,
		CPUs:          runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Records:       recs,
	}
}

func writeReport(path string, rep experiment.MetricsReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkRegressions compares the current report's sequential ns/plan
// against the baseline file; it prints every regression and returns
// false when any cell worsened beyond the threshold.
func checkRegressions(cur experiment.MetricsReport, baselinePath string, threshold float64) bool {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qpbench: compare:", err)
		return false
	}
	var base experiment.MetricsReport
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintln(os.Stderr, "qpbench: compare:", err)
		return false
	}
	regs := experiment.CompareReports(cur, base, threshold)
	aregs := experiment.CompareAllocs(cur, base, threshold)
	if len(regs) == 0 && len(aregs) == 0 {
		fmt.Printf("compare: no sequential ns/plan or allocs/eval regression vs %s (threshold %.0f%%)\n",
			baselinePath, 100*threshold)
		return true
	}
	for _, r := range regs {
		fmt.Fprintf(os.Stderr,
			"qpbench: REGRESSION %s/%s bucket=%d k=%d: %d ns/plan vs baseline %d (%.2fx > %.2fx)\n",
			r.Record.Algorithm, r.Record.Measure, r.Record.BucketSize, r.Record.K,
			r.Record.NsPerPlan, r.Baseline, r.Ratio, 1+threshold)
	}
	for _, r := range aregs {
		fmt.Fprintf(os.Stderr,
			"qpbench: ALLOC REGRESSION %s/%s bucket=%d k=%d: %.2f allocs/eval vs baseline %.2f (%.2fx > %.2fx)\n",
			r.Record.Algorithm, r.Record.Measure, r.Record.BucketSize, r.Record.K,
			r.Record.MallocsPerEval, r.Baseline, r.Ratio, 1+threshold)
	}
	return false
}

func runCell(d *workload.Domain, algo experiment.Algorithm, m experiment.MeasureKey, k int, cfg workload.Config) experiment.Result {
	return experiment.Run(d, experiment.Cell{Algo: algo, Measure: m, K: k, Config: cfg})
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("non-positive size %d", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty size list")
	}
	return out, nil
}
