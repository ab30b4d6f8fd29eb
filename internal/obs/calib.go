package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// This file is the estimator-calibration half of the observability
// layer. Every ordering algorithm ranks plans purely from *estimated*
// source statistics; a Calibration pairs those estimates with the ground
// truth observed when plans actually execute and reduces the pairs to
// q-error histograms, signed-bias gauges, and an EWMA drift detector per
// series. Two families of series are tracked:
//
//   - source series, one per (source, statistic): the engine feeds them
//     from unconstrained source accesses, pairing the catalog's Tuples
//     estimate with the observed result size (see DESIGN.md §"Estimate/
//     actual pairing contract" for why bound accesses are excluded);
//   - plan series, one per measure/algorithm pair: the mediator feeds
//     them after each executed plan, pairing the utility at selection
//     with the execution outcome (fresh answers for coverage-family
//     measures, engine cost delta for cost-family measures — see
//     PairPlanEstimate) plus the plan's wall time.
//
// Like the rest of obs, every method on a nil *Calibration is a no-op
// performing no allocations, so the engine and mediator hot paths record
// unconditionally; disabling calibration is passing nil.

// Calibration defaults.
const (
	// DefaultCalibAlpha is the EWMA smoothing factor for the drift
	// detector's running log-ratio.
	DefaultCalibAlpha = 0.3
	// DefaultCalibDriftFactor trips the drift detector once the EWMA of
	// log2(est/act) exceeds log2(DefaultCalibDriftFactor) in either
	// direction: estimates off by 4x on a smoothed basis are stale.
	DefaultCalibDriftFactor = 4
	// DefaultCalibMinSamples is how many observations a series needs
	// before the drift detector may trip (a single outlier is not drift).
	DefaultCalibMinSamples = 3
	// calibClamp is the floor substituted for non-positive estimates or
	// actuals before forming ratios.
	calibClamp = 0.5
)

// CalibConfig parameterizes a Calibration. Zero fields take the
// defaults above.
type CalibConfig struct {
	// Alpha is the EWMA smoothing factor in (0, 1].
	Alpha float64
	// DriftFactor sets the drift threshold: the detector trips when
	// |EWMA of log2(est/act)| > log2(DriftFactor). Must be > 1.
	DriftFactor float64
	// MinSamples gates the detector: a series cannot trip before this
	// many observations.
	MinSamples int
}

// withDefaults fills unset fields.
func (c CalibConfig) withDefaults() CalibConfig {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = DefaultCalibAlpha
	}
	if c.DriftFactor <= 1 {
		c.DriftFactor = DefaultCalibDriftFactor
	}
	if c.MinSamples <= 0 {
		c.MinSamples = DefaultCalibMinSamples
	}
	return c
}

// calibSeries is the accumulator behind one estimate-vs-actual series.
type calibSeries struct {
	samples   int64
	estSum    float64
	actSum    float64
	logSum    float64 // Σ log2(est/act): signed bias, in doublings
	actLogSum float64 // Σ log2(act): geometric-mean accumulator
	ewma      float64 // EWMA of log2(est/act)
	seeded    bool
	tripped   bool // latches once drift is detected

	// failures counts the failed attempts before the sampled accesses
	// (source series only): samples+failures attempts in all.
	failures int64

	qerr Histogram // milli-q-error: 1000 * max(est/act, act/est)

	// Plan-series extras (unused for source series).
	wall    Histogram // per-plan wall time, ns
	answers int64
	cost    float64
}

// Calibration accumulates estimate-vs-actual series. All methods are
// concurrency-safe and nil-safe.
type Calibration struct {
	cfg       CalibConfig
	threshold float64 // log2(DriftFactor)

	mu      sync.Mutex
	sources map[string]*calibSeries
	plans   map[string]*calibSeries
}

// NewCalibration builds a calibration accumulator.
func NewCalibration(cfg CalibConfig) *Calibration {
	cfg = cfg.withDefaults()
	return &Calibration{
		cfg:       cfg,
		threshold: math.Log2(cfg.DriftFactor),
		sources:   make(map[string]*calibSeries),
		plans:     make(map[string]*calibSeries),
	}
}

// clampPos floors non-positive values to calibClamp so ratios are
// well-defined (a source that returned nothing still observed something).
func clampPos(v float64) float64 {
	if v <= 0 {
		return calibClamp
	}
	return v
}

// qError is the factor by which est and act disagree, in either
// direction: max(est/act, act/est) >= 1, the standard q-error.
func qError(est, act float64) float64 {
	if est > act {
		return est / act
	}
	return act / est
}

// observe folds one (est, act) pair into a series. Caller holds c.mu.
func (c *Calibration) observe(s *calibSeries, est, act float64) {
	est, act = clampPos(est), clampPos(act)
	lr := math.Log2(est / act)
	s.samples++
	s.estSum += est
	s.actSum += act
	s.logSum += lr
	s.actLogSum += math.Log2(act)
	if !s.seeded {
		s.seeded = true
		s.ewma = lr
	} else {
		s.ewma = c.cfg.Alpha*lr + (1-c.cfg.Alpha)*s.ewma
	}
	if s.samples >= int64(c.cfg.MinSamples) && math.Abs(s.ewma) > c.threshold {
		s.tripped = true
	}
	s.qerr.Observe(int64(qError(est, act) * 1000))
}

// ObserveSource records one source-statistic observation: the estimate
// the catalog carried (e.g. Stats.Tuples) against the actual observed
// during execution, and the failed attempts before the access succeeded.
func (c *Calibration) ObserveSource(source string, est, act float64, failed int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	s := c.sources[source]
	if s == nil {
		s = &calibSeries{}
		c.sources[source] = s
	}
	c.observe(s, est, act)
	s.failures += int64(failed)
	c.mu.Unlock()
}

// SourceObserved returns a source series' mean actual and the share of
// its access attempts that failed; ok is false when the source has no
// samples.
func (c *Calibration) SourceObserved(source string) (meanAct, failureRate float64, ok bool) {
	if c == nil {
		return 0, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.sources[source]
	if s == nil {
		return 0, 0, false
	}
	return s.actSum / float64(s.samples), float64(s.failures) / float64(s.samples+s.failures), true
}

// ObservePlan records one executed plan under the given series key
// (conventionally "<measure>/<algorithm>"): the paired estimate and
// actual (see PairPlanEstimate), the fresh answers the plan contributed,
// the engine cost it accrued, and its wall time.
func (c *Calibration) ObservePlan(key string, est, act float64, newAnswers int, cost float64, wall time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	s := c.plans[key]
	if s == nil {
		s = &calibSeries{}
		c.plans[key] = s
	}
	c.observe(s, est, act)
	s.answers += int64(newAnswers)
	s.cost += cost
	s.wall.Observe(int64(wall))
	c.mu.Unlock()
}

// PairPlanEstimate maps a plan's predicted utility onto the estimate/
// actual pair the calibration layer tracks. Coverage-family measures
// produce nonnegative utilities predicting answer yield, so the actual
// is the fresh answers the plan contributed; cost-family measures
// produce negated costs (higher utility = cheaper), so the estimate is
// the predicted cost and the actual is the engine's cost delta. This is
// the pairing contract documented in DESIGN.md.
func PairPlanEstimate(utility float64, newAnswers int, costDelta float64) (est, act float64) {
	if utility >= 0 {
		return utility, float64(newAnswers)
	}
	return -utility, costDelta
}

// Drifted returns the sorted names of source series whose drift detector
// has tripped (nil for a nil Calibration).
func (c *Calibration) Drifted() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	var out []string
	for name, s := range c.sources {
		if s.tripped {
			out = append(out, name)
		}
	}
	c.mu.Unlock()
	sort.Strings(out)
	return out
}

// CalibSeries is the snapshot of one estimate-vs-actual series.
type CalibSeries struct {
	// Name is the source name (source series) or the measure/algorithm
	// key (plan series).
	Name string `json:"name"`
	// Stat names the calibrated statistic ("tuples" for source series).
	Stat    string `json:"stat,omitempty"`
	Samples int64  `json:"samples"`
	// EstMean and ActMean are the arithmetic means of the paired
	// estimates and actuals.
	EstMean float64 `json:"est_mean"`
	ActMean float64 `json:"act_mean"`
	// ActGeoMean is the geometric mean of the actuals — the log-space
	// center a perfectly calibrated estimate would sit at.
	ActGeoMean float64 `json:"act_geo_mean"`
	// QErrP50/P95/Max summarize the q-error distribution
	// (max(est/act, act/est) >= 1; 1 is a perfect estimate).
	QErrP50 float64 `json:"qerr_p50"`
	QErrP95 float64 `json:"qerr_p95"`
	QErrMax float64 `json:"qerr_max"`
	// Bias is the mean signed log2(est/act): positive = overestimation,
	// in doublings.
	Bias float64 `json:"bias_log2"`
	// EWMA is the drift detector's smoothed log2(est/act).
	EWMA float64 `json:"ewma_log2"`
	// Drifted reports whether the detector has tripped (latched).
	Drifted bool `json:"drifted"`
	// Plan-series extras: total fresh answers, total engine cost, and
	// wall-time quantiles across the executed plans.
	Answers   int64   `json:"answers,omitempty"`
	Cost      float64 `json:"cost,omitempty"`
	WallP50MS float64 `json:"wall_p50_ms,omitempty"`
	WallP95MS float64 `json:"wall_p95_ms,omitempty"`
	WallSumMS float64 `json:"wall_sum_ms,omitempty"`
	// QErrSum backs the OpenMetrics summary's _sum sample.
	QErrSum float64 `json:"qerr_sum,omitempty"`
}

// CalibrationSnapshot is a point-in-time copy of a Calibration,
// JSON-serializable; series are sorted by name.
type CalibrationSnapshot struct {
	Alpha       float64       `json:"alpha"`
	DriftFactor float64       `json:"drift_factor"`
	MinSamples  int           `json:"min_samples"`
	Sources     []CalibSeries `json:"sources,omitempty"`
	Plans       []CalibSeries `json:"plans,omitempty"`
}

// snapshotSeries copies one series. Caller holds c.mu.
func snapshotSeries(name, stat string, s *calibSeries, plan bool) CalibSeries {
	q := s.qerr.Snapshot()
	out := CalibSeries{
		Name:    name,
		Stat:    stat,
		Samples: s.samples,
		EWMA:    s.ewma,
		Drifted: s.tripped,
		QErrP50: float64(q.Quantile(0.50)) / 1000,
		QErrP95: float64(q.Quantile(0.95)) / 1000,
		QErrMax: float64(q.Max) / 1000,
		QErrSum: float64(q.Sum) / 1000,
	}
	if s.samples > 0 {
		n := float64(s.samples)
		out.EstMean = s.estSum / n
		out.ActMean = s.actSum / n
		out.ActGeoMean = math.Exp2(s.actLogSum / n)
		out.Bias = s.logSum / n
	}
	if plan {
		w := s.wall.Snapshot()
		out.Answers = s.answers
		out.Cost = s.cost
		out.WallP50MS = float64(w.Quantile(0.50)) / 1e6
		out.WallP95MS = float64(w.Quantile(0.95)) / 1e6
		out.WallSumMS = float64(w.Sum) / 1e6
	}
	return out
}

// Snapshot copies the calibration's current state. A nil Calibration
// yields a zero snapshot.
func (c *Calibration) Snapshot() CalibrationSnapshot {
	if c == nil {
		return CalibrationSnapshot{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := CalibrationSnapshot{
		Alpha:       c.cfg.Alpha,
		DriftFactor: c.cfg.DriftFactor,
		MinSamples:  c.cfg.MinSamples,
		Sources:     make([]CalibSeries, 0, len(c.sources)),
		Plans:       make([]CalibSeries, 0, len(c.plans)),
	}
	for name, s := range c.sources {
		snap.Sources = append(snap.Sources, snapshotSeries(name, "tuples", s, false))
	}
	for key, s := range c.plans {
		snap.Plans = append(snap.Plans, snapshotSeries(key, "", s, true))
	}
	sort.Slice(snap.Sources, func(i, j int) bool { return snap.Sources[i].Name < snap.Sources[j].Name })
	sort.Slice(snap.Plans, func(i, j int) bool { return snap.Plans[i].Name < snap.Plans[j].Name })
	return snap
}

// Empty reports whether the snapshot holds no series at all.
func (s CalibrationSnapshot) Empty() bool {
	return len(s.Sources) == 0 && len(s.Plans) == 0
}

// WriteText renders the snapshot for terminals.
func (s CalibrationSnapshot) WriteText(w io.Writer) error {
	var err error
	p := func(format string, args ...interface{}) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("calibration (drift trips at |ewma| > log2(%g) = %.2f after %d samples):\n",
		s.DriftFactor, math.Log2(s.DriftFactor), s.MinSamples)
	if s.Empty() {
		p("  no observations yet\n")
		return err
	}
	if len(s.Sources) > 0 {
		p("  per-source (%s):\n", "tuples estimate vs observed result size, unbound accesses")
		for _, cs := range s.Sources {
			flag := ""
			if cs.Drifted {
				flag = "  DRIFTED"
			}
			p("    %-20s n=%-5d est=%-10.4g act=%-10.4g qerr p50=%-8.3g p95=%-8.3g max=%-8.3g bias=%+.3f ewma=%+.3f%s\n",
				cs.Name, cs.Samples, cs.EstMean, cs.ActMean, cs.QErrP50, cs.QErrP95, cs.QErrMax, cs.Bias, cs.EWMA, flag)
		}
	}
	if len(s.Plans) > 0 {
		p("  per-plan (utility at selection vs execution outcome):\n")
		for _, cs := range s.Plans {
			flag := ""
			if cs.Drifted {
				flag = "  DRIFTED"
			}
			p("    %-20s n=%-5d est=%-10.4g act=%-10.4g qerr p50=%-8.3g p95=%-8.3g bias=%+.3f ewma=%+.3f answers=%-5d cost=%-10.4g wall p50=%.3gms p95=%.3gms%s\n",
				cs.Name, cs.Samples, cs.EstMean, cs.ActMean, cs.QErrP50, cs.QErrP95, cs.Bias, cs.EWMA,
				cs.Answers, cs.Cost, cs.WallP50MS, cs.WallP95MS, flag)
		}
	}
	return err
}

// CalibrationRecord is one NDJSON line of a calibration export: the
// snapshot, optionally correlated to the request trace that finished
// when it was taken. The non-empty "calibration" key is what
// distinguishes these lines from TraceSnapshot lines in a mixed export
// stream (see ReadExports).
type CalibrationRecord struct {
	TraceID     string              `json:"trace_id,omitempty"`
	Calibration CalibrationSnapshot `json:"calibration"`
}

// ReadExports decodes a mixed NDJSON export stream: TraceSnapshot lines
// (qpserved -trace-out, qporder -trace) interleaved with
// CalibrationRecord lines (qpserved -calib-out). Blank lines are
// skipped; any line that is neither is an error — exports are
// machine-written, so corruption fails loudly, exactly as ReadTraces
// does for pure trace streams.
func ReadExports(r io.Reader) ([]TraceSnapshot, []CalibrationRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var traces []TraceSnapshot
	var calibs []CalibrationRecord
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var probe struct {
			Calibration json.RawMessage `json:"calibration"`
		}
		if err := json.Unmarshal(b, &probe); err != nil {
			return nil, nil, fmt.Errorf("obs: export line %d: %w", line, err)
		}
		if len(probe.Calibration) > 0 && string(probe.Calibration) != "null" {
			var rec CalibrationRecord
			if err := json.Unmarshal(b, &rec); err != nil {
				return nil, nil, fmt.Errorf("obs: export line %d: %w", line, err)
			}
			calibs = append(calibs, rec)
			continue
		}
		var t TraceSnapshot
		if err := json.Unmarshal(b, &t); err != nil {
			return nil, nil, fmt.Errorf("obs: export line %d: %w", line, err)
		}
		if t.TraceID.IsZero() {
			return nil, nil, fmt.Errorf("obs: export line %d: zero trace ID", line)
		}
		traces = append(traces, t)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return traces, calibs, nil
}
