package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestQError(t *testing.T) {
	for _, tc := range []struct {
		est, act, want float64
	}{
		{10, 10, 1},
		{20, 10, 2},
		{10, 20, 2},
		{1, 16, 16},
	} {
		if got := qError(tc.est, tc.act); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("qError(%g, %g) = %g, want %g", tc.est, tc.act, got, tc.want)
		}
	}
}

func TestCalibrationPerfectEstimatesStayQuiet(t *testing.T) {
	c := NewCalibration(CalibConfig{})
	for i := 0; i < 10; i++ {
		c.ObserveSource("V0", 80, 80, 0)
	}
	snap := c.Snapshot()
	if len(snap.Sources) != 1 {
		t.Fatalf("sources = %d, want 1", len(snap.Sources))
	}
	s := snap.Sources[0]
	if s.Name != "V0" || s.Samples != 10 {
		t.Fatalf("series = %+v", s)
	}
	if s.QErrP50 > 1.001 || s.QErrMax > 1.001 {
		t.Errorf("perfect estimates have q-error p50=%g max=%g, want 1", s.QErrP50, s.QErrMax)
	}
	if s.Bias != 0 || s.EWMA != 0 {
		t.Errorf("perfect estimates have bias=%g ewma=%g, want 0", s.Bias, s.EWMA)
	}
	if s.Drifted {
		t.Error("perfect estimates tripped the drift detector")
	}
	if got := c.Drifted(); len(got) != 0 {
		t.Errorf("Drifted() = %v, want empty", got)
	}
}

func TestCalibrationDriftTripsAfterMinSamples(t *testing.T) {
	c := NewCalibration(CalibConfig{}) // threshold log2(4) = 2, min 3
	// 16x stale: log2 ratio = 4 > 2 from the first (seeded) sample, but
	// the detector must hold until MinSamples.
	c.ObserveSource("V0", 160, 10, 0)
	c.ObserveSource("V0", 160, 10, 0)
	if got := c.Drifted(); len(got) != 0 {
		t.Fatalf("tripped after 2 samples (min 3): %v", got)
	}
	c.ObserveSource("V0", 160, 10, 0)
	if got := c.Drifted(); len(got) != 1 || got[0] != "V0" {
		t.Fatalf("Drifted() = %v, want [V0]", got)
	}
	// The trip latches even if later estimates look fine.
	for i := 0; i < 50; i++ {
		c.ObserveSource("V0", 10, 10, 0)
	}
	if got := c.Drifted(); len(got) != 1 {
		t.Fatalf("trip did not latch: %v", got)
	}
	s := c.Snapshot().Sources[0]
	if !s.Drifted {
		t.Error("snapshot lost the latched drift flag")
	}
	// After 50 perfect observations the EWMA itself has decayed home.
	if math.Abs(s.EWMA) > 0.01 {
		t.Errorf("EWMA did not decay: %g", s.EWMA)
	}
}

func TestCalibrationEWMASeedAndDecay(t *testing.T) {
	c := NewCalibration(CalibConfig{Alpha: 0.5, DriftFactor: 1e9})
	c.ObserveSource("V", 8, 2, 0) // seeds at log2(4) = 2
	if got := c.Snapshot().Sources[0].EWMA; math.Abs(got-2) > 1e-12 {
		t.Fatalf("seed EWMA = %g, want 2", got)
	}
	c.ObserveSource("V", 2, 2, 0) // 0.5*0 + 0.5*2 = 1
	if got := c.Snapshot().Sources[0].EWMA; math.Abs(got-1) > 1e-12 {
		t.Fatalf("EWMA after decay = %g, want 1", got)
	}
}

func TestCalibrationClampsNonPositive(t *testing.T) {
	c := NewCalibration(CalibConfig{})
	c.ObserveSource("V", 1, 0, 0) // act clamped to 0.5 -> qerr 2
	s := c.Snapshot().Sources[0]
	if math.Abs(s.QErrMax-2) > 0.01 {
		t.Fatalf("clamped q-error = %g, want 2", s.QErrMax)
	}
}

func TestCalibrationSourceObserved(t *testing.T) {
	c := NewCalibration(CalibConfig{})
	c.ObserveSource("A", 100, 90, 1)
	c.ObserveSource("A", 100, 110, 0)
	mean, failRate, ok := c.SourceObserved("A")
	if !ok || mean != 100 || math.Abs(failRate-1.0/3) > 1e-12 {
		t.Errorf("SourceObserved(A) = (%g, %g, %v), want (100, 1/3, true)", mean, failRate, ok)
	}
	if _, _, ok := c.SourceObserved("B"); ok {
		t.Error("unobserved source reported ok")
	}
	if _, _, ok := (*Calibration)(nil).SourceObserved("A"); ok {
		t.Error("nil calibration reported ok")
	}
}

func TestPairPlanEstimate(t *testing.T) {
	// Coverage family: nonnegative utility predicts answer yield.
	if est, act := PairPlanEstimate(12.5, 10, 99); est != 12.5 || act != 10 {
		t.Errorf("coverage pairing = (%g, %g), want (12.5, 10)", est, act)
	}
	// Cost family: negated-cost utility predicts the engine cost delta.
	if est, act := PairPlanEstimate(-200, 10, 180); est != 200 || act != 180 {
		t.Errorf("cost pairing = (%g, %g), want (200, 180)", est, act)
	}
}

func TestCalibrationPlanSeries(t *testing.T) {
	c := NewCalibration(CalibConfig{})
	c.ObservePlan("chain/streamer", 100, 90, 7, 42.5, 3*time.Millisecond)
	c.ObservePlan("chain/streamer", 100, 110, 3, 7.5, time.Millisecond)
	snap := c.Snapshot()
	if len(snap.Plans) != 1 {
		t.Fatalf("plans = %d, want 1", len(snap.Plans))
	}
	p := snap.Plans[0]
	if p.Name != "chain/streamer" || p.Samples != 2 {
		t.Fatalf("series = %+v", p)
	}
	if p.Answers != 10 {
		t.Errorf("answers = %d, want 10", p.Answers)
	}
	if math.Abs(p.Cost-50) > 1e-9 {
		t.Errorf("cost = %g, want 50", p.Cost)
	}
	if p.WallSumMS < 3.9 || p.WallSumMS > 4.1 {
		t.Errorf("wall sum = %gms, want 4ms", p.WallSumMS)
	}
}

func TestCalibrationSnapshotSortedAndReset(t *testing.T) {
	c := NewCalibration(CalibConfig{})
	c.ObserveSource("Vb", 1, 1, 0)
	c.ObserveSource("Va", 1, 1, 0)
	c.ObservePlan("z", 1, 1, 0, 0, 0)
	c.ObservePlan("a", 1, 1, 0, 0, 0)
	snap := c.Snapshot()
	if snap.Sources[0].Name != "Va" || snap.Sources[1].Name != "Vb" {
		t.Errorf("sources not sorted: %v", snap.Sources)
	}
	if snap.Plans[0].Name != "a" || snap.Plans[1].Name != "z" {
		t.Errorf("plans not sorted: %v", snap.Plans)
	}
	if snap.Empty() {
		t.Error("populated snapshot reports Empty")
	}
	if !NewCalibration(CalibConfig{}).Snapshot().Empty() {
		t.Error("fresh accumulator's snapshot is not Empty")
	}
}

func TestCalibrationWriteTextMarksDrift(t *testing.T) {
	c := NewCalibration(CalibConfig{})
	for i := 0; i < 3; i++ {
		c.ObserveSource("Vstale", 160, 10, 0)
	}
	var buf bytes.Buffer
	if err := c.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Vstale") || !strings.Contains(out, "DRIFTED") {
		t.Fatalf("report misses the drifted source:\n%s", out)
	}
	var empty CalibrationSnapshot
	buf.Reset()
	if err := empty.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no observations") {
		t.Fatalf("empty report = %q", buf.String())
	}
}

// TestDisabledCalibrationAllocs proves the nil (disabled) calibration
// costs nothing on the engine and mediator hot paths.
func TestDisabledCalibrationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	var c *Calibration
	allocs := testing.AllocsPerRun(1000, func() {
		c.ObserveSource("V", 10, 10, 0)
		c.ObservePlan("k", 1, 1, 1, 1, time.Millisecond)
		_ = c.Drifted()
		_ = c.Snapshot()
	})
	if allocs != 0 {
		t.Fatalf("disabled calibration allocates %.1f per op, want 0", allocs)
	}
}

func TestCalibrationConcurrent(t *testing.T) {
	c := NewCalibration(CalibConfig{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("V%d", g%4)
			for i := 0; i < 500; i++ {
				c.ObserveSource(name, 10, 10, 0)
				c.ObservePlan("m/a", 5, 4, 1, 1, time.Microsecond)
				if i%100 == 0 {
					_ = c.Snapshot()
					_ = c.Drifted()
				}
			}
		}(g)
	}
	wg.Wait()
	snap := c.Snapshot()
	if len(snap.Sources) != 4 || len(snap.Plans) != 1 {
		t.Fatalf("series: %d sources, %d plans", len(snap.Sources), len(snap.Plans))
	}
	var total int64
	for _, s := range snap.Sources {
		total += s.Samples
	}
	if total != 8*500 {
		t.Fatalf("source samples = %d, want %d", total, 8*500)
	}
}

// TestRegistryConcurrentCollectorsAndCalibration races instrument
// registration, collector installation, calibration attachment, and
// snapshots — the shapes the serving layer exercises live.
func TestRegistryConcurrentCollectorsAndCalibration(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cal := NewCalibration(CalibConfig{})
			for i := 0; i < 200; i++ {
				r.Counter(fmt.Sprintf("c%d", i%7)).Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h").Observe(int64(i))
				switch i % 50 {
				case 0:
					r.AttachCalibration(cal)
					cal.ObserveSource("V", 1, 1, 0)
				case 25:
					r.AddCollector(func() { r.Gauge("collected").Set(1) })
				}
				if i%40 == 0 {
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap.Calibration == nil || snap.Calibration.Empty() {
		t.Fatal("snapshot lost the attached calibration")
	}
	if snap.Gauges["collected"] != 1 {
		t.Fatal("snapshot did not run the added collectors")
	}
	if _, ok := snap.Gauges[MetricGoMaxProcs]; !ok {
		t.Fatal("runtime metrics missing from snapshot")
	}
}

func TestRegistrySnapshotCarriesCalibration(t *testing.T) {
	r := NewRegistry()
	cal := NewCalibration(CalibConfig{})
	cal.ObserveSource("V0", 10, 20, 0)
	r.AttachCalibration(cal)
	if r.Calibration() != cal {
		t.Fatal("Calibration() did not return the attached accumulator")
	}
	snap := r.Snapshot()
	if snap.Calibration == nil || len(snap.Calibration.Sources) != 1 {
		t.Fatalf("snapshot calibration = %+v", snap.Calibration)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "calibration") || !strings.Contains(buf.String(), "V0") {
		t.Fatalf("WriteText misses calibration:\n%s", buf.String())
	}
	// Detach restores the plain snapshot.
	r.AttachCalibration(nil)
	if r.Snapshot().Calibration != nil {
		t.Fatal("detach did not clear the snapshot calibration")
	}
}

func TestReadExportsMixedStream(t *testing.T) {
	// One real trace line, one calibration line, blank lines between.
	tr := NewTrace(nil, "test")
	tr.StartSpan("a").End()
	traceLine, err := json.Marshal(tr.Finish())
	if err != nil {
		t.Fatal(err)
	}
	cal := NewCalibration(CalibConfig{})
	cal.ObserveSource("V0", 10, 10, 0)
	calLine, err := json.Marshal(CalibrationRecord{TraceID: "t1", Calibration: cal.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	stream := string(traceLine) + "\n\n" + string(calLine) + "\n"
	traces, calibs, err := ReadExports(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || len(calibs) != 1 {
		t.Fatalf("got %d traces, %d calibs, want 1 and 1", len(traces), len(calibs))
	}
	if calibs[0].TraceID != "t1" || len(calibs[0].Calibration.Sources) != 1 {
		t.Fatalf("calibration record = %+v", calibs[0])
	}

	// Malformed and zero-ID lines fail loudly, as ReadTraces does.
	if _, _, err := ReadExports(strings.NewReader("{not json}\n")); err == nil {
		t.Error("malformed line did not error")
	}
	if _, _, err := ReadExports(strings.NewReader("{}\n")); err == nil {
		t.Error("zero trace ID did not error")
	}
}
