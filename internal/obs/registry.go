package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Registry aggregates named counters, gauges, and histograms plus the
// per-name aggregates of every request-trace span bound to it (see
// NewTrace). Instruments are created on first lookup and shared thereafter,
// so independent subsystems accumulate into the same instrument when
// they agree on a name. All methods are concurrency-safe, and every
// method on a nil *Registry is a safe no-op (lookups return nil no-op
// instruments), which is how instrumentation is disabled.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// spans folds every TraceSpan.End of a trace bound to the registry,
	// under its own lock so span ends never contend with lookups.
	spanMu sync.Mutex
	spans  map[string]*SpanAgg
	// collectors run at the start of every Snapshot, outside the lock,
	// to refresh gauges that mirror external state (runtime metrics).
	collectors []func()
	// calib, when attached, rides along in every snapshot and rendering.
	calib *Calibration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		spans:    make(map[string]*SpanAgg),
	}
}

// Counter returns the named counter, creating it if needed. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed. A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed. A nil
// registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// observeSpan folds one finished span into the per-name aggregate.
func (r *Registry) observeSpan(name string, d int64) {
	if r == nil {
		return
	}
	r.spanMu.Lock()
	a := r.spans[name]
	if a == nil {
		a = &SpanAgg{Name: name}
		r.spans[name] = a
	}
	a.add(d)
	r.spanMu.Unlock()
}

// AddCollector registers a function invoked at the start of every
// Snapshot (outside the registry lock, so it may set gauges). Use it
// for gauges that mirror external state, e.g. Go runtime metrics.
func (r *Registry) AddCollector(f func()) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, f)
	r.mu.Unlock()
}

// AttachCalibration binds an estimator-calibration accumulator to the
// registry: its series ride along in Snapshot, WriteText, and the
// OpenMetrics exposition. Attaching nil detaches.
func (r *Registry) AttachCalibration(c *Calibration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.calib = c
	r.mu.Unlock()
}

// Calibration returns the attached calibration accumulator (nil when
// none is attached or the registry is nil).
func (r *Registry) Calibration() *Calibration {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calib
}

// Snapshot is a point-in-time copy of a registry, JSON-serializable.
type Snapshot struct {
	Counters    map[string]int64        `json:"counters,omitempty"`
	Gauges      map[string]float64      `json:"gauges,omitempty"`
	Histograms  map[string]HistSnapshot `json:"histograms,omitempty"`
	Spans       []SpanAgg               `json:"spans,omitempty"`
	Calibration *CalibrationSnapshot    `json:"calibration,omitempty"`
}

// Snapshot copies the registry's current state. A nil registry yields a
// zero snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	// Collectors refresh externally-mirrored gauges; they run outside
	// the lock because they call back into Gauge.Set.
	r.mu.Lock()
	cols := r.collectors
	calib := r.calib
	r.mu.Unlock()
	for _, f := range cols {
		f()
	}
	r.mu.Lock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	r.mu.Unlock()
	r.spanMu.Lock()
	for _, a := range r.spans {
		s.Spans = append(s.Spans, *a)
	}
	r.spanMu.Unlock()
	sort.Slice(s.Spans, func(i, j int) bool { return s.Spans[i].Name < s.Spans[j].Name })
	if calib != nil {
		cs := calib.Snapshot()
		s.Calibration = &cs
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteText renders a human-readable report: sorted counters and gauges,
// histogram summaries, and per-name span statistics.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	var err error
	p := func(format string, args ...interface{}) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	if len(s.Counters) > 0 {
		p("counters:\n")
		for _, name := range sortedKeys(s.Counters) {
			p("  %-48s %d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		p("gauges:\n")
		for _, name := range sortedKeys(s.Gauges) {
			p("  %-48s %g\n", name, s.Gauges[name])
		}
	}
	if len(s.Histograms) > 0 {
		p("histograms:\n")
		for _, name := range sortedKeys(s.Histograms) {
			h := s.Histograms[name]
			p("  %-48s count=%d mean=%s p50=%s p95=%s p99=%s p99.9=%s min=%s max=%s\n", name, h.Count,
				time.Duration(int64(h.Mean)), time.Duration(h.P50), time.Duration(h.P95),
				time.Duration(h.P99), time.Duration(h.P999), time.Duration(h.Min), time.Duration(h.Max))
		}
	}
	if len(s.Spans) > 0 {
		p("spans:\n")
		for _, st := range s.Spans {
			p("  %-48s count=%d total=%s min=%s max=%s\n", st.Name, st.Count,
				time.Duration(st.TotalNS), time.Duration(st.MinNS), time.Duration(st.MaxNS))
		}
	}
	if err == nil && s.Calibration != nil && !s.Calibration.Empty() {
		err = s.Calibration.WriteText(w)
	}
	return err
}

// sortedKeys returns the sorted key set of a string-keyed map.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
