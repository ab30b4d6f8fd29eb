package obs

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestOpenMetricsName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"core.greedy.evals", "core_greedy_evals"},
		{"server.requests", "server_requests"},
		{"already_fine:sub", "already_fine:sub"},
		{"9lives", "_9lives"},
		{"", "_"},
		{"UPPER.ok", "UPPER_ok"},
		{"sp ace-dash", "sp_ace_dash"},
		{"héllo", "h__llo"}, // 'é' is two bytes, both sanitized
	} {
		if got := openMetricsName(tc.in); got != tc.want {
			t.Errorf("openMetricsName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestOpenMetricsLabelValue(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`qu"ote`, `qu\"ote`},
		{"new\nline", `new\nline`},
		{`all"three\` + "\n", `all\"three\\\n`},
	} {
		if got := openMetricsLabelValue(tc.in); got != tc.want {
			t.Errorf("openMetricsLabelValue(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// metricNameRe is the OpenMetrics metric-name grammar.
var metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// sampleLineRe splits a sample line into name, optional labels, value.
var sampleLineRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)

// labelNameRe is the OpenMetrics label-name grammar.
var labelNameRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// validateLabelBlock walks a {name="value",...} block character by
// character, tracking escape state — a split on `",` would misparse
// values ending in an escaped quote.
func validateLabelBlock(t *testing.T, lineNo int, block string) {
	t.Helper()
	s := block[1 : len(block)-1]
	for len(s) > 0 {
		eq := strings.Index(s, `="`)
		if eq <= 0 || !labelNameRe.MatchString(s[:eq]) {
			t.Fatalf("line %d: bad label name in %q", lineNo, block)
		}
		s = s[eq+2:]
		closed := false
	value:
		for i := 0; i < len(s); i++ {
			switch s[i] {
			case '\\':
				if i+1 >= len(s) || (s[i+1] != '\\' && s[i+1] != '"' && s[i+1] != 'n') {
					t.Fatalf("line %d: bad escape in %q", lineNo, block)
				}
				i++
			case '"':
				rest := s[i+1:]
				if rest != "" && !strings.HasPrefix(rest, ",") {
					t.Fatalf("line %d: garbage after label value in %q", lineNo, block)
				}
				s = strings.TrimPrefix(rest, ",")
				closed = true
				break value
			case '\n':
				t.Fatalf("line %d: raw newline in label value", lineNo)
			}
		}
		if !closed {
			t.Fatalf("line %d: unterminated label value in %q", lineNo, block)
		}
	}
}

// validateOpenMetrics parses an exposition and fails the test on any
// grammar violation: bad metric or label names, unparseable values,
// samples without a preceding TYPE declaration for their family, or a
// missing/misplaced "# EOF" terminator.
func validateOpenMetrics(t *testing.T, out string) (families map[string]string, samples int) {
	t.Helper()
	families = make(map[string]string) // family -> type
	lines := strings.Split(out, "\n")
	if lines[len(lines)-1] != "" {
		t.Fatalf("exposition does not end with a newline")
	}
	lines = lines[:len(lines)-1]
	if len(lines) == 0 || lines[len(lines)-1] != "# EOF" {
		t.Fatalf("exposition does not end with # EOF")
	}
	for i, line := range lines {
		switch {
		case line == "# EOF":
			if i != len(lines)-1 {
				t.Fatalf("line %d: # EOF before the end", i+1)
			}
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			name, typ := parts[2], parts[3]
			if !metricNameRe.MatchString(name) {
				t.Fatalf("line %d: invalid family name %q", i+1, name)
			}
			switch typ {
			case "counter", "gauge", "summary", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", i+1, typ)
			}
			if _, dup := families[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %q", i+1, name)
			}
			families[name] = typ
		case strings.HasPrefix(line, "#"):
			// HELP/UNIT would land here; this writer emits neither.
			t.Fatalf("line %d: unexpected comment %q", i+1, line)
		default:
			m := sampleLineRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed sample %q", i+1, line)
			}
			name, labels, value := m[1], m[2], m[3]
			if _, err := strconv.ParseFloat(value, 64); err != nil {
				t.Fatalf("line %d: unparseable value %q", i+1, value)
			}
			if labels != "" {
				validateLabelBlock(t, i+1, labels)
			}
			// The sample must belong to a declared family: its name, or
			// its name minus a suffix the family's type permits.
			fam, ok := name, false
			if _, ok = families[fam]; !ok {
				for _, suffix := range []string{"_total", "_sum", "_count"} {
					if strings.HasSuffix(name, suffix) {
						if _, ok = families[strings.TrimSuffix(name, suffix)]; ok {
							fam = strings.TrimSuffix(name, suffix)
							break
						}
					}
				}
			}
			if !ok {
				t.Fatalf("line %d: sample %q has no TYPE declaration", i+1, name)
			}
			if typ := families[fam]; typ == "counter" && !strings.HasSuffix(name, "_total") {
				t.Fatalf("line %d: counter sample %q lacks _total", i+1, name)
			}
			samples++
		}
	}
	return families, samples
}

func TestWriteOpenMetricsGrammar(t *testing.T) {
	r := NewRegistry()
	r.Counter("server.requests").Add(42)
	r.Counter("core.greedy.evals").Inc()
	r.Gauge("server.inflight").Set(3.5)
	for i := int64(1); i <= 100; i++ {
		r.Histogram("server.latency_ns").Observe(i * 1000)
	}
	RegisterRuntimeMetrics(r)
	cal := NewCalibration(CalibConfig{})
	for i := 0; i < 3; i++ {
		cal.ObserveSource("V0_1", 160, 10, 0)
		cal.ObservePlan(`chain/streamer "q"`, 100, 90, 5, 10, time.Millisecond)
	}
	r.AttachCalibration(cal)

	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	families, samples := validateOpenMetrics(t, out)
	if samples == 0 {
		t.Fatal("no samples in exposition")
	}
	for fam, typ := range map[string]string{
		"server_requests":            "counter",
		"core_greedy_evals":          "counter",
		"server_inflight":            "gauge",
		"server_latency_ns":          "summary",
		"runtime_gomaxprocs":         "gauge",
		"calib_source_qerror":        "summary",
		"calib_source_drifted":       "gauge",
		"calib_plan_qerror":          "summary",
		"calib_plan_drift_ewma_log2": "gauge",
	} {
		if families[fam] != typ {
			t.Errorf("family %s: type %q, want %q", fam, families[fam], typ)
		}
	}
	if !strings.Contains(out, `calib_source_drifted{source="V0_1"} 1`) {
		t.Errorf("drifted source sample missing:\n%s", out)
	}
	if !strings.Contains(out, `plan="chain/streamer \"q\""`) {
		t.Errorf("plan label not escaped:\n%s", out)
	}
	if strings.Count(out, "# EOF") != 1 {
		t.Errorf("want exactly one # EOF")
	}
}

// Sanitization collisions keep every sample, disambiguated by an
// instrument label.
func TestWriteOpenMetricsCollision(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b").Add(1)
	r.Counter("a_b").Add(2)
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	validateOpenMetrics(t, out)
	if !strings.Contains(out, `a_b_total{instrument="a.b"} 1`) ||
		!strings.Contains(out, `a_b_total{instrument="a_b"} 2`) {
		t.Fatalf("collision not disambiguated:\n%s", out)
	}
	if strings.Count(out, "# TYPE a_b counter") != 1 {
		t.Fatalf("collided family declared more than once:\n%s", out)
	}
}

func TestWriteOpenMetricsEmptyRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRegistry().WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "# EOF\n" {
		t.Fatalf("empty registry exposition = %q, want just the terminator", got)
	}
	buf.Reset()
	var nilReg *Registry
	if err := nilReg.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "# EOF\n" {
		t.Fatalf("nil registry exposition = %q", got)
	}
}

func TestOMFloat(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{{3, "3"}, {3.5, "3.5"}, {0, "0"}, {-2, "-2"}} {
		if got := omFloat(tc.in); got != tc.want {
			t.Errorf("omFloat(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestFloat64HistQuantileEdgeCases(t *testing.T) {
	if got := float64HistQuantile(nil, 0.5); got != 0 {
		t.Errorf("nil histogram quantile = %g, want 0", got)
	}
}

func ExampleRegistry_WriteOpenMetrics() {
	r := NewRegistry()
	r.Counter("mediator.plans_executed").Add(7)
	var buf bytes.Buffer
	_ = r.WriteOpenMetrics(&buf)
	fmt.Print(buf.String())
	// Output:
	// # TYPE mediator_plans_executed counter
	// mediator_plans_executed_total 7
	// # EOF
}
