package telemetry_test

// A parser-based lint of the Prometheus text exposition: every salsa_*
// family must carry HELP and TYPE before its samples, names and labels
// must be syntactically valid, counters must end in _total and never
// decrease between two snapshots of a live pool. The test drives a real
// pool (external test package, so it can import the public API without a
// cycle) rather than a synthetic snapshot, so new counters wired through
// stats → telemetry → expose are linted the day they land.

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"salsa"
	"salsa/internal/loadgen"
	"salsa/internal/telemetry"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// family is one parsed metric family: its HELP/TYPE headers and samples.
type family struct {
	help, typ string
	// samples maps the full sample key (name + sorted label string as
	// emitted) to its value.
	samples map[string]float64
}

// parseExposition parses Prometheus text format, failing the test on any
// syntactic violation. Returns families keyed by metric family name.
func parseExposition(t *testing.T, text string) map[string]*family {
	t.Helper()
	fams := map[string]*family{}
	fam := func(name string) *family {
		f := fams[name]
		if f == nil {
			f = &family{samples: map[string]float64{}}
			fams[name] = f
		}
		return f
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		line := sc.Text()
		lineNo++
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("line %d: HELP without text: %q", lineNo, line)
			}
			f := fam(parts[0])
			if f.help != "" {
				t.Fatalf("line %d: duplicate HELP for %s", lineNo, parts[0])
			}
			f.help = parts[1]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", lineNo, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown TYPE %q", lineNo, parts[1])
			}
			f := fam(parts[0])
			if f.typ != "" {
				t.Fatalf("line %d: duplicate TYPE for %s", lineNo, parts[0])
			}
			if f.help == "" {
				t.Fatalf("line %d: TYPE for %s precedes its HELP", lineNo, parts[0])
			}
			f.typ = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}

		// Sample line: name[{labels}] value
		name, labels, value, err := parseSample(line)
		if err != nil {
			t.Fatalf("line %d: %v (%q)", lineNo, err, line)
		}
		if !metricNameRe.MatchString(name) {
			t.Fatalf("line %d: invalid metric name %q", lineNo, name)
		}
		for _, ln := range labels {
			if !labelNameRe.MatchString(ln) {
				t.Fatalf("line %d: invalid label name %q", lineNo, ln)
			}
		}
		// Histogram/summary samples belong to the base family.
		famName := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && fams[base] != nil && fams[base].typ == "histogram" {
				famName = base
			}
		}
		f := fams[famName]
		if f == nil || f.help == "" || f.typ == "" {
			t.Fatalf("line %d: sample %s before its HELP/TYPE headers", lineNo, name)
		}
		key := strings.Fields(line)[0] // name{labels} exactly as emitted
		if _, dup := f.samples[key]; dup {
			t.Fatalf("line %d: duplicate sample %s", lineNo, key)
		}
		f.samples[key] = value
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanning exposition: %v", err)
	}
	return fams
}

// parseSample splits one sample line into name, label names and value.
func parseSample(line string) (name string, labelNames []string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		end := strings.IndexByte(rest, '}')
		if end < i {
			return "", nil, 0, fmt.Errorf("unclosed label braces")
		}
		for _, pair := range splitLabels(rest[i+1 : end]) {
			eq := strings.IndexByte(pair, '=')
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("label without '=': %q", pair)
			}
			v := pair[eq+1:]
			if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return "", nil, 0, fmt.Errorf("unquoted label value: %q", pair)
			}
			labelNames = append(labelNames, pair[:eq])
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return "", nil, 0, fmt.Errorf("sample without value")
		}
		name, rest = fields[0], strings.Join(fields[1:], " ")
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return "", nil, 0, fmt.Errorf("sample without value")
	}
	value, perr := strconv.ParseFloat(fields[0], 64)
	if perr != nil {
		return "", nil, 0, fmt.Errorf("bad value %q: %v", fields[0], perr)
	}
	return name, labelNames, value, nil
}

// splitLabels splits `a="x",b="y"` on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// runPool drives p tasks through a metrics-enabled pool and returns it.
func runPool(t *testing.T, pool *salsa.Pool[int], tasks int) {
	t.Helper()
	p := pool.Producer(0)
	c := pool.Consumer(0)
	for i := 0; i < tasks; i++ {
		v := i
		p.Put(&v)
	}
	for i := 0; i < tasks; i++ {
		if _, ok := c.Get(); !ok {
			t.Fatalf("pool empty after %d of %d gets", i, tasks)
		}
	}
}

func TestPrometheusExpositionLint(t *testing.T) {
	pool, err := salsa.New[int](salsa.Config{Producers: 1, Consumers: 2, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	runPool(t, pool, 2000)
	var buf1 bytes.Buffer
	telemetry.WritePrometheus(&buf1, pool.TelemetrySnapshot())
	runPool(t, pool, 2000)
	var buf2 bytes.Buffer
	telemetry.WritePrometheus(&buf2, pool.TelemetrySnapshot())

	fams1 := parseExposition(t, buf1.String())
	fams2 := parseExposition(t, buf2.String())

	for name, f := range fams2 {
		if !strings.HasPrefix(name, "salsa_") {
			t.Errorf("family %s: all exported metrics must carry the salsa_ prefix", name)
		}
		if f.typ == "" {
			t.Errorf("family %s: no TYPE header", name)
		}
		if f.help == "" {
			t.Errorf("family %s: no HELP header", name)
		}
		if f.typ == "counter" && !strings.HasSuffix(name, "_total") {
			t.Errorf("family %s: counters must end in _total", name)
		}
		for key, v := range f.samples {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: non-finite value %v", key, v)
			}
			if f.typ == "counter" && v < 0 {
				t.Errorf("%s: negative counter %v", key, v)
			}
		}
	}

	// Counter monotonicity across the two snapshots: every counter sample
	// present in both must not have decreased.
	for name, f1 := range fams1 {
		f2 := fams2[name]
		if f2 == nil || f1.typ != "counter" {
			continue
		}
		for key, v1 := range f1.samples {
			if v2, ok := f2.samples[key]; ok && v2 < v1 {
				t.Errorf("%s: counter decreased across snapshots: %v -> %v", key, v1, v2)
			}
		}
	}

	// The families this PR wired in must be present, HELP'd and typed.
	for _, name := range []string{
		"salsa_rescue_steals_total",
		"salsa_rescue_rescans_total",
		"salsa_puts_total",
		"salsa_gets_total",
		"salsa_steals_total",
		"salsa_chunk_allocs_total",
		"salsa_chunk_reuses_total",
	} {
		f := fams2[name]
		if f == nil {
			t.Errorf("family %s missing from exposition", name)
			continue
		}
		if f.typ != "counter" {
			t.Errorf("family %s: TYPE %q, want counter", name, f.typ)
		}
	}

	// Sanity: the run produced real traffic, so the lint exercised live
	// counters rather than a wall of zeros.
	if v := fams2["salsa_puts_total"].samples["salsa_puts_total"]; v != 4000 {
		t.Errorf("salsa_puts_total = %v, want 4000", v)
	}
}

// TestRemoteExposition lints the remote-service families: they must
// appear — correctly HELP'd, typed and labelled — exactly when the
// snapshot carries the shard server's wire census, and must be absent
// from in-process expositions (nil RemoteFrames), where they would read
// as a shard that has never seen a frame rather than a pool with no wire
// at all.
func TestRemoteExposition(t *testing.T) {
	pool, err := salsa.New[int](salsa.Config{Producers: 1, Consumers: 1, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	runPool(t, pool, 100)

	// In-process snapshot: no remote families.
	var buf bytes.Buffer
	telemetry.WritePrometheus(&buf, pool.TelemetrySnapshot())
	fams := parseExposition(t, buf.String())
	for _, name := range []string{
		"salsa_remote_frames_total",
		"salsa_remote_saturated_total",
		"salsa_remote_worker_leases_expired_total",
		"salsa_remote_reconnects_total",
		"salsa_remote_dedup_hits_total",
		"salsa_remote_handoff_tasks_total",
		"salsa_netchaos_faults_total",
	} {
		if fams[name] != nil {
			t.Errorf("family %s exposed by an in-process snapshot", name)
		}
	}

	// Shard-server snapshot: wire census attached.
	snap := pool.TelemetrySnapshot()
	snap.RemoteFrames = map[string]int64{
		"HELLO": 2, "PUT_BATCH": 80, "GET_BATCH": 95, "TASKS": 95, "ERR": 0,
	}
	snap.RemoteSaturated = 3
	snap.RemoteLeasesExpired = 1
	snap.RemoteReconnects = 4
	snap.RemoteDedupHits = 2
	snap.RemoteHandoffTasks = 57
	snap.NetchaosFaults = map[string]int64{"reset": 6, "blackhole": 1, "drip": 0}
	buf.Reset()
	telemetry.WritePrometheus(&buf, snap)
	fams = parseExposition(t, buf.String())

	frames := fams["salsa_remote_frames_total"]
	if frames == nil || frames.typ != "counter" {
		t.Fatal("salsa_remote_frames_total missing or not a counter")
	}
	for kind, want := range map[string]float64{"HELLO": 2, "PUT_BATCH": 80, "GET_BATCH": 95, "TASKS": 95, "ERR": 0} {
		key := fmt.Sprintf("salsa_remote_frames_total{kind=%q}", kind)
		got, ok := frames.samples[key]
		if !ok {
			t.Errorf("%s missing (every kind must be exposed, zeros included)", key)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
	if f := fams["salsa_remote_saturated_total"]; f == nil || f.typ != "counter" {
		t.Error("salsa_remote_saturated_total missing or not a counter")
	} else if v := f.samples["salsa_remote_saturated_total"]; v != 3 {
		t.Errorf("salsa_remote_saturated_total = %v, want 3", v)
	}
	if f := fams["salsa_remote_worker_leases_expired_total"]; f == nil || f.typ != "counter" {
		t.Error("salsa_remote_worker_leases_expired_total missing or not a counter")
	} else if v := f.samples["salsa_remote_worker_leases_expired_total"]; v != 1 {
		t.Errorf("salsa_remote_worker_leases_expired_total = %v, want 1", v)
	}
	for name, want := range map[string]float64{
		"salsa_remote_reconnects_total":    4,
		"salsa_remote_dedup_hits_total":    2,
		"salsa_remote_handoff_tasks_total": 57,
	} {
		if f := fams[name]; f == nil || f.typ != "counter" {
			t.Errorf("%s missing or not a counter", name)
		} else if v := f.samples[name]; v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
	faults := fams["salsa_netchaos_faults_total"]
	if faults == nil || faults.typ != "counter" {
		t.Fatal("salsa_netchaos_faults_total missing or not a counter")
	}
	for kind, want := range map[string]float64{"reset": 6, "blackhole": 1, "drip": 0} {
		key := fmt.Sprintf("salsa_netchaos_faults_total{kind=%q}", kind)
		got, ok := faults.samples[key]
		if !ok {
			t.Errorf("%s missing (armed kinds must be exposed, zeros included)", key)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
}

// TestAdmissionLoadgenExposition lints the salsa_admission_* and
// salsa_loadgen_* families against live traffic: a loadgen scenario run
// whose admission layer both rate-limits and converts pool saturation into
// sheds, so every family carries real non-zero counts. Like the remote
// families, both groups are nil-gated: a plain pool's exposition must not
// mention them (an admission family at zero would read as "a limiter that
// never fired" rather than "no limiter at all").
func TestAdmissionLoadgenExposition(t *testing.T) {
	// Plain pool: no admission, no loadgen families.
	pool, err := salsa.New[int](salsa.Config{Producers: 1, Consumers: 1, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	runPool(t, pool, 100)
	var buf bytes.Buffer
	telemetry.WritePrometheus(&buf, pool.TelemetrySnapshot())
	fams := parseExposition(t, buf.String())
	for _, name := range []string{
		"salsa_admission_admits_total",
		"salsa_admission_sheds_total",
		"salsa_admission_queue_admits_total",
		"salsa_loadgen_offered_total",
		"salsa_loadgen_late_arrivals_total",
	} {
		if fams[name] != nil {
			t.Errorf("family %s exposed by a plain pool snapshot", name)
		}
	}

	// Live run: tiny chunk capacity plus a rate cap, so the census holds
	// admits and sheds of more than one reason.
	sc := loadgen.Scenario{
		Name: "promlint", Producers: 2, Consumers: 1,
		ChunkSize: 8, InitialChunks: 1,
		Horizon: 50 * time.Millisecond,
		Shape:   loadgen.Shape{Kind: loadgen.Poisson, Rate: 120_000},
		SizeMin: 1_024,
		Admission: salsa.AdmissionConfig{
			Rate:  50_000,
			Burst: 256,
		},
	}
	res := loadgen.Run(sc, 21, loadgen.Options{})
	if res.Verdict != nil {
		t.Fatalf("scenario verdict: %v", res.Verdict)
	}
	if res.Shed == 0 {
		t.Fatal("scenario shed nothing: the sheds family would lint at zero")
	}
	buf.Reset()
	telemetry.WritePrometheus(&buf, res.Telemetry)
	fams = parseExposition(t, buf.String())

	admits := fams["salsa_admission_admits_total"]
	if admits == nil || admits.typ != "counter" {
		t.Fatal("salsa_admission_admits_total missing or not a counter")
	}
	var admitSum float64
	for _, v := range admits.samples {
		admitSum += v
	}
	if admitSum != float64(res.Delivered) {
		t.Errorf("admits sum %v, want delivered %d (the run drained fully)", admitSum, res.Delivered)
	}
	sheds := fams["salsa_admission_sheds_total"]
	if sheds == nil || sheds.typ != "counter" {
		t.Fatal("salsa_admission_sheds_total missing or not a counter")
	}
	var shedSum float64
	for key, v := range sheds.samples {
		if !strings.Contains(key, `class="`) || !strings.Contains(key, `reason="`) {
			t.Errorf("shed sample %s lacks class/reason labels", key)
		}
		shedSum += v
	}
	if shedSum != float64(res.Shed) {
		t.Errorf("sheds sum %v, want %d", shedSum, res.Shed)
	}
	if f := fams["salsa_admission_queue_admits_total"]; f == nil || f.typ != "counter" {
		t.Error("salsa_admission_queue_admits_total missing or not a counter")
	}

	offered := fams["salsa_loadgen_offered_total"]
	if offered == nil || offered.typ != "counter" {
		t.Fatal("salsa_loadgen_offered_total missing or not a counter")
	}
	var offeredSum float64
	for _, v := range offered.samples {
		offeredSum += v
	}
	if offeredSum != float64(res.Offered) {
		t.Errorf("offered sum %v, want %d", offeredSum, res.Offered)
	}
	if f := fams["salsa_loadgen_late_arrivals_total"]; f == nil || f.typ != "counter" {
		t.Error("salsa_loadgen_late_arrivals_total missing or not a counter")
	} else if v := f.samples["salsa_loadgen_late_arrivals_total"]; v != float64(res.Late) {
		t.Errorf("salsa_loadgen_late_arrivals_total = %v, want %d", v, res.Late)
	}
}
