// Command benchmark is the repository's benchmark: five workloads that drive
// the system from a chunk slot to a loopback shard through public functions
// only, end-to-end metrics reported as medians over independent trials, and
// (with -trace 1) a per-layer ladder, counter ratios and spans. It verifies
// exactly-once delivery and exits non-zero on a correctness or
// generator-health failure. See README.md in this directory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(config) (trial, error)
	// headline is the end-to-end metric trace.overhead_frac compares.
	headline string
}

var workloads = []workload{
	{"pool-stream", "closed loop, 1 Put / 1 Get: the CAS-free fast path and handles do all the work", runPoolStream, "tasks_per_s"},
	{"pool-forkjoin", "closed loop, PutBatch(32) then 2 x GetBatch(32) to empty: batch, steal and checkEmpty paths", runPoolForkJoin, "tasks_per_s"},
	{"exec-open", "open loop at 5e4 tasks/s through Admission and executor: wake-up latency, not queueing", runExecOpen, "latency_p50_us"},
	{"shard-stream", "closed loop over loopback TCP, 64-body frames: per-task codec, copy and allocation cost", runShardStream, "tasks_per_s"},
	{"shard-open", "open loop over loopback TCP, 1e4 8-body frames/s: per-frame cost, RTT and the dry poll", runShardOpen, "latency_p50_us"},
}

const (
	// Many short trials, not few long ones: a stall of this VM spoils the
	// tail of whichever trial it lands in, and the median over trials shrugs
	// it off only while most trials are clean (README "Calibration").
	timedTrials  = 15
	tracedTrials = 5
	// ladderFull is a ladder repetition when the whole set runs; a single
	// workload run (the driver's) fits the ladder into a third of -seconds.
	ladderFull = 200 * time.Millisecond
	// ladderMeasures is the number of measure calls in runLadder, for that fit.
	ladderMeasures = 24
	maxLateFrac    = 0.02
	spanDir        = "benchmark/out"
)

// result is one workload's run: the medians that are reported.
type result struct {
	workload  string
	endToEnd  map[string]summary
	perLayer  map[string]float64 // nil unless traced
	latN      int                // latency samples per trial, median
	lateFrac  float64            // open loop: share of sends the generator made late, median
	attempted int64
	failed    int64
	invalid   []string // why the run does not count
	spans     []span
}

func (r *result) failedFrac() float64 { return ratio(r.failed, r.attempted) }

func main() {
	name := flag.String("workload", "", "run one workload (default: all five)")
	seed := flag.Uint64("seed", 1, "workload seed: Poisson gaps and body bytes")
	seconds := flag.Float64("seconds", 15, "timed seconds per workload")
	trace := flag.Int("trace", 0, "1 adds the traced run: ladder, counters, spans")
	aa := flag.Bool("aa", false, "run the set twice and compare the medians against each bound")
	quick := flag.Bool("quick", false, "tiny counts: a smoke pass, not a measurement")
	flag.Parse()

	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs) // go 1.24 ignores a container's CPU quota

	set := workloads
	if *name != "" {
		set = nil
		for _, w := range workloads {
			if w.name == *name {
				set = []workload{w}
			}
		}
		if set == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
	}
	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace != 0,
		quick:   *quick,
		procs:   procs,
		ladder:  ladderFull,
	}
	if *name != "" {
		o.ladder = o.seconds / 3 / (ladderMeasures * ladderReps)
	}
	if o.quick {
		o.seconds, o.ladder = 300*time.Millisecond, time.Millisecond
	}
	fmt.Printf("# benchmark: GOMAXPROCS=%d seed=%d seconds=%.3g trace=%v\n", procs, o.seed, o.seconds.Seconds(), o.trace)

	ok := true
	if *aa {
		ok = runAA(set, o)
	} else {
		results, err := runSet(set, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		for _, r := range results {
			ok = ok && len(r.invalid) == 0
		}
	}
	if !ok {
		os.Exit(1)
	}
}

type options struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	quick   bool
	procs   int
	ladder  time.Duration
}

// runSet runs the workloads in order and prints each as it finishes: the
// readable lines, then the one-line JSON object the driver reads.
func runSet(set []workload, o options) ([]*result, error) {
	var ladder map[string]float64
	if o.trace {
		ladder = map[string]float64{}
		if err := runLadder(o.ladder, o.seed, ladder); err != nil {
			return nil, err
		}
	}
	var results []*result
	var spans []span
	for _, w := range set {
		r, err := runWorkload(w, o, ladder)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if err := r.write(os.Stdout, len(results) == 0); err != nil {
			return nil, err
		}
		results = append(results, r)
		spans = append(spans, r.spans...)
	}
	if o.trace {
		if err := writeSpans(spans); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runWorkload runs one untimed warm-up trial and then the timed trials, each
// on fresh state, each window seconds/15 long. Untraced: timedTrials of
// them. Traced: tracedTrials pairs of an untraced and a traced trial, so the
// overhead compares like with like and a third of -seconds is left for the
// ladder.
func runWorkload(w workload, o options, ladder map[string]float64) (*result, error) {
	c := config{seed: o.seed, window: o.seconds / timedTrials, quick: o.quick}
	trials := timedTrials
	if o.trace {
		trials = tracedTrials
	}
	warm := c
	warm.window /= 2
	if _, err := w.run(warm); err != nil {
		return nil, err
	}
	var plain, traced []trial
	for range trials {
		tr, err := w.run(c)
		if err != nil {
			return nil, err
		}
		tr.endToEnd = tr.endToEndValues()
		plain = append(plain, tr)
		if o.trace {
			tc := c
			tc.trace = true
			if tr, err = w.run(tc); err != nil {
				return nil, err
			}
			tr.endToEnd = tr.endToEndValues()
			traced = append(traced, tr)
		}
	}

	r := &result{workload: w.name, endToEnd: map[string]summary{}}
	over := func(trials []trial, f func(*trial) float64) []float64 {
		vs := make([]float64, len(trials))
		for i := range trials {
			vs[i] = f(&trials[i])
		}
		return vs
	}
	metric := func(trials []trial, name string) []float64 {
		return over(trials, func(t *trial) float64 { return t.endToEnd[name] })
	}
	for _, m := range endToEnd {
		r.endToEnd[m.name] = summarize(metric(plain, m.name))
	}
	r.latN = int(median(over(plain, func(t *trial) float64 { return float64(len(t.lat)) })))
	r.lateFrac = median(over(plain, (*trial).lateFrac))
	var saturated int64
	for _, tr := range append(plain, traced...) {
		r.attempted += tr.attempted
		r.failed += tr.failed()
		saturated += tr.saturated
	}

	// Generator-health gates: the numbers are still printed, the run does
	// not count.
	if r.failed > 0 {
		r.invalid = append(r.invalid, fmt.Sprintf("%d of %d tasks lost, duplicated or refused", r.failed, r.attempted))
	}
	if r.lateFrac > maxLateFrac {
		r.invalid = append(r.invalid, fmt.Sprintf("bench.late_frac %.4f > %.2f: the generator ran late", r.lateFrac, maxLateFrac))
	}
	if w.name == "shard-stream" && saturated > 0 {
		r.invalid = append(r.invalid, fmt.Sprintf("%d SATURATED frames: the closed loop overran the shard", saturated))
	}
	if !o.trace {
		return r, nil
	}

	r.perLayer = map[string]float64{}
	for k, v := range ladder {
		r.perLayer[k] = v
	}
	for name := range traced[0].layer { // counters and stages: median over the traced trials
		r.perLayer[name] = median(over(traced, func(t *trial) float64 { return t.layer[name] }))
	}
	// Traced against untraced, on the workload's headline metric, as the
	// share by which tracing made it worse.
	u, t := r.endToEnd[w.headline].median, median(metric(traced, w.headline))
	if w.headline == "tasks_per_s" {
		r.perLayer["trace.overhead_frac"] = (u - t) / u
	} else {
		r.perLayer["trace.overhead_frac"] = (t - u) / u
	}
	r.perLayer["bench.late_frac"] = r.lateFrac
	r.perLayer["bench.failed_frac"] = r.failedFrac()
	r.perLayer["bench.gomaxprocs"] = float64(o.procs)
	r.perLayer["bench.trials"] = float64(len(plain))
	last := traced[len(traced)-1]
	for _, s := range last.spans {
		s.Workload = w.name
		r.spans = append(r.spans, s)
	}
	return r, nil
}

// write prints the run as readable lines, then as the driver's JSON object:
// end-to-end metrics untraced, per-layer metrics traced.
func (r *result) write(w io.Writer, withLadder bool) error {
	out := bufio.NewWriter(w)
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jsonMetric{}
	for _, m := range endToEnd {
		s := r.endToEnd[m.name]
		fmt.Fprintf(out, "%-14s %-34s %14.6g %-12s q1=%.6g q3=%.6g n=%d\n", r.workload, m.name, s.median, m.unit, s.q1, s.q3, s.n)
		if r.perLayer == nil {
			metrics[m.name] = jsonMetric{s.median, m.unit}
		}
	}
	fmt.Fprintf(out, "%-14s %-34s %14d %-12s per trial\n", r.workload, "latency_samples", r.latN, "count")
	fmt.Fprintf(out, "%-14s %-34s %14.6g %-12s %d of %d\n", r.workload, "failed_frac", r.failedFrac(), "ratio", r.failed, r.attempted)
	fmt.Fprintf(out, "%-14s %-34s %14.6g %-12s limit %g\n", r.workload, "late_frac", r.lateFrac, "ratio", maxLateFrac)
	if r.perLayer != nil {
		for i, m := range perLayer {
			v, touched := r.perLayer[m.name]
			metrics[m.name] = jsonMetric{v, m.unit}
			// The rungs read the same for every workload of a run.
			if rung := i < len(ladderRungs); touched && (withLadder || !rung) {
				fmt.Fprintf(out, "%-14s %-34s %14.6g %-12s\n", r.workload, m.name, v, m.unit)
			}
		}
		if sum, ok := r.stageSum(); ok {
			p50 := r.endToEnd["latency_p50_us"].median
			fmt.Fprintf(out, "%-14s %-34s %14.6g %-12s vs latency_p50_us %.6g (%+.1f%%)\n",
				r.workload, "stage_sum_p50", sum, "us", p50, 100*(sum-p50)/p50)
		}
	}
	for _, why := range r.invalid {
		fmt.Fprintf(out, "%-14s INVALID: %s\n", r.workload, why)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(r.invalid) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return out.Flush()
}

// stageSum adds the traced p50 of the stages a task passes through one after
// the other on the open-loop workloads; it should land within 10 % of the
// untraced latency_p50_us.
func (r *result) stageSum() (float64, bool) {
	switch r.workload {
	case "exec-open":
		return r.perLayer["stage.sched_lag_us_p50"] + r.perLayer["stage.admit_us_p50"] +
			r.perLayer["stage.queue_us_p50"] + r.perLayer["stage.run_us_p50"], true
	case "shard-open":
		return r.perLayer["stage.sched_lag_us_p50"] + r.perLayer["stage.produce_us_p50"] +
			r.perLayer["stage.inshard_us_p50"], true
	}
	return 0, false
}

// writeSpans writes the last traced trial of every workload as JSON lines.
func writeSpans(spans []span) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(spanDir, "spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// To stderr: the driver reads the result object off the last line of stdout.
	fmt.Fprintf(os.Stderr, "# %d spans written to %s\n", len(spans), path)
	return nil
}

// runAA runs the whole set twice on this binary and checks that the two sets
// of medians agree within each metric's bound.
func runAA(set []workload, o options) bool {
	var runs [2][]*result
	for i := range runs {
		fmt.Printf("# A/A run %d\n", i+1)
		rs, err := runSet(set, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return false
		}
		runs[i] = rs
	}
	ok := true
	fmt.Printf("# A/A: second median against the first, worse counted positive\n")
	fmt.Printf("%-14s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse_by", "bound")
	for i, a := range runs[0] {
		b := runs[1][i]
		ok = ok && len(a.invalid) == 0 && len(b.invalid) == 0
		for _, m := range endToEnd {
			x, y := a.endToEnd[m.name].median, b.endToEnd[m.name].median
			worse := (y - x) / x
			if m.better == "higher" {
				worse = -worse
			}
			verdict := "pass"
			if worse > m.bound {
				verdict, ok = "FAIL", false
			}
			fmt.Printf("%-14s %-18s %14.6g %14.6g %+8.1f%% %6.0f%% %s\n", a.workload, m.name, x, y, 100*worse, 100*m.bound, verdict)
		}
	}
	return ok
}
