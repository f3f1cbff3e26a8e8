package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(data, n=4) for each input.
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.50, 50}, {0.99, 99}, {0.999, 100}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

func TestVerifierCountsLossDuplicateAndShed(t *testing.T) {
	const n = 1000
	deliver := func(v *verifier, skip map[int64]bool) {
		for seq := int64(0); seq < n; seq++ {
			if !skip[seq] {
				v.mark(int(seq%2), seq)
			}
		}
	}
	t.Run("clean", func(t *testing.T) {
		v := newVerifier(n, 2)
		deliver(v, nil)
		if d := v.tally(n, 0); d.failed() != 0 {
			t.Errorf("clean run: %+v", d)
		}
	})
	t.Run("loss", func(t *testing.T) {
		v := newVerifier(n, 2)
		deliver(v, map[int64]bool{17: true, 640: true})
		if d := v.tally(n, 0); d.lost != 2 || d.dup != 0 || d.failed() != 2 {
			t.Errorf("two tasks dropped: %+v", d)
		}
	})
	t.Run("duplicate", func(t *testing.T) {
		v := newVerifier(n, 2)
		deliver(v, nil)
		v.mark(0, 40) // again in the lane that had it
		v.mark(0, 41) // again in the other lane
		if d := v.tally(n, 0); d.dup != 2 || d.lost != 0 || d.failed() != 2 {
			t.Errorf("two tasks delivered twice: %+v", d)
		}
	})
	t.Run("shed", func(t *testing.T) {
		v := newVerifier(n, 2)
		deliver(v, map[int64]bool{3: true})
		if d := v.tally(n, 1); d.refused != 1 || d.lost != 0 || d.failed() != 1 {
			t.Errorf("one task shed at the entry point: %+v", d)
		}
	})
	t.Run("never sent", func(t *testing.T) {
		v := newVerifier(n, 2)
		deliver(v, nil)
		v.mark(0, n+5) // outside the bitmap
		if d := v.tally(n-10, 0); d.dup != 11 {
			t.Errorf("ten tasks past attempted and one stray: %+v", d)
		}
	})
}

// TestCatalogueMatchesBenchmarkJSON pins every emitted name to
// BENCHMARK.json: the driver refuses a run whose metrics differ from it.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, defs []metricDef, entries []entry, bounded bool) {
		if len(defs) != len(entries) {
			t.Errorf("%s: %d metrics in the program, %d in BENCHMARK.json", kind, len(defs), len(entries))
			return
		}
		for i, d := range defs {
			e := entries[i]
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("%s %q (%q) is outside the allowed characters", kind, d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("%s %q is declared twice", kind, d.name)
			}
			seen[d.name] = true
			if d.name != e.Name || d.unit != e.Unit || d.better != e.Better || (bounded && d.bound != e.Bound) {
				t.Errorf("%s #%d: program has %+v, BENCHMARK.json has %+v", kind, i, d, e)
			}
			if bounded && (d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s %q: bound %v outside (0, 0.25]", kind, d.name, d.bound)
			}
		}
	}
	check("end-to-end", endToEnd, file.EndToEnd, true)
	check("per-layer", perLayer, file.PerLayer, false)
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the program, %d in BENCHMARK.json", len(workloads), len(file.Workloads))
	}
	for i, w := range workloads {
		if e := file.Workloads[i]; w.name != e.Name || w.why != e.Why || !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload #%d: program has %q (%q), BENCHMARK.json has %q (%q)", i, w.name, w.why, e.Name, e.Why)
		}
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
}

// TestQuickPass drives every workload and every ladder rung with tiny
// counts: nothing may be lost, and the JSON line must carry exactly the
// declared metrics.
func TestQuickPass(t *testing.T) {
	o := options{seed: 1, seconds: 300 * time.Millisecond, quick: true, procs: 2, ladder: time.Millisecond}
	ladder := map[string]float64{}
	if err := runLadder(o.ladder, o.seed, ladder); err != nil {
		t.Fatal(err)
	}
	for _, rung := range ladderRungs {
		if v, ok := ladder[rung.name]; !ok || v <= 0 {
			t.Errorf("ladder rung %s = %v, want a positive cost", rung.name, v)
		}
	}
	if len(ladder) != len(ladderRungs) {
		t.Errorf("ladder filled %d rungs, %d are declared", len(ladder), len(ladderRungs))
	}
	for _, w := range workloads {
		for _, o.trace = range []bool{false, true} {
			r, err := runWorkload(w, o, ladder)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s trace=%v: failed %d of %d", w.name, o.trace, r.failed, r.attempted)
			}
			declared := endToEnd
			if o.trace {
				declared = perLayer
				for name := range r.perLayer {
					if !declaredIn(perLayer, name) {
						t.Errorf("%s emits undeclared per-layer metric %q", w.name, name)
					}
				}
			} else {
				for _, m := range endToEnd {
					if v := r.endToEnd[m.name].median; v <= 0 {
						t.Errorf("%s %s = %v, want > 0", w.name, m.name, v)
					}
				}
			}
			var buf bytes.Buffer
			if err := r.write(&buf, true); err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
			var last struct {
				Correct   *bool
				Attempted *int64
				Failed    *int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w.name, err)
			}
			if last.Correct == nil || last.Attempted == nil || last.Failed == nil {
				t.Errorf("%s: result object lacks a key: %s", w.name, lines[len(lines)-1])
			}
			if len(last.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics in the result, %d declared", w.name, o.trace, len(last.Metrics), len(declared))
			}
			for _, m := range declared {
				if got, ok := last.Metrics[m.name]; !ok || got.Value == nil || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s missing or in the wrong unit", w.name, o.trace, m.name)
				}
			}
		}
	}
}

func declaredIn(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}
