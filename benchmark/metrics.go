package main

import (
	"math"
	"slices"
)

// metricDef declares one emitted metric. The two tables below are the single
// source of truth inside the program; BENCHMARK.json repeats them for the
// driver and TestCatalogueMatchesBenchmarkJSON keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the baseline median it may worsen by
}

// endToEnd is what a user of the system sees. Every metric is reported on
// every workload (the driver's contract), so each is defined for closed and
// open loops alike. A bound is about three times the widest run-to-run
// spread any workload showed on this host — see README "End-to-end metrics"
// and "Steadiness".
var endToEnd = []metricDef{
	{"tasks_per_s", "1/s", "higher", 0.20},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p99_us", "us", "lower", 0.25},
	{"allocs_per_task", "allocs/task", "lower", 0.05},
	{"bytes_per_task", "B/task", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// ladderRungs is what runLadder fills: one public call timed in isolation
// per rung.
var ladderRungs = []metricDef{
	{"core.produce_consume_ns", "ns", "lower", 0},
	{"core.produce_consume_batch32_ns", "ns", "lower", 0},
	{"core.steal_chunk_ns", "ns", "lower", 0},
	{"chunkpool.get_put_ns", "ns", "lower", 0},
	{"framework.put_get_ns", "ns", "lower", 0},
	{"framework.get_empty_ns", "ns", "lower", 0},
	{"salsa.put_get_ns", "ns", "lower", 0},
	{"salsa.putbatch32_getbatch32_ns", "ns", "lower", 0},
	{"salsa.tryput_tryget_ns", "ns", "lower", 0},
	{"admission.put_ns", "ns", "lower", 0},
	{"admission.shed_ns", "ns", "lower", 0},
	{"executor.submit_run_ns", "ns", "lower", 0},
	{"executor.trysubmitclass_run_ns", "ns", "lower", 0},
	{"wire.encode_put64_ns", "ns", "lower", 0},
	{"wire.decode_put64_ns", "ns", "lower", 0},
	{"wire.decode_put64_allocs", "allocs/task", "lower", 0},
	{"wire.encode_tasks64_ns", "ns", "lower", 0},
	{"wire.decode_tasks64_ns", "ns", "lower", 0},
	{"remote.put64_rtt_us", "us", "lower", 0},
	{"remote.get64_rtt_us", "us", "lower", 0},
	{"remote.put1_rtt_us", "us", "lower", 0},
	{"remote.get1_rtt_us", "us", "lower", 0},
	{"remote.put64_allocs", "allocs/task", "lower", 0},
	{"remote.get64_allocs", "allocs/task", "lower", 0},
	{"route.produce2_rtt_us", "us", "lower", 0},
	{"route.spill_rtt_us", "us", "lower", 0},
}

// perLayer is the -trace 1 output: the ladder, then counter ratios read from
// the system after a traced trial, stage times recorded around the
// benchmark's own calls, and generator health. A layer a workload does not
// touch reports 0.
var perLayer = append(slices.Clone(ladderRungs), []metricDef{
	// Counters.
	{"core.fastpath_ratio", "ratio", "higher", 0},
	{"core.cas_per_task", "1/task", "lower", 0},
	{"core.steals_per_ktask", "1/ktask", "lower", 0},
	{"core.steal_success_ratio", "ratio", "higher", 0},
	{"chunkpool.reuse_ratio", "ratio", "higher", 0},
	{"chunkpool.allocs_per_ktask", "1/ktask", "lower", 0},
	{"framework.gets_empty_ratio", "ratio", "lower", 0},
	{"framework.produce_full_per_ktask", "1/ktask", "lower", 0},
	{"framework.force_expands_per_ktask", "1/ktask", "lower", 0},
	{"framework.parks_per_ktask", "1/ktask", "lower", 0},
	{"framework.avg_put_batch", "tasks", "higher", 0},
	{"framework.avg_get_batch", "tasks", "higher", 0},
	{"framework.batch_fast_ratio", "ratio", "higher", 0},
	{"admission.admit_ratio", "ratio", "higher", 0},
	{"admission.shed_rate_frac", "ratio", "lower", 0},
	{"admission.shed_saturated_frac", "ratio", "lower", 0},
	{"executor.panics", "count", "lower", 0},
	{"remote.frames_per_task", "1/task", "lower", 0},
	{"remote.saturated_per_kput", "1/kput", "lower", 0},
	{"remote.empty_get_ratio", "ratio", "lower", 0},
	{"remote.dedup_hits", "count", "lower", 0},
	{"remote.reconnects", "count", "lower", 0},
	// Spans.
	{"stage.sched_lag_us_p50", "us", "lower", 0},
	{"stage.admit_us_p50", "us", "lower", 0},
	{"stage.queue_us_p50", "us", "lower", 0},
	{"stage.queue_us_p99", "us", "lower", 0},
	{"stage.run_us_p50", "us", "lower", 0},
	{"stage.produce_us_p50", "us", "lower", 0},
	{"stage.produce_us_p99", "us", "lower", 0},
	{"stage.inshard_us_p50", "us", "lower", 0},
	{"stage.inshard_us_p99", "us", "lower", 0},
	{"stage.get_us_p50", "us", "lower", 0},
	{"stage.put_ns_p50", "ns", "lower", 0},
	{"stage.get_ns_p50", "ns", "lower", 0},
	{"stage.inpool_us_p50", "us", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	// Generator health and the verifier's verdict.
	{"bench.late_frac", "ratio", "lower", 0},
	{"bench.failed_frac", "ratio", "lower", 0},
	{"bench.gomaxprocs", "count", "higher", 0},
	{"bench.trials", "count", "higher", 0},
}...)

// summary is a metric over the trials of one run.
type summary struct {
	median, q1, q3 float64
	n              int
}

func summarize(vs []float64) summary {
	q1, med, q3 := quartiles(vs)
	return summary{median: med, q1: q1, q3: q3, n: len(vs)}
}

// quartiles returns the three cut points of vs as Python's
// statistics.quantiles(vs, n=4) computes them (the exclusive method), so the
// spread printed here is the spread the driver computes. Fewer than two
// values have no spread: all three cuts are the value itself.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		pos := i * (n + 1)
		j := min(max(pos/4, 1), n-1)
		delta := pos - 4*j // outside [0,4) where the clamp extrapolates
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted: the
// smallest sample with at least p·n samples at or below it. Exact samples,
// not histogram buckets — the power-of-two histogram in internal/stats
// cannot resolve a tail.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}
