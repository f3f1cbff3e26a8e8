package main

import (
	"cmp"
	"runtime"
	"slices"
	"time"

	"salsa"
)

// config is what a trial is given. The system under test sees none of it,
// only the inputs generated from it.
type config struct {
	seed   uint64
	window time.Duration // length of the timed part of a trial
	trace  bool          // record spans and read counters
	quick  bool          // tiny fixed counts, for the tier-1 test
}

// fixed scales a fixed task count (warm-ups) down for -quick.
func (c config) fixed(n int) int {
	if c.quick {
		return max(n/64, 1)
	}
	return n
}

// trial is everything measured on one fresh instance of the system.
type trial struct {
	verdict
	delivered int64         // tasks received inside the timed window
	elapsed   time.Duration // the timed window as it turned out
	setup     time.Duration // construction + dial/join + fixed-count warm-up
	lat       []int64       // latency samples in ns, unsorted
	mallocs   uint64        // process-wide, over the timed window
	bytes     uint64
	heap      uint64 // HeapInuse growth since just before construction, after a GC
	sends     int64  // open loop: sends made, and how many started late
	late      int64
	saturated int64 // SATURATED frames a shard sent

	endToEnd map[string]float64 // endToEndValues, kept by runWorkload

	// Traced trials only.
	layer map[string]float64 // per-layer metric name → this trial's value
	spans []span
}

// span is one interval at a layer boundary, recorded by the benchmark around
// its own calls. Spans of one task or batch share id.
type span struct {
	Workload string `json:"workload"`
	ID       int64  `json:"id"`
	Name     string `json:"name"`
	Parent   string `json:"parent,omitempty"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// meter brackets the timed window of a trial.
type meter struct {
	m0    runtime.MemStats
	start time.Time
}

func (m *meter) begin() {
	runtime.ReadMemStats(&m.m0)
	m.start = time.Now()
}

func (m *meter) end(tr *trial) {
	tr.elapsed = time.Since(m.start)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	tr.mallocs = m1.Mallocs - m.m0.Mallocs
	tr.bytes = m1.TotalAlloc - m.m0.TotalAlloc
}

// heapInuse collects and returns HeapInuse. Taken once after the benchmark
// has allocated its own buffers and once at the end of the trial before
// teardown, the difference is what the system holds: chunk-pool growth shows
// here, the verifier's bitmap does not.
func heapInuse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

func heapGrowth(base uint64) uint64 {
	if now := heapInuse(); now > base {
		return now - base
	}
	return 0
}

// endToEndValues maps a trial to the end-to-end metrics, by name.
func (tr *trial) endToEndValues() map[string]float64 {
	sorted := slices.Clone(tr.lat)
	slices.Sort(sorted)
	tasks := float64(max(tr.delivered, 1))
	return map[string]float64{
		"tasks_per_s":     float64(tr.delivered) / tr.elapsed.Seconds(),
		"latency_p50_us":  float64(percentile(sorted, 0.50)) / 1e3,
		"latency_p99_us":  float64(percentile(sorted, 0.99)) / 1e3,
		"allocs_per_task": float64(tr.mallocs) / tasks,
		"bytes_per_task":  float64(tr.bytes) / tasks,
		"heap_mb":         float64(tr.heap) / (1 << 20),
		"setup_s":         tr.setup.Seconds(),
	}
}

func (tr *trial) lateFrac() float64 { return ratio(tr.late, tr.sends) }

// latencyOrder returns the indices of total sorted by value: the order in
// which stageAt picks its band.
func latencyOrder(total []int64) []int {
	order := make([]int, len(total))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(total[a], total[b]) })
	return order
}

// stageAt returns the mean of stage, in µs, over the tasks whose end-to-end
// latency ranks within half a percentile of p: where the p50 (or p99) task
// spent its time. Unlike the p-quantile of each stage taken alone, these add
// up to the latency at p along a chain of consecutive stages.
func stageAt(order []int, stage []int64, p float64) float64 {
	n := len(order)
	if n == 0 {
		return 0
	}
	lo := min(max(int((p-0.005)*float64(n)), 0), n-1)
	hi := min(max(int((p+0.005)*float64(n)), lo+1), n)
	var sum int64
	for _, i := range order[lo:hi] {
		sum += stage[i]
	}
	return float64(sum) / float64(hi-lo) / 1e3
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// poolCounters turns a pool's operation census into the per-layer ratios of
// the three in-process layers.
func poolCounters(s salsa.Stats, out map[string]float64) {
	out["core.fastpath_ratio"] = s.FastPathRatio()
	out["core.cas_per_task"] = s.CASPerGet()
	out["core.steals_per_ktask"] = 1000 * ratio(s.Steals, s.Gets)
	out["core.steal_success_ratio"] = ratio(s.Steals, s.StealAttempts)
	out["chunkpool.reuse_ratio"] = ratio(s.ChunkReuses, s.ChunkReuses+s.ChunkAllocs)
	out["chunkpool.allocs_per_ktask"] = 1000 * ratio(s.ChunkAllocs, s.Gets)
	out["framework.gets_empty_ratio"] = ratio(s.GetsEmpty, s.Gets+s.GetsEmpty)
	out["framework.produce_full_per_ktask"] = 1000 * ratio(s.ProduceFull, s.Puts)
	out["framework.force_expands_per_ktask"] = 1000 * ratio(s.ForceExpands, s.Puts)
	out["framework.parks_per_ktask"] = 1000 * ratio(s.Parks, s.Gets)
	out["framework.avg_put_batch"] = s.AvgPutBatch()
	out["framework.avg_get_batch"] = s.AvgGetBatch()
	out["framework.batch_fast_ratio"] = ratio(s.BatchFastPath, s.FastPath)
}

// stallNs is how long a receiver waits without progress before it gives the
// missing tasks up for lost: a broken system fails the check, it does not
// hang the run.
const stallNs = int64(3 * time.Second)
