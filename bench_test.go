// Benchmarks regenerating the paper's evaluation figures (§1.6) as
// testing.B benchmarks — one benchmark family per figure, one
// sub-benchmark per curve/data-point. ns/op approximates the cost of one
// task transfer (put + get); the reported custom metrics carry the paper's
// synchronization story:
//
//	cas/task    CAS attempts per retrieved task   (Figure 1.5(b))
//	steals      successful chunk/task steals
//	fastpath    fraction of retrievals on SALSA's CAS-free fast path
//
// Run with:
//
//	go test -bench=. -benchmem
//
// For the full parameter sweeps and table output, use cmd/salsa-bench.
package salsa_test

import (
	"fmt"
	"testing"

	"salsa"
	"salsa/internal/workload"
)

// benchPairs is the thread scale used by the benchmarks; modest because
// testing.B multiplies every sub-benchmark by many calibration rounds.
const benchPairs = 4

func benchRun(b *testing.B, cfg workload.Config) {
	b.Helper()
	per := b.N / cfg.Producers
	if per < 1 {
		per = 1
	}
	res, err := workload.RunFixed(cfg, per)
	if err != nil {
		b.Fatal(err)
	}
	if res.Consumed != int64(per)*int64(cfg.Producers) {
		b.Fatalf("lost tasks: consumed %d of %d", res.Consumed, per*cfg.Producers)
	}
	b.ReportMetric(res.CASPerGet(), "cas/task")
	b.ReportMetric(float64(res.Stats.Steals), "steals")
	b.ReportMetric(res.Stats.FastPathRatio(), "fastpath")
}

var benchAlgorithms = []salsa.Algorithm{
	salsa.SALSA, salsa.SALSACAS, salsa.ConcBag, salsa.WSMSQ, salsa.WSLIFO,
}

// BenchmarkFig14a — Figure 1.4(a): N producers / N consumers, all five
// algorithms.
func BenchmarkFig14a(b *testing.B) {
	for _, alg := range benchAlgorithms {
		b.Run(alg.String(), func(b *testing.B) {
			benchRun(b, workload.Config{
				Algorithm: alg,
				Producers: benchPairs,
				Consumers: benchPairs,
			})
		})
	}
}

// BenchmarkFig14b — Figure 1.4(b): producer/consumer ratio sweep at a fixed
// total thread count.
func BenchmarkFig14b(b *testing.B) {
	ratios := []struct{ p, c int }{{1, 7}, {2, 6}, {4, 4}, {6, 2}, {7, 1}}
	for _, alg := range benchAlgorithms {
		for _, r := range ratios {
			b.Run(fmt.Sprintf("%s/%dp%dc", alg, r.p, r.c), func(b *testing.B) {
				benchRun(b, workload.Config{
					Algorithm: alg,
					Producers: r.p,
					Consumers: r.c,
				})
			})
		}
	}
}

// BenchmarkFig15 — Figures 1.5(a)+(b): single producer, N consumers; the
// cas/task metric is the 1.5(b) series.
func BenchmarkFig15(b *testing.B) {
	for _, alg := range benchAlgorithms {
		for _, consumers := range []int{1, 3, 7} {
			b.Run(fmt.Sprintf("%s/%dconsumers", alg, consumers), func(b *testing.B) {
				benchRun(b, workload.Config{
					Algorithm: alg,
					Producers: 1,
					Consumers: consumers,
				})
			})
		}
	}
}

// BenchmarkFig16 — Figure 1.6: producer-based balancing ablation.
func BenchmarkFig16(b *testing.B) {
	for _, v := range []struct {
		name      string
		alg       salsa.Algorithm
		balancing bool
	}{
		{"SALSA", salsa.SALSA, true},
		{"SALSA+CAS", salsa.SALSACAS, true},
		{"SALSA-no-balancing", salsa.SALSA, false},
		{"SALSA+CAS-no-balancing", salsa.SALSACAS, false},
	} {
		b.Run(v.name, func(b *testing.B) {
			benchRun(b, workload.Config{
				Algorithm:        v.alg,
				Producers:        1,
				Consumers:        benchPairs,
				DisableBalancing: !v.balancing,
			})
		})
	}
}

// BenchmarkFig17 — Figure 1.7: scheduling/allocation impact on the
// simulated NUMA interconnect. ns/op carries the modelled memory-system
// cost; central allocation queues on node 0's port.
func BenchmarkFig17(b *testing.B) {
	for _, v := range []struct {
		name      string
		placement salsa.Placement
		alloc     salsa.AllocationPolicy
	}{
		{"SALSA", salsa.PlacementInterleaved, salsa.AllocLocal},
		{"SALSA-OS-affinity", salsa.PlacementScattered, salsa.AllocLocal},
		{"SALSA-central-alloc", salsa.PlacementInterleaved, salsa.AllocCentral},
	} {
		b.Run(v.name, func(b *testing.B) {
			res, err := workload.Run(workload.Config{
				Algorithm:  salsa.SALSA,
				Producers:  benchPairs,
				Consumers:  benchPairs,
				Placement:  v.placement,
				Allocation: v.alloc,
				Simulate:   true,
			})
			if err != nil {
				b.Fatal(err)
			}
			// A timed (not op-counted) run: report the paper's metric
			// directly and neutralise ns/op.
			b.ReportMetric(res.ThroughputKTasksPerMs(), "ktasks/ms")
			b.ReportMetric(float64(res.SimStats.BusiestLinkWait.Milliseconds()), "linkwait-ms")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkFig18 — Figure 1.8: throughput as a function of chunk size.
func BenchmarkFig18(b *testing.B) {
	for _, alg := range []salsa.Algorithm{salsa.SALSA, salsa.SALSACAS, salsa.ConcBag} {
		for _, size := range []int{16, 128, 1000, 2000} {
			b.Run(fmt.Sprintf("%s/chunk%d", alg, size), func(b *testing.B) {
				benchRun(b, workload.Config{
					Algorithm: alg,
					Producers: benchPairs,
					Consumers: benchPairs,
					ChunkSize: size,
				})
			})
		}
	}
}

// BenchmarkBatch sweeps the API batch size on SALSA at the standard
// balanced configuration: batch=1 is the single-task Put/Get baseline
// (and must stay within noise of the pre-batching numbers); larger
// batches amortize the access-list walk, hazard publish and chunk
// validation across each run of consecutive tasks. The batchfast metric
// is the fraction of retrievals completing on the amortized batch fast
// path.
func BenchmarkBatch(b *testing.B) {
	for _, batch := range workload.BatchSteps {
		b.Run(fmt.Sprintf("SALSA/batch%d", batch), func(b *testing.B) {
			cfg := workload.Config{
				Algorithm: salsa.SALSA,
				Producers: benchPairs,
				Consumers: benchPairs,
				Batch:     batch,
			}
			per := b.N / cfg.Producers
			if per < 1 {
				per = 1
			}
			res, err := workload.RunFixed(cfg, per)
			if err != nil {
				b.Fatal(err)
			}
			if res.Consumed != int64(per)*int64(cfg.Producers) {
				b.Fatalf("lost tasks: consumed %d of %d", res.Consumed, per*cfg.Producers)
			}
			b.ReportMetric(res.CASPerGet(), "cas/task")
			b.ReportMetric(res.Stats.FastPathRatio(), "fastpath")
			if res.Stats.Gets > 0 {
				b.ReportMetric(float64(res.Stats.BatchFastPath)/float64(res.Stats.Gets), "batchfast")
			}
			b.ReportMetric(res.Stats.AvgGetBatch(), "avgbatch")
		})
	}
}

// BenchmarkUncontendedFastPath isolates the paper's headline property: a
// single producer/consumer pair on SALSA, where every retrieval must ride
// the CAS-free fast path. This is the per-operation floor of the system.
func BenchmarkUncontendedFastPath(b *testing.B) {
	pool, err := salsa.New[workload.Task](salsa.Config{Producers: 1, Consumers: 1})
	if err != nil {
		b.Fatal(err)
	}
	p, c := pool.Producer(0), pool.Consumer(0)
	t := &workload.Task{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Put(t)
		got, ok := c.Get()
		if !ok {
			b.Fatal("empty after put")
		}
		t = got // recirculate the pointer: consumed tasks may be reused
	}
	b.StopTimer()
	s := pool.Stats()
	b.ReportMetric(s.CASPerGet(), "cas/task")
	b.ReportMetric(s.FastPathRatio(), "fastpath")
}

// BenchmarkAblationStealOrder compares victim-iteration policies in the
// steal-heavy single-producer regime (an ablation of the §1.4 policy knob).
func BenchmarkAblationStealOrder(b *testing.B) {
	for _, v := range []struct {
		name string
		so   salsa.StealOrder
	}{
		{"nearest-first", salsa.StealNearestFirst},
		{"round-robin", salsa.StealRoundRobin},
		{"random", salsa.StealRandom},
	} {
		b.Run(v.name, func(b *testing.B) {
			per := b.N
			res, err := workload.RunFixed(workload.Config{
				Algorithm:  salsa.SALSA,
				Producers:  1,
				Consumers:  benchPairs,
				ChunkSize:  64,
				StealOrder: v.so,
			}, per)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Stats.Steals), "steals")
			b.ReportMetric(res.CASPerGet(), "cas/task")
		})
	}
}

// BenchmarkAblationLinearizableEmpty measures the cost of the checkEmpty
// protocol against the non-linearizable single-pass Get on an empty pool —
// the price of a provably correct ⊥ (§1.5.5).
func BenchmarkAblationLinearizableEmpty(b *testing.B) {
	for _, lin := range []bool{true, false} {
		name := "linearizable"
		if !lin {
			name = "single-pass"
		}
		b.Run(name, func(b *testing.B) {
			pool, err := salsa.New[workload.Task](salsa.Config{
				Producers:            1,
				Consumers:            4,
				NonLinearizableEmpty: !lin,
			})
			if err != nil {
				b.Fatal(err)
			}
			c := pool.Consumer(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := c.Get(); ok {
					b.Fatal("task in an empty pool")
				}
			}
		})
	}
}
