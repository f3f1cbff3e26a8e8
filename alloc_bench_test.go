// Benchmarks pinning the allocation budget of the steady-state hot paths.
// BenchmarkAlloc and BenchmarkAllocWire are the bench-smoke allocation gate:
// their records are committed to BENCH_alloc.json (with allocs/op and B/op
// from -benchmem) and compared with -alloctol 0, so a Put/Get path that
// starts allocating per task fails the gate the day it lands. The steady state
// recirculates task pointers and chunk memory; the only allocations left
// are chunk-header rebuilds, amortized across a whole chunk residence,
// which round to 0 allocs/op.
package salsa_test

import (
	"context"
	"testing"
	"time"

	"salsa"
	"salsa/internal/remote"
	"salsa/internal/workload"
)

// BenchmarkAlloc is the allocation gate: bursts of 64 tasks through a 1p/1c
// pool — put the burst, drain it — recirculating the task pointers. ns/op
// is one task transfer; the steady state must hold 0 allocs/op.
func BenchmarkAlloc(b *testing.B) {
	b.Run("PutGet", func(b *testing.B) {
		pool, err := salsa.New[workload.Task](salsa.Config{Producers: 1, Consumers: 1})
		if err != nil {
			b.Fatal(err)
		}
		p, c := pool.Producer(0), pool.Consumer(0)
		const run = 64
		tasks := make([]*workload.Task, run)
		for i := range tasks {
			tasks[i] = &workload.Task{}
		}
		burst := func(n int) {
			for j := 0; j < n; j++ {
				p.Put(tasks[j])
			}
			for j := 0; j < n; j++ {
				got, ok := c.Get()
				if !ok {
					b.Fatal("pool empty mid-burst")
				}
				tasks[j] = got
			}
		}
		// Warm-up: enough full residences that the chunk pool is primed
		// and the steady state recycles chunks instead of growing the pool.
		for r := 0; r < 64; r++ {
			burst(run)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; done += run {
			burst(min(run, b.N-done))
		}
	})
}

// BenchmarkAllocWire extends the gate to the wire path: one loopback shard,
// Produce of 64 × 32-byte bodies then GetBatch(64) until they are back.
// ns/op is one task across both round trips; client, codec and both shard
// handlers together must hold 0 allocs/op — every frame's slab, scratch and
// reply buffer is recycled (DESIGN.md §12.1).
func BenchmarkAllocWire(b *testing.B) {
	srv, err := remote.NewServer("127.0.0.1:0", remote.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	prod, err := remote.DialProducer([]string{srv.Addr()}, remote.ProducerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer prod.Close()
	wk, err := remote.DialWorker(srv.Addr(), remote.WorkerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer wk.Close()
	const run = 64
	bodies := make([][]byte, run)
	for i := range bodies {
		bodies[i] = make([]byte, 32)
	}
	ctx := context.Background()
	burst := func(n int) {
		if err := prod.Produce(ctx, bodies[:n]); err != nil {
			b.Fatal(err)
		}
		for got := 0; got < n; {
			bs, err := wk.GetBatch(run, time.Second)
			if err != nil {
				b.Fatal(err)
			}
			got += len(bs)
		}
	}
	for r := 0; r < 64; r++ {
		burst(run)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += run {
		burst(min(run, b.N-done))
	}
}
