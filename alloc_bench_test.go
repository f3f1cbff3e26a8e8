// Benchmarks pinning the allocation budget of the steady-state hot paths.
// BenchmarkAlloc is the bench-smoke allocation gate: its records are
// committed to BENCH_alloc.json (with allocs/op and B/op from -benchmem)
// and compared with -alloctol 0, so a Put/Get path that starts
// allocating per task fails the gate the day it lands. The steady state
// recirculates task pointers and chunk memory; the only allocations left
// are chunk-header rebuilds, amortized across a whole chunk residence,
// which round to 0 allocs/op.
package salsa_test

import (
	"testing"

	"salsa"
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
