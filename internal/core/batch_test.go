package core

import (
	"sync"
	"testing"

	"salsa/internal/scpool"
)

// The native batch paths must satisfy the capability interface the
// framework discovers by type assertion.
var _ scpool.BatchSCPool[task] = (*Pool[task])(nil)

func TestProduceBatchConsumeBatchRoundTrip(t *testing.T) {
	s := newFamily(t, 8, 1)
	p := mkPool(t, s, 0, 1)
	ps, cs := prod(0), cons(0)

	// Seed spares so the non-forcing batch path has chunks to take.
	for i := 0; i < 4; i++ {
		p.chunks.Put(nil, newChunk[task](s.opts.ChunkSize, 0))
	}

	tasks := make([]*task, 20) // spans 2.5 chunks of size 8
	for i := range tasks {
		tasks[i] = &task{id: i}
	}
	if n := p.ProduceBatch(ps, tasks); n != len(tasks) {
		t.Fatalf("ProduceBatch = %d, want %d", n, len(tasks))
	}
	if got := ps.Ops.Puts.Load(); got != int64(len(tasks)) {
		t.Fatalf("Puts = %d, want %d", got, len(tasks))
	}

	dst := make([]*task, 32)
	n := p.ConsumeBatch(cs, dst)
	if n != len(tasks) {
		t.Fatalf("ConsumeBatch = %d, want %d", n, len(tasks))
	}
	for i, got := range dst[:n] {
		if got != tasks[i] {
			t.Fatalf("task %d: got %v want %v", i, got, tasks[i])
		}
	}
	if got := cs.Ops.BatchFastPath.Load(); got != int64(len(tasks)) {
		t.Fatalf("BatchFastPath = %d, want %d", got, len(tasks))
	}
	if n := p.ConsumeBatch(cs, dst); n != 0 {
		t.Fatalf("ConsumeBatch on drained pool = %d", n)
	}
	if !p.IsEmpty() {
		t.Fatal("drained pool not IsEmpty")
	}
}

func TestProduceBatchPartialOnSpareExhaustion(t *testing.T) {
	s := newFamily(t, 4, 1)
	p := mkPool(t, s, 0, 1)
	ps, cs := prod(0), cons(0)
	for i := 0; i < 2; i++ {
		p.chunks.Put(nil, newChunk[task](s.opts.ChunkSize, 0)) // room for exactly 8 tasks
	}

	tasks := make([]*task, 12)
	for i := range tasks {
		tasks[i] = &task{id: i}
	}
	n := p.ProduceBatch(ps, tasks)
	if n != 8 {
		t.Fatalf("ProduceBatch = %d, want 8 (2 chunks of 4)", n)
	}
	if got := ps.Ops.ProduceFull.Load(); got != 1 {
		t.Fatalf("ProduceFull = %d, want 1 (one failed chunk grab ends the batch)", got)
	}
	if got := ps.Ops.Puts.Load(); got != 8 {
		t.Fatalf("Puts = %d, want the partial count 8", got)
	}

	// No inserted task may be lost: the prefix drains in order.
	dst := make([]*task, 16)
	got := p.ConsumeBatch(cs, dst)
	if got != n {
		t.Fatalf("drained %d of the %d accepted tasks", got, n)
	}
	for i := 0; i < n; i++ {
		if dst[i] != tasks[i] {
			t.Fatalf("slot %d: got %v want %v", i, dst[i], tasks[i])
		}
	}
	// The rejected suffix was never inserted anywhere.
	if !p.IsEmpty() {
		t.Fatal("pool should be empty after draining the accepted prefix")
	}
}

func TestConsumeBatchExactChunkBoundary(t *testing.T) {
	const chunkSize = 8
	s := newFamily(t, chunkSize, 1)
	p := mkPool(t, s, 0, 1)
	ps, cs := prod(0), cons(0)

	tasks := make([]*task, chunkSize)
	for i := range tasks {
		tasks[i] = &task{id: i}
		p.ProduceForce(ps, tasks[i])
	}
	if got := p.SpareChunks(); got != 0 {
		t.Fatalf("SpareChunks before drain = %d", got)
	}
	p.SetIndicator(0)

	// Drain in two calls so the second ends exactly at chunk exhaustion.
	dst := make([]*task, 5)
	if n := p.ConsumeBatch(cs, dst); n != 5 {
		t.Fatalf("first ConsumeBatch = %d, want 5", n)
	}
	dst2 := make([]*task, 3)
	if n := p.ConsumeBatch(cs, dst2); n != 3 {
		t.Fatalf("second ConsumeBatch = %d, want 3", n)
	}
	// checkLast semantics fired exactly once: the chunk was recycled to
	// this pool's chunk pool (once — the recycle guard would panic the
	// chunkpool on a double Put of the same chunk), and the finish
	// cleared the empty-indicator.
	if got := p.SpareChunks(); got != 1 {
		t.Fatalf("SpareChunks after exact-boundary drain = %d, want 1", got)
	}
	if p.CheckIndicator(0) {
		t.Fatal("indicator bit survived a chunk-finishing take")
	}
	if n := p.ConsumeBatch(cs, dst); n != 0 {
		t.Fatalf("ConsumeBatch after exhaustion = %d", n)
	}
}

func TestConsumeBatchStopsAtProductionFrontier(t *testing.T) {
	s := newFamily(t, 8, 1)
	p := mkPool(t, s, 0, 1)
	ps, cs := prod(0), cons(0)

	for i := 0; i < 3; i++ {
		p.ProduceForce(ps, &task{id: i})
	}
	p.SetIndicator(0)
	dst := make([]*task, 8)
	if n := p.ConsumeBatch(cs, dst); n != 3 {
		t.Fatalf("ConsumeBatch = %d, want 3 (stop at frontier)", n)
	}
	// Taking the currently-last task must clear the indicator (Algorithm
	// 6's next==⊥ branch), even mid-chunk.
	if p.CheckIndicator(0) {
		t.Fatal("indicator bit survived taking the last visible task")
	}
	// The run resumes from the cached node once production continues.
	for i := 3; i < 5; i++ {
		p.ProduceForce(ps, &task{id: i})
	}
	if n := p.ConsumeBatch(cs, dst); n != 2 {
		t.Fatalf("resumed ConsumeBatch = %d, want 2", n)
	}
}

// TestConsumeBatchVsStealRace hammers the one interleaving batching must
// not widen: a thief CASes the chunk away mid-run, and the ex-owner may
// take at most the one task it announced, by CAS. Uniqueness and
// completeness over every task prove neither a lost slot (the k-slot
// announce failure mode) nor a double take.
func TestConsumeBatchVsStealRace(t *testing.T) {
	const (
		chunkSize = 16
		rounds    = 200
	)
	if testing.Short() {
		t.Skip("stress test")
	}
	for round := 0; round < rounds; round++ {
		s := newFamily(t, chunkSize, 2)
		owner := mkPool(t, s, 0, 1)
		thief := mkPool(t, s, 1, 1)
		ps := prod(0)

		total := 3 * chunkSize
		tasks := make([]*task, total)
		for i := range tasks {
			tasks[i] = &task{id: i}
			owner.ProduceForce(ps, tasks[i])
		}

		seen := make([]int32, total)
		var wg sync.WaitGroup
		record := func(t2 *task, who string) {
			if t2 == nil {
				return
			}
			seen[t2.id]++
		}
		var ownerGot, thiefGot []*task
		wg.Add(2)
		go func() {
			defer wg.Done()
			cs := cons(0)
			dst := make([]*task, 7) // odd size: runs end mid-chunk
			for {
				n := owner.ConsumeBatch(cs, dst)
				if n == 0 {
					break
				}
				ownerGot = append(ownerGot, dst[:n]...)
			}
		}()
		go func() {
			defer wg.Done()
			cs := cons(1)
			dst := make([]*task, 7)
			for i := 0; i < 6; i++ {
				if t2 := thief.Steal(cs, owner); t2 != nil {
					thiefGot = append(thiefGot, t2)
				}
				// Drain what the steal migrated. A steal that loses
				// the contended slot to the ex-owner still keeps the
				// chunk and returns nil (Algorithm 5 line 133), so
				// drain after every attempt, as a consumer's own
				// Consume would.
				for {
					n := thief.ConsumeBatch(cs, dst)
					if n == 0 {
						break
					}
					thiefGot = append(thiefGot, dst[:n]...)
				}
			}
		}()
		wg.Wait()
		for _, t2 := range ownerGot {
			record(t2, "owner")
		}
		for _, t2 := range thiefGot {
			record(t2, "thief")
		}
		got := len(ownerGot) + len(thiefGot)
		for id, n := range seen {
			if n > 1 {
				t.Fatalf("round %d: task %d returned %d times (uniqueness violated)", round, id, n)
			}
			if n == 0 {
				t.Fatalf("round %d: task %d lost (%d of %d returned)", round, id, got, total)
			}
		}
	}
}
