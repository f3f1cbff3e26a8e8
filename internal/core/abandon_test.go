package core

import (
	"testing"

	"salsa/internal/scpool"
)

// TestAbandonRejectsProduce: after Abandon, Produce and ProduceBatch fail
// (the routing signal), ProduceForce still succeeds (its contract), and the
// generic scpool helpers see the capability.
func TestAbandonRejectsProduce(t *testing.T) {
	s, err := NewShared[task](Options{ChunkSize: 4, Consumers: 2, InitialChunks: 4})
	if err != nil {
		t.Fatalf("NewShared: %v", err)
	}
	p := mkPool(t, s, 0, 1)
	ps := prod(0)

	if !p.Produce(ps, &task{id: 1}) {
		t.Fatal("Produce failed before Abandon")
	}
	if p.abandoned.Load() {
		t.Fatal("abandoned flag set before Abandon")
	}
	if !scpool.Abandon[task](p) {
		t.Fatal("scpool.Abandon did not find the native capability")
	}
	if !p.abandoned.Load() {
		t.Fatal("abandoned flag clear after Abandon")
	}
	if p.Produce(ps, &task{id: 2}) {
		t.Fatal("Produce succeeded on an abandoned pool")
	}
	if n := p.ProduceBatch(ps, []*task{{id: 3}, {id: 4}}); n != 0 {
		t.Fatalf("ProduceBatch inserted %d into an abandoned pool", n)
	}
	// ProduceForce is unconditional; the straggler stays reclaimable.
	p.ProduceForce(ps, &task{id: 5})
	if got := scpool.VisibleTasks[task](p); got != 2 {
		t.Fatalf("VisibleTasks = %d, want 2 (pre-abandon task + forced straggler)", got)
	}
}

// TestStealReclaimsAbandonedPool: every task produced into a pool before
// its owner departs is consumed exactly once by a survivor through the
// ordinary Steal path, and the reclamation census counts the moved chunks.
func TestStealReclaimsAbandonedPool(t *testing.T) {
	const chunkSize, total = 4, 29 // deliberately not a multiple of chunkSize
	s, err := NewShared[task](Options{ChunkSize: chunkSize, Consumers: 2})
	if err != nil {
		t.Fatalf("NewShared: %v", err)
	}
	victim := mkPool(t, s, 0, 1)
	thief := mkPool(t, s, 1, 1)
	ps := prod(0)

	tasks := make([]*task, total)
	for i := range tasks {
		tasks[i] = &task{id: i}
		victim.ProduceForce(ps, tasks[i])
	}
	victim.Abandon()

	cs := cons(1)
	seen := make(map[int]int)
	for {
		tk := thief.Consume(cs)
		if tk == nil {
			tk = thief.Steal(cs, victim)
		}
		if tk == nil {
			if victim.IsEmpty() && thief.IsEmpty() {
				break
			}
			continue
		}
		seen[tk.id]++
	}
	if len(seen) != total {
		t.Fatalf("reclaimed %d distinct tasks, want %d", len(seen), total)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("task %d consumed %d times", id, n)
		}
	}
	if got := cs.Ops.ReclaimedChunks.Load(); got == 0 {
		t.Fatal("ReclaimedChunks census did not record any reclamation")
	}
	if got, steals := cs.Ops.ReclaimedChunks.Load(), cs.Ops.Steals.Load(); got > steals {
		t.Fatalf("ReclaimedChunks %d exceeds Steals %d", got, steals)
	}
	if got := victim.VisibleTasks(); got != 0 {
		t.Fatalf("abandoned pool still shows %d visible tasks", got)
	}
}

// TestDrainSparesInto moves every spare chunk to the destination and
// reports the count; self-drain is a no-op.
func TestDrainSparesInto(t *testing.T) {
	s, err := NewShared[task](Options{ChunkSize: 4, Consumers: 2, InitialChunks: 3})
	if err != nil {
		t.Fatalf("NewShared: %v", err)
	}
	src := mkPool(t, s, 0, 1)
	dst := mkPool(t, s, 1, 1)

	if n := scpool.DrainSpares[task](src, src); n != 0 {
		t.Fatalf("self-drain moved %d chunks", n)
	}
	if n := scpool.DrainSpares[task](src, dst); n != 3 {
		t.Fatalf("DrainSpares moved %d chunks, want 3", n)
	}
	if got := src.SpareChunks(); got != 0 {
		t.Fatalf("source retains %d spares", got)
	}
	if got := dst.SpareChunks(); got != 6 {
		t.Fatalf("destination has %d spares, want 6", got)
	}
	// The transplanted spares must be fully usable by the destination.
	ps := prod(0)
	for i := 0; i < 6*4; i++ {
		if !dst.Produce(ps, &task{id: i}) {
			t.Fatalf("Produce %d failed on transplanted spares", i)
		}
	}
	if dst.Produce(ps, &task{id: 99}) {
		t.Fatal("Produce succeeded past the transplanted capacity")
	}
}

// TestVisibleTasksCountsUntaken: the census tracks the produced-minus-taken
// frontier through consumption.
func TestVisibleTasksCountsUntaken(t *testing.T) {
	s := newFamily(t, 4, 1)
	p := mkPool(t, s, 0, 1)
	ps, cs := prod(0), cons(0)

	if got := p.VisibleTasks(); got != 0 {
		t.Fatalf("empty pool VisibleTasks = %d", got)
	}
	for i := 0; i < 6; i++ {
		p.ProduceForce(ps, &task{id: i})
	}
	if got := p.VisibleTasks(); got != 6 {
		t.Fatalf("VisibleTasks = %d, want 6", got)
	}
	for i := 0; i < 4; i++ {
		if p.Consume(cs) == nil {
			t.Fatalf("Consume %d returned nil", i)
		}
	}
	if got := p.VisibleTasks(); got != 2 {
		t.Fatalf("VisibleTasks after 4 takes = %d, want 2", got)
	}
}

// TestGenericFallbacksOnNonNativePool: the scpool helpers degrade cleanly
// for substrates without the native capabilities.
func TestGenericFallbacksOnNonNativePool(t *testing.T) {
	var p plainPool
	if scpool.Abandon[task](&p) {
		t.Fatal("Abandon reported native support on a plain pool")
	}
	if n := scpool.DrainSpares[task](&p, &p); n != 0 {
		t.Fatalf("DrainSpares moved %d on a plain pool", n)
	}
	if n := scpool.VisibleTasks[task](&p); n != 0 {
		t.Fatalf("VisibleTasks = %d on a plain pool, want 0", n)
	}
}

// plainPool is a minimal SCPool with none of the membership capabilities.
type plainPool struct{}

func (*plainPool) Produce(*scpool.ProducerState, *task) bool              { return false }
func (*plainPool) ProduceForce(*scpool.ProducerState, *task)              {}
func (*plainPool) Consume(*scpool.ConsumerState) *task                    { return nil }
func (*plainPool) Steal(*scpool.ConsumerState, scpool.SCPool[task]) *task { return nil }
func (*plainPool) IsEmpty() bool                                          { return true }
func (*plainPool) SetIndicator(int)                                       {}
func (*plainPool) CheckIndicator(int) bool                                { return false }
func (*plainPool) OwnerID() int                                           { return 0 }
