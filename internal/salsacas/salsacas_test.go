package salsacas

import (
	"sync"
	"testing"

	"salsa/internal/scpool"
)

type task struct{ id int }

func newFamily(t *testing.T, chunkSize, consumers int) *Shared[task] {
	t.Helper()
	s, err := NewShared[task](Options{ChunkSize: chunkSize, Consumers: consumers})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mkPool(t *testing.T, s *Shared[task], owner, producers int) *Pool[task] {
	t.Helper()
	p, err := s.NewPool(owner, 0, producers)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func prod(id int) *scpool.ProducerState { return &scpool.ProducerState{ID: id} }
func cons(id int) *scpool.ConsumerState { return &scpool.ConsumerState{ID: id} }

func TestProduceConsumeBasic(t *testing.T) {
	s := newFamily(t, 4, 1)
	p := mkPool(t, s, 0, 1)
	ps, cs := prod(0), cons(0)
	const n = 10
	for i := 0; i < n; i++ {
		p.ProduceForce(ps, &task{id: i})
	}
	for i := 0; i < n; i++ {
		got := p.Consume(cs)
		if got == nil || got.id != i {
			t.Fatalf("Consume %d = %v", i, got)
		}
	}
	if p.Consume(cs) != nil {
		t.Fatal("Consume after drain returned a task")
	}
	if !p.IsEmpty() {
		t.Fatal("drained pool not empty")
	}
}

func TestEveryTakeUsesOneCAS(t *testing.T) {
	s := newFamily(t, 100, 1)
	p := mkPool(t, s, 0, 1)
	ps, cs := prod(0), cons(0)
	const n = 300
	for i := 0; i < n; i++ {
		p.ProduceForce(ps, &task{id: i})
	}
	for i := 0; i < n; i++ {
		if p.Consume(cs) == nil {
			t.Fatalf("Consume %d failed", i)
		}
	}
	// This is the defining contrast with SALSA (Figure 1.5(b)):
	// exactly one successful CAS per uncontended retrieval.
	if cs.Ops.CAS.Load() != n {
		t.Errorf("CAS = %d, want %d (one per take)", cs.Ops.CAS.Load(), n)
	}
	if cs.Ops.FailedCAS.Load() != 0 {
		t.Errorf("FailedCAS = %d, want 0 uncontended", cs.Ops.FailedCAS.Load())
	}
}

func TestStealTakesSingleTask(t *testing.T) {
	s := newFamily(t, 8, 2)
	victim := mkPool(t, s, 0, 1)
	thief := mkPool(t, s, 1, 1)
	ps := prod(0)
	for i := 0; i < 8; i++ {
		victim.ProduceForce(ps, &task{id: i})
	}
	csT := cons(1)
	if got := thief.Steal(csT, victim); got == nil || got.id != 0 {
		t.Fatalf("Steal = %v, want task 0", got)
	}
	// Unlike SALSA, the remaining tasks stay in the victim's pool: the
	// thief's own Consume finds nothing.
	if got := thief.Consume(csT); got != nil {
		t.Fatalf("thief's pool should be empty, consumed %v", got)
	}
	if victim.IsEmpty() {
		t.Fatal("victim must retain the unstolen tasks")
	}
}

func TestChunkRecyclesToTaker(t *testing.T) {
	// §1.5.4's balancing property: the chunk goes to the pool of the
	// consumer that took its last task.
	s := newFamily(t, 4, 2)
	victim := mkPool(t, s, 0, 1)
	thief := mkPool(t, s, 1, 1)
	ps := prod(0)
	for i := 0; i < 4; i++ {
		victim.ProduceForce(ps, &task{id: i})
	}
	csT := cons(1)
	for i := 0; i < 4; i++ {
		if thief.Steal(csT, victim) == nil {
			t.Fatalf("steal %d failed", i)
		}
	}
	if thief.SpareChunks() != 1 {
		t.Errorf("thief SpareChunks = %d, want 1 (it drained the chunk)", thief.SpareChunks())
	}
	if victim.SpareChunks() != 0 {
		t.Errorf("victim SpareChunks = %d, want 0", victim.SpareChunks())
	}
}

func TestProduceFailsWithoutSpares(t *testing.T) {
	s := newFamily(t, 4, 1)
	p := mkPool(t, s, 0, 1)
	ps := prod(0)
	if p.Produce(ps, &task{}) {
		t.Fatal("Produce succeeded with no spare chunks")
	}
	p.ProduceForce(ps, &task{id: 1})
	if !p.Produce(ps, &task{id: 2}) {
		t.Fatal("Produce failed with a current chunk")
	}
}

func TestIndicatorClearedOnLastTake(t *testing.T) {
	s := newFamily(t, 4, 2)
	p := mkPool(t, s, 0, 1)
	p.ProduceForce(prod(0), &task{id: 1})
	p.SetIndicator(1)
	if p.Consume(cons(0)) == nil {
		t.Fatal("consume failed")
	}
	if p.CheckIndicator(1) {
		t.Fatal("indicator survived the last take")
	}
}

func TestConcurrentContendedTakes(t *testing.T) {
	// All consumers hammer the same victim — the high-contention regime
	// where SALSA+CAS degrades relative to SALSA but must stay correct.
	const (
		consumers = 4
		total     = 20000
	)
	s := newFamily(t, 32, consumers)
	victim := mkPool(t, s, 0, 1)
	pools := make([]*Pool[task], consumers)
	pools[0] = victim
	for i := 1; i < consumers; i++ {
		pools[i] = mkPool(t, s, i, 1)
	}

	var pwg sync.WaitGroup
	pwg.Add(1)
	go func() {
		defer pwg.Done()
		ps := prod(0)
		for i := 0; i < total; i++ {
			victim.ProduceForce(ps, &task{id: i})
		}
	}()

	results := make([][]*task, consumers)
	var cwg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < consumers; i++ {
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			cs := cons(i)
			// The owner consumes, everyone else steals from it. (The owner
			// must never Steal from its own pool: a task it took that way
			// and then overwrote with Consume's result would vanish.)
			take := func() *task {
				if i == 0 {
					return pools[0].Consume(cs)
				}
				return pools[i].Steal(cs, victim)
			}
			for {
				if tk := take(); tk != nil {
					results[i] = append(results[i], tk)
					continue
				}
				select {
				case <-stop:
					for tk := take(); tk != nil; tk = take() {
						results[i] = append(results[i], tk)
					}
					return
				default:
				}
			}
		}(i)
	}
	pwg.Wait()
	close(stop)
	cwg.Wait()

	seen := make(map[int]bool)
	count := 0
	for _, res := range results {
		for _, tk := range res {
			if seen[tk.id] {
				t.Fatalf("task %d taken twice", tk.id)
			}
			seen[tk.id] = true
			count++
		}
	}
	if count != total {
		t.Fatalf("took %d unique tasks, want %d", count, total)
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewShared[task](Options{Consumers: 0}); err == nil {
		t.Error("Consumers=0 accepted")
	}
	s := newFamily(t, 4, 1)
	if _, err := s.NewPool(9, 0, 1); err == nil {
		t.Error("out-of-range owner accepted")
	}
	p := mkPool(t, s, 0, 1)
	defer func() {
		if recover() == nil {
			t.Error("nil task accepted")
		}
	}()
	p.ProduceForce(prod(0), nil)
}
