package framework_test

import (
	"sync"
	"sync/atomic"
	"testing"
)

type task struct {
	producer int
	seq      int
}

func TestSingleProducerSingleConsumerFIFOish(t *testing.T) {
	fw := newFW(t, 1, 1, 8, nil)
	p, c := fw.Producer(0), fw.Consumer(0)
	const n = 100
	for i := 0; i < n; i++ {
		p.Put(&task{producer: 0, seq: i})
	}
	seen := make(map[int]bool)
	for i := 0; i < n; i++ {
		tk, ok := c.Get()
		if !ok {
			t.Fatalf("Get %d returned empty", i)
		}
		if seen[tk.seq] {
			t.Fatalf("task %d returned twice", tk.seq)
		}
		seen[tk.seq] = true
	}
	if _, ok := c.Get(); ok {
		t.Fatalf("expected empty pool after draining")
	}
}

func TestStealingDrainsForeignPool(t *testing.T) {
	// Producer 0's access list starts at some consumer; the OTHER
	// consumer must still be able to drain everything via stealing.
	fw := newFW(t, 1, 2, 4, nil)
	p := fw.Producer(0)
	const n = 64
	for i := 0; i < n; i++ {
		p.Put(&task{seq: i})
	}
	// Use only consumer 1 — at least part of the tasks will be in
	// consumer 0's (or 1's) pool, so this exercises chunk stealing in
	// one direction or the other.
	c := fw.Consumer(1)
	seen := make(map[int]bool)
	for i := 0; i < n; i++ {
		tk, ok := c.Get()
		if !ok {
			t.Fatalf("Get %d reported empty with %d tasks outstanding", i, n-i)
		}
		if seen[tk.seq] {
			t.Fatalf("task %d returned twice", tk.seq)
		}
		seen[tk.seq] = true
	}
	if _, ok := c.Get(); ok {
		t.Fatal("expected empty after drain")
	}
}

func TestConcurrentUniqueAndComplete(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 5000
	)
	fw := newFW(t, producers, consumers, 64, nil)
	var producersDone atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := fw.Producer(id)
			for s := 0; s < perProd; s++ {
				p.Put(&task{producer: id, seq: s})
			}
		}(i)
	}

	results := make([][]*task, consumers)
	var cwg sync.WaitGroup
	for i := 0; i < consumers; i++ {
		cwg.Add(1)
		go func(id int) {
			defer cwg.Done()
			c := fw.Consumer(id)
			emptyStreak := 0
			for {
				tk, ok := c.Get()
				if ok {
					results[id] = append(results[id], tk)
					emptyStreak = 0
					continue
				}
				// Producers may still be running; only stop after
				// they are done AND the pool looks empty.
				emptyStreak++
				if emptyStreak > 2 && producersDone.Load() {
					return
				}
			}
		}(i)
	}
	go func() {
		wg.Wait()
		producersDone.Store(true)
	}()
	cwg.Wait()

	seen := make(map[task]bool)
	total := 0
	for _, res := range results {
		for _, tk := range res {
			if seen[*tk] {
				t.Fatalf("task %+v returned twice", *tk)
			}
			seen[*tk] = true
			total++
		}
	}
	if total != producers*perProd {
		t.Fatalf("lost tasks: got %d want %d", total, producers*perProd)
	}
}
