package framework_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"salsa/internal/core"
	"salsa/internal/framework"
	"salsa/internal/scpool"
	"salsa/internal/topology"
)

// newFW builds a SALSA-backed framework on the paper's 32-core topology;
// mutate may adjust the config (the SCPool family is sized for its
// MaxConsumers) before construction.
func newFW(t *testing.T, producers, consumers, chunk int, mutate func(*framework.Config[task])) *framework.Framework[task] {
	t.Helper()
	cfg := framework.Config[task]{
		Producers: producers,
		Consumers: consumers,
		Placement: topology.Place(topology.Paper32(), producers, consumers, topology.PlaceInterleaved),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	shared, err := core.NewShared[task](core.Options{ChunkSize: chunk, Consumers: max(consumers, cfg.MaxConsumers)})
	if err != nil {
		t.Fatal(err)
	}
	cfg.NewPool = func(owner, node, prods int) (scpool.SCPool[task], error) {
		return shared.NewPool(owner, node, prods)
	}
	fw, err := framework.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

func TestConfigValidation(t *testing.T) {
	if _, err := framework.New(framework.Config[task]{Producers: 0, Consumers: 1}); err == nil {
		t.Error("Producers=0 accepted")
	}
	if _, err := framework.New(framework.Config[task]{Producers: 1, Consumers: 1}); err == nil {
		t.Error("missing factory accepted")
	}
}

func TestDefaultPlacementIsUMA(t *testing.T) {
	shared, _ := core.NewShared[task](core.Options{ChunkSize: 8, Consumers: 2})
	fw, err := framework.New(framework.Config[task]{
		Producers: 2, Consumers: 2,
		NewPool: func(owner, node, prods int) (scpool.SCPool[task], error) {
			return shared.NewPool(owner, node, prods)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fw.Placement().Topo.NumNodes() != 1 {
		t.Errorf("default topology has %d nodes, want 1", fw.Placement().Topo.NumNodes())
	}
}

// TestCheckEmptyAdversarial reproduces Figure 1.3: a task bounces between
// pools while a consumer probes for emptiness; the probe must never return
// "empty" while a task is always present somewhere.
func TestCheckEmptyAdversarial(t *testing.T) {
	fw := newFW(t, 2, 2, 2, nil)
	var stop atomic.Bool
	var wg sync.WaitGroup

	// The "bouncer": keeps exactly one task in flight, alternating the
	// pool it inserts to, consuming it back immediately.
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := fw.Producer(0)
		c := fw.Consumer(0)
		i := 0
		for !stop.Load() {
			p.Put(&task{seq: i})
			for {
				if _, ok := c.TryGet(); ok {
					break
				}
			}
			i++
		}
	}()

	// The prober: consumer 1 calls Get. Every ⊥ answer must be
	// linearizable: since the bouncer holds the invariant "at most one
	// task, sometimes zero" — zero *is* reachable between Put and
	// TryGet, so ⊥ is legal; what we verify is that Get never *steals*
	// the bouncer's task and never wedges.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := fw.Consumer(1)
		for !stop.Load() {
			if tk, ok := c.Get(); ok {
				// Legal: consumer 1 may win the race for the task.
				// Hand it back so the bouncer can finish its drain.
				fw.Producer(1).Put(tk)
			}
		}
	}()

	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
}

// TestGetEmptyIsStable: after a full drain with no producers, every
// consumer's Get must report empty, repeatedly.
func TestGetEmptyIsStable(t *testing.T) {
	fw := newFW(t, 2, 3, 8, nil)
	for i := 0; i < 100; i++ {
		fw.Producer(i % 2).Put(&task{seq: i})
	}
	got := 0
	for ci := 0; ci < 3; ci++ {
		c := fw.Consumer(ci)
		for {
			if _, ok := c.Get(); !ok {
				break
			}
			got++
		}
	}
	if got != 100 {
		t.Fatalf("drained %d, want 100", got)
	}
	for round := 0; round < 5; round++ {
		for ci := 0; ci < 3; ci++ {
			if _, ok := fw.Consumer(ci).Get(); ok {
				t.Fatal("Get found a task in a drained system")
			}
		}
	}
}

// TestStalledConsumerDoesNotBlockOthers injects the paper's robustness
// scenario (§1.1): one consumer stalls forever while producers keep
// inserting; the remaining consumers must drain everything via balancing
// and stealing.
func TestStalledConsumerDoesNotBlockOthers(t *testing.T) {
	const total = 10000
	fw := newFW(t, 2, 4, 16, nil)
	// Consumer 0 is stalled: never calls Get.
	var wg sync.WaitGroup
	for pi := 0; pi < 2; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			p := fw.Producer(pi)
			for i := 0; i < total/2; i++ {
				p.Put(&task{producer: pi, seq: i})
			}
		}(pi)
	}
	var done atomic.Bool
	go func() { wg.Wait(); done.Store(true) }()

	var got atomic.Int64
	var cwg sync.WaitGroup
	for ci := 1; ci < 4; ci++ {
		cwg.Add(1)
		go func(ci int) {
			defer cwg.Done()
			c := fw.Consumer(ci)
			for {
				wasDone := done.Load()
				if _, ok := c.Get(); ok {
					got.Add(1)
					continue
				}
				if wasDone {
					return
				}
			}
		}(ci)
	}
	cwg.Wait()
	if got.Load() != total {
		t.Fatalf("live consumers drained %d of %d tasks around the stalled one", got.Load(), total)
	}
}

// TestNonLinearizableEmpty returns ⊥ quickly without the protocol.
func TestNonLinearizableEmpty(t *testing.T) {
	fw := newFW(t, 1, 2, 8, func(c *framework.Config[task]) { c.NonLinearizableEmpty = true })
	if _, ok := fw.Consumer(0).Get(); ok {
		t.Fatal("empty pool returned a task")
	}
	fw.Producer(0).Put(&task{seq: 5})
	drained := false
	for ci := 0; ci < 2 && !drained; ci++ {
		if _, ok := fw.Consumer(ci).Get(); ok {
			drained = true
		}
	}
	if !drained {
		t.Fatal("task not retrievable in non-linearizable mode")
	}
}

// TestStatsPlumbing: framework-level aggregation covers both handles.
func TestStatsPlumbing(t *testing.T) {
	fw := newFW(t, 2, 2, 8, nil)
	fw.Producer(0).Put(&task{seq: 0})
	fw.Producer(1).Put(&task{seq: 1})
	c := fw.Consumer(0)
	for {
		if _, ok := c.Get(); !ok {
			break
		}
	}
	s := fw.Stats()
	if s.Puts != 2 || s.Gets != 2 {
		t.Fatalf("Puts/Gets = %d/%d, want 2/2", s.Puts, s.Gets)
	}
	if s.GetsEmpty == 0 {
		t.Error("final empty Get not recorded")
	}
}
