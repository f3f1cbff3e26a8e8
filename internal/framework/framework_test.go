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

func newFW(t *testing.T, producers, consumers, chunk int, mutate func(*framework.Config[task])) *framework.Framework[task] {
	t.Helper()
	shared, err := core.NewShared[task](core.Options{ChunkSize: chunk, Consumers: consumers})
	if err != nil {
		t.Fatal(err)
	}
	cfg := framework.Config[task]{
		Producers: producers,
		Consumers: consumers,
		Placement: topology.Place(topology.Paper32(), producers, consumers, topology.PlaceInterleaved),
		NewPool: func(owner, node, prods int) (scpool.SCPool[task], error) {
			return shared.NewPool(owner, node, prods)
		},
	}
	if mutate != nil {
		mutate(&cfg)
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

// TestProducerBasedBalancing: with a tiny chunk budget, a producer whose
// nearest consumer is saturated must divert to other pools rather than
// expand the nearest one.
func TestProducerBasedBalancing(t *testing.T) {
	const chunk = 4
	fw := newFW(t, 1, 4, chunk, nil)
	p := fw.Producer(0)
	// No consumer ever runs: chunk pools stay empty, so each put after
	// the first forced chunk tests the access-list walk. All inserts
	// must land *somewhere* without panicking, and force-expansions go
	// to the closest pool only.
	for i := 0; i < chunk*8; i++ {
		p.Put(&task{seq: i})
	}
	ops := p.Ops()
	if ops.Puts != chunk*8 {
		t.Fatalf("Puts = %d, want %d", ops.Puts, chunk*8)
	}
	// Without any consumption there are no spare chunks anywhere, so
	// every new chunk is a forced allocation on the closest pool, and
	// produce() failures must have been recorded on the way.
	if ops.ProduceFull == 0 {
		t.Error("no produce() failures recorded; balancing never engaged")
	}
	if ops.ForcePuts == 0 {
		t.Error("no forced inserts recorded")
	}
}

// TestBalancingFollowsConsumptionRate: a fast consumer recycles more chunks
// into its pool, so producers should direct more tasks at it (§1.5.4).
func TestBalancingFollowsConsumptionRate(t *testing.T) {
	const chunk = 8
	fw := newFW(t, 1, 2, chunk, nil)
	p := fw.Producer(0)
	fast := fw.Consumer(0)
	slowIdx := 1
	_ = slowIdx // consumer 1 never consumes

	counts := [2]int{}
	for round := 0; round < 200; round++ {
		p.Put(&task{seq: round})
		// Fast consumer drains immediately, recycling chunks into its
		// own pool.
		if tk, ok := fast.TryGet(); ok {
			_ = tk
			counts[0]++
		}
	}
	if counts[0] == 0 {
		t.Fatal("fast consumer never got a task")
	}
	// The fast consumer's pool must have absorbed the bulk of traffic.
	s := fw.Stats()
	if s.ProduceFull == 0 && s.ForcePuts > 10 {
		t.Errorf("producer kept forcing (%d) without balancing attempts", s.ForcePuts)
	}
}

// TestDisableBalancing pins all inserts to the first pool.
func TestDisableBalancing(t *testing.T) {
	fw := newFW(t, 1, 4, 4, func(c *framework.Config[task]) { c.DisableBalancing = true })
	p := fw.Producer(0)
	for i := 0; i < 64; i++ {
		p.Put(&task{seq: i})
	}
	// All tasks must be drainable from exactly one pool without steals:
	// find it by consuming with its owner.
	total := 0
	for ci := 0; ci < 4; ci++ {
		c := fw.Consumer(ci)
		for {
			if _, ok := c.TryGet(); !ok {
				break
			}
			total++
		}
		snap := c.Ops()
		if ci == 0 && snap.Steals > 0 {
			// Consumer 0 may legitimately steal if the producer's
			// nearest pool is another consumer's; what matters is
			// below: a single pool held everything.
			_ = snap
		}
	}
	if total != 64 {
		t.Fatalf("drained %d, want 64", total)
	}
	// Every chunk was force-expanded on the single target pool; no other
	// pool was even tried, so failures == forced expansions (one probe
	// each), never more.
	s := fw.Stats()
	if s.ProduceFull > s.ForcePuts {
		t.Errorf("ProduceFull=%d > ForcePuts=%d: producer probed other pools despite DisableBalancing",
			s.ProduceFull, s.ForcePuts)
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
