package framework_test

import (
	"sync"
	"testing"

	"salsa/internal/core"
	"salsa/internal/framework"
	"salsa/internal/membership"
	"salsa/internal/scpool"
	"salsa/internal/topology"
)

// newElasticFW builds a framework with headroom for maxConsumers ids; the
// SALSA family is sized to the capacity, as salsa.Config does it.
func newElasticFW(t *testing.T, producers, consumers, maxConsumers, chunk int) *framework.Framework[task] {
	t.Helper()
	return newFW(t, producers, consumers, chunk, func(c *framework.Config[task]) { c.MaxConsumers = maxConsumers })
}

func TestAddConsumerJoinsLiveSet(t *testing.T) {
	fw := newElasticFW(t, 1, 1, 4, 4)
	if got := fw.MembershipEpoch(); got != 0 {
		t.Fatalf("initial epoch = %d", got)
	}
	co, err := fw.AddConsumer()
	if err != nil {
		t.Fatalf("AddConsumer: %v", err)
	}
	if co.ID() != 1 {
		t.Fatalf("new consumer id = %d, want 1", co.ID())
	}
	if got := fw.MembershipEpoch(); got != 1 {
		t.Fatalf("epoch after join = %d, want 1", got)
	}
	if got := fw.LiveConsumers(); got != 2 {
		t.Fatalf("LiveConsumers = %d, want 2", got)
	}
	if got := fw.NumConsumers(); got != 2 {
		t.Fatalf("NumConsumers = %d, want 2", got)
	}

	// The new consumer participates fully: it can drain tasks the
	// producer routed anywhere, including ones inserted before the join.
	pr := fw.Producer(0)
	want := make(map[*task]bool)
	for i := 0; i < 40; i++ {
		tk := &task{seq: i}
		want[tk] = true
		pr.Put(tk)
	}
	for len(want) > 0 {
		tk, ok := co.Get()
		if !ok {
			t.Fatalf("Get reported empty with %d tasks outstanding", len(want))
		}
		if !want[tk] {
			t.Fatalf("task %d unknown or consumed twice", tk.seq)
		}
		delete(want, tk)
	}
	if _, ok := co.Get(); ok {
		t.Fatal("Get returned a task from a drained system")
	}
}

func TestAddConsumerCapacityExhausted(t *testing.T) {
	fw := newElasticFW(t, 1, 1, 2, 4)
	if _, err := fw.AddConsumer(); err != nil {
		t.Fatalf("AddConsumer within capacity: %v", err)
	}
	if _, err := fw.AddConsumer(); err == nil {
		t.Fatal("AddConsumer beyond MaxConsumers succeeded")
	}
}

func TestRetireConsumerReclaimsTasks(t *testing.T) {
	fw := newElasticFW(t, 1, 2, 2, 4)
	pr, victim, survivor := fw.Producer(0), fw.Consumer(0), fw.Consumer(1)

	// Fill both pools, then retire consumer 0 with tasks still queued.
	want := make(map[*task]bool)
	for i := 0; i < 60; i++ {
		tk := &task{seq: i}
		want[tk] = true
		pr.Put(tk)
	}
	if err := fw.RetireConsumer(victim.ID()); err != nil {
		t.Fatalf("RetireConsumer: %v", err)
	}
	if got := fw.LiveConsumers(); got != 1 {
		t.Fatalf("LiveConsumers after retire = %d, want 1", got)
	}
	if !fw.ConsumerDeparted(0) || fw.ConsumerDeparted(1) {
		t.Fatal("ConsumerDeparted flags wrong")
	}
	if !victim.Departed() {
		t.Fatal("retired handle not flagged departed")
	}

	// The survivor reclaims every task exactly once, then observes a
	// linearizable empty — which must account for the abandoned pool.
	for len(want) > 0 {
		tk, ok := survivor.Get()
		if !ok {
			t.Fatalf("Get reported empty with %d tasks outstanding", len(want))
		}
		if !want[tk] {
			t.Fatalf("task %d unknown or consumed twice", tk.seq)
		}
		delete(want, tk)
	}
	if _, ok := survivor.Get(); ok {
		t.Fatal("Get returned a task from a drained system")
	}

	// Producers no longer route to the abandoned pool...
	pr.Put(&task{seq: 1000})
	if tk, ok := survivor.TryGet(); !ok || tk.seq != 1000 {
		t.Fatalf("post-retire Put not retrievable by survivor (ok=%v)", ok)
	}
	// ...and the retired handle refuses to run.
	defer func() {
		if recover() == nil {
			t.Fatal("Get on a retired handle did not panic")
		}
	}()
	victim.Get()
}

func TestRetireDrainsSparesToSurvivor(t *testing.T) {
	chunk := 4
	shared, err := core.NewShared[task](core.Options{ChunkSize: chunk, Consumers: 3, InitialChunks: 5})
	if err != nil {
		t.Fatal(err)
	}
	fw, err := framework.New(framework.Config[task]{
		Producers: 1, Consumers: 3,
		Placement: topology.Place(topology.Paper32(), 1, 3, topology.PlaceInterleaved),
		NewPool: func(owner, node, prods int) (scpool.SCPool[task], error) {
			return shared.NewPool(owner, node, prods)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.RetireConsumer(2); err != nil {
		t.Fatalf("RetireConsumer: %v", err)
	}
	if got := fw.SparesDrained(); got != 5 {
		t.Fatalf("SparesDrained = %d, want 5", got)
	}
	if got := scpool.VisibleTasks[task](fw.Pool(2)); got != 0 {
		t.Fatalf("abandoned pool reports %d visible tasks", got)
	}
}

func TestLastLiveConsumerCannotRetire(t *testing.T) {
	fw := newElasticFW(t, 1, 1, 2, 4)
	if err := fw.RetireConsumer(0); err == nil {
		t.Fatal("retiring the last live consumer succeeded")
	}
	if err := fw.KillConsumer(0); err == nil {
		t.Fatal("killing the last live consumer succeeded")
	}
	if st := fw.Registry().State(0); st != membership.Live {
		t.Fatalf("consumer 0 state = %v after refused departures", st)
	}
}

func TestKillConsumerSurvivorsDrainEverything(t *testing.T) {
	fw := newElasticFW(t, 2, 3, 3, 4)
	pr0, pr1 := fw.Producer(0), fw.Producer(1)

	var mu sync.Mutex
	want := make(map[*task]bool)
	for i := 0; i < 90; i++ {
		tk := &task{seq: i}
		want[tk] = true
		if i%2 == 0 {
			pr0.Put(tk)
		} else {
			pr1.Put(tk)
		}
	}
	// Kill consumer 1 without any cooperation: it never ran, so it is
	// quiescent and no task may be lost.
	if err := fw.KillConsumer(1); err != nil {
		t.Fatalf("KillConsumer: %v", err)
	}
	if st := fw.Registry().State(1); st != membership.Crashed {
		t.Fatalf("killed consumer state = %v", st)
	}

	// Survivors 0 and 2 drain concurrently; every task exactly once.
	var wg sync.WaitGroup
	for _, id := range []int{0, 2} {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			co := fw.Consumer(id)
			for {
				tk, ok := co.Get()
				if !ok {
					return
				}
				mu.Lock()
				if !want[tk] {
					mu.Unlock()
					panic("task unknown or consumed twice")
				}
				delete(want, tk)
				mu.Unlock()
			}
		}(id)
	}
	wg.Wait()
	if len(want) != 0 {
		t.Fatalf("%d tasks lost after kill", len(want))
	}
}

func TestChurnAddRetireCycles(t *testing.T) {
	fw := newElasticFW(t, 1, 1, 8, 4)
	pr := fw.Producer(0)
	alive := []int{0}
	for cycle := 0; cycle < 7; cycle++ {
		co, err := fw.AddConsumer()
		if err != nil {
			t.Fatalf("cycle %d AddConsumer: %v", cycle, err)
		}
		alive = append(alive, co.ID())
		// Retire the older consumer, keeping exactly one live.
		if err := fw.RetireConsumer(alive[0]); err != nil {
			t.Fatalf("cycle %d RetireConsumer(%d): %v", cycle, alive[0], err)
		}
		alive = alive[1:]
		for i := 0; i < 10; i++ {
			pr.Put(&task{seq: cycle*10 + i})
		}
		got := 0
		for {
			if _, ok := co.Get(); !ok {
				break
			}
			got++
		}
		if got != 10 {
			t.Fatalf("cycle %d: drained %d tasks, want 10", cycle, got)
		}
	}
	if got := fw.MembershipEpoch(); got != 14 {
		t.Fatalf("epoch after 7 add+retire cycles = %d, want 14", got)
	}
	if got := fw.LiveConsumers(); got != 1 {
		t.Fatalf("LiveConsumers = %d, want 1", got)
	}
}
