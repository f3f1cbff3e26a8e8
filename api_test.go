package salsa_test

import (
	"testing"

	"salsa"
)

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  salsa.Config
	}{
		{"no producers", salsa.Config{Producers: 0, Consumers: 1}},
		{"no consumers", salsa.Config{Producers: 1, Consumers: 0}},
		{"negative producers", salsa.Config{Producers: -1, Consumers: 1}},
		{"nodes without cores", salsa.Config{Producers: 1, Consumers: 1, NUMANodes: 2}},
		{"cores without nodes", salsa.Config{Producers: 1, Consumers: 1, CoresPerNode: 2}},
		{"bogus algorithm", salsa.Config{Producers: 1, Consumers: 1, Algorithm: salsa.Algorithm(99)}},
		{"first unassigned algorithm", salsa.Config{Producers: 1, Consumers: 1, Algorithm: salsa.Algorithm(5)}},
		{"bogus placement", salsa.Config{Producers: 1, Consumers: 1, Placement: salsa.Placement(99)}},
	}
	for _, c := range cases {
		if _, err := salsa.New[job](c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	want := map[salsa.Algorithm]string{
		salsa.SALSA:         "SALSA",
		salsa.SALSACAS:      "SALSA+CAS",
		salsa.ConcBag:       "ConcBag",
		salsa.WSMSQ:         "WS-MSQ",
		salsa.WSLIFO:        "WS-LIFO",
		salsa.Algorithm(42): "Algorithm(42)",
	}
	for alg, s := range want {
		if alg.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(alg), alg.String(), s)
		}
	}
}

func TestHandlesAreStable(t *testing.T) {
	pool := newPool(t, salsa.SALSA, 2, 2, 8)
	if pool.Producer(1) != pool.Producer(1) {
		t.Error("Producer(i) must return a stable handle")
	}
	if pool.Consumer(0) != pool.Consumer(0) {
		t.Error("Consumer(i) must return a stable handle")
	}
	if pool.Producer(1).ID() != 1 || pool.Consumer(1).ID() != 1 {
		t.Error("handle ids wrong")
	}
}

func TestPoolAccessors(t *testing.T) {
	pool := newPool(t, salsa.SALSACAS, 3, 2, 8)
	if pool.NumProducers() != 3 || pool.NumConsumers() != 2 {
		t.Errorf("counts %d/%d", pool.NumProducers(), pool.NumConsumers())
	}
	if pool.Algorithm() != salsa.SALSACAS {
		t.Errorf("Algorithm = %v", pool.Algorithm())
	}
	al := pool.ConsumerAccessList(0)
	if len(al) != 1 || al[0] != 1 {
		t.Errorf("ConsumerAccessList(0) = %v, want [1]", al)
	}
	pl := pool.ProducerAccessList(1)
	if len(pl) != 2 {
		t.Errorf("ProducerAccessList(1) = %v", pl)
	}
	// Returned slices are copies: mutating them must not corrupt state.
	pl[0] = 99
	if pool.ProducerAccessList(1)[0] == 99 {
		t.Error("ProducerAccessList returned internal state")
	}
}

func TestTryGetSemantics(t *testing.T) {
	pool := newPool(t, salsa.SALSA, 1, 1, 8)
	c := pool.Consumer(0)
	if _, ok := c.TryGet(); ok {
		t.Fatal("TryGet on empty pool returned a task")
	}
	pool.Producer(0).Put(&job{seq: 1})
	if j, ok := c.TryGet(); !ok || j.seq != 1 {
		t.Fatalf("TryGet = %v,%v", j, ok)
	}
}

func TestPinSmoke(t *testing.T) {
	pool := newPool(t, salsa.SALSA, 1, 1, 8)
	p, c := pool.Producer(0), pool.Consumer(0)
	// On a small host Pin may be clamped (returns false) — it must not
	// panic or wedge either way, and the pool must keep working.
	p.Pin()
	c.Pin()
	p.Put(&job{seq: 1})
	if _, ok := c.Get(); !ok {
		t.Fatal("pool broken after Pin")
	}
	p.Unpin()
	c.Unpin()
}

func TestConsumerCloseIsIdempotent(t *testing.T) {
	pool := newPool(t, salsa.SALSA, 1, 1, 8)
	c := pool.Consumer(0)
	pool.Producer(0).Put(&job{seq: 1})
	if _, ok := c.Get(); !ok {
		t.Fatal("Get failed")
	}
	c.Close()
	c.Close() // second close must be a no-op
}

func TestStatsZeroOnFreshPool(t *testing.T) {
	pool := newPool(t, salsa.WSLIFO, 1, 1, 8)
	s := pool.Stats()
	if s.Puts != 0 || s.Gets != 0 || s.CAS != 0 {
		t.Errorf("fresh pool has non-zero stats: %+v", s)
	}
}

func TestNodeAccessors(t *testing.T) {
	pool := newPool(t, salsa.SALSA, 4, 4, 8) // 4 nodes x 4 cores topology
	seenNodes := map[int]bool{}
	for i := 0; i < 4; i++ {
		seenNodes[pool.Consumer(i).Node()] = true
		if n := pool.Producer(i).Node(); n < 0 || n >= 4 {
			t.Errorf("producer %d on bogus node %d", i, n)
		}
	}
	if len(seenNodes) < 2 {
		t.Errorf("interleaved placement put all consumers on %d node(s)", len(seenNodes))
	}
}

func TestChunkSizeOne(t *testing.T) {
	// Degenerate chunk size: every task is its own chunk; recycling and
	// checkLast fire on every single take.
	pool, err := salsa.New[job](salsa.Config{
		Producers: 1, Consumers: 2, Algorithm: salsa.SALSA, ChunkSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := pool.Producer(0)
	for i := 0; i < 100; i++ {
		p.Put(&job{seq: i})
	}
	got := 0
	for ci := 0; ci < 2; ci++ {
		c := pool.Consumer(ci)
		for {
			if _, ok := c.Get(); !ok {
				break
			}
			got++
		}
	}
	if got != 100 {
		t.Fatalf("drained %d of 100 with chunk size 1", got)
	}
}

func TestLargeChunkSize(t *testing.T) {
	pool, err := salsa.New[job](salsa.Config{
		Producers: 1, Consumers: 1, Algorithm: salsa.SALSA, ChunkSize: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, c := pool.Producer(0), pool.Consumer(0)
	for i := 0; i < 1000; i++ {
		p.Put(&job{seq: i})
	}
	for i := 0; i < 1000; i++ {
		if _, ok := c.Get(); !ok {
			t.Fatalf("Get %d failed", i)
		}
	}
}

func TestManyConsumersFewProducers(t *testing.T) {
	pool := newPool(t, salsa.SALSA, 1, 8, 16)
	p := pool.Producer(0)
	const n = 400
	for i := 0; i < n; i++ {
		p.Put(&job{seq: i})
	}
	seen := map[int]bool{}
	for ci := 0; ci < 8; ci++ {
		c := pool.Consumer(ci)
		for {
			j, ok := c.Get()
			if !ok {
				break
			}
			if seen[j.seq] {
				t.Fatalf("duplicate %d", j.seq)
			}
			seen[j.seq] = true
		}
	}
	if len(seen) != n {
		t.Fatalf("drained %d of %d", len(seen), n)
	}
}

func TestPutPanicsOnNil(t *testing.T) {
	pool := newPool(t, salsa.SALSA, 1, 1, 8)
	defer func() {
		if recover() == nil {
			t.Error("nil Put accepted")
		}
	}()
	pool.Producer(0).Put(nil)
}

func TestReinsertionAfterConsumption(t *testing.T) {
	// A pointer may be recirculated once consumed (documented API
	// property; the uniqueness assumption is about *live* tasks).
	pool := newPool(t, salsa.SALSA, 1, 1, 4)
	p, c := pool.Producer(0), pool.Consumer(0)
	j := &job{seq: 7}
	for round := 0; round < 1000; round++ {
		p.Put(j)
		got, ok := c.Get()
		if !ok || got != j {
			t.Fatalf("round %d: got %v,%v", round, got, ok)
		}
	}
}
