package salsa_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"salsa"
)

type job struct {
	producer int
	seq      int
}

var allAlgorithms = []salsa.Algorithm{
	salsa.SALSA, salsa.SALSACAS, salsa.ConcBag, salsa.WSMSQ, salsa.WSLIFO,
}

func newPool(t testing.TB, alg salsa.Algorithm, producers, consumers, chunk int) *salsa.Pool[job] {
	t.Helper()
	p, err := salsa.New[job](salsa.Config{
		Producers:    producers,
		Consumers:    consumers,
		Algorithm:    alg,
		ChunkSize:    chunk,
		NUMANodes:    4,
		CoresPerNode: 4,
	})
	if err != nil {
		t.Fatalf("New(%v): %v", alg, err)
	}
	return p
}

// TestAllAlgorithmsSequential drains a single-threaded put/get sequence on
// every implementation, checking uniqueness, completeness and final
// emptiness.
func TestAllAlgorithmsSequential(t *testing.T) {
	for _, alg := range allAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			pool := newPool(t, alg, 2, 2, 16)
			const n = 500
			for i := 0; i < n; i++ {
				pool.Producer(i % 2).Put(&job{producer: i % 2, seq: i})
			}
			seen := make(map[int]bool, n)
			for i := 0; i < n; i++ {
				c := pool.Consumer(i % 2)
				j, ok := c.Get()
				if !ok {
					t.Fatalf("Get %d/%d reported empty", i, n)
				}
				if seen[j.seq] {
					t.Fatalf("task %d returned twice", j.seq)
				}
				seen[j.seq] = true
			}
			for ci := 0; ci < 2; ci++ {
				if _, ok := pool.Consumer(ci).Get(); ok {
					t.Fatalf("consumer %d found a task after drain", ci)
				}
			}
		})
	}
}

// TestAllAlgorithmsConcurrent hammers every implementation with concurrent
// producers and consumers and verifies no task is lost or duplicated.
func TestAllAlgorithmsConcurrent(t *testing.T) {
	const (
		producers = 3
		consumers = 3
		perProd   = 4000
	)
	for _, alg := range allAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			pool := newPool(t, alg, producers, consumers, 32)
			var done atomic.Bool
			var pwg sync.WaitGroup
			for i := 0; i < producers; i++ {
				pwg.Add(1)
				go func(id int) {
					defer pwg.Done()
					p := pool.Producer(id)
					for s := 0; s < perProd; s++ {
						p.Put(&job{producer: id, seq: s})
					}
				}(i)
			}
			go func() { pwg.Wait(); done.Store(true) }()

			results := make([][]*job, consumers)
			var cwg sync.WaitGroup
			for i := 0; i < consumers; i++ {
				cwg.Add(1)
				go func(id int) {
					defer cwg.Done()
					c := pool.Consumer(id)
					for {
						// Snapshot done *before* the Get: a ⊥ whose
						// emptiness instant falls after all Puts have
						// completed is final; a ⊥ that merely precedes
						// a late Put is not.
						wasDone := done.Load()
						j, ok := c.Get()
						if ok {
							results[id] = append(results[id], j)
							continue
						}
						if wasDone {
							return
						}
					}
				}(i)
			}
			cwg.Wait()

			seen := make(map[job]bool, producers*perProd)
			for _, res := range results {
				for _, j := range res {
					if seen[*j] {
						t.Fatalf("%v: task %+v returned twice", alg, *j)
					}
					seen[*j] = true
				}
			}
			if len(seen) != producers*perProd {
				t.Fatalf("%v: lost tasks: got %d want %d", alg, len(seen), producers*perProd)
			}
		})
	}
}

// TestStatsAccounting sanity-checks the operation census: puts and gets
// must match the workload, and SALSA retrievals must be dominated by the
// CAS-free fast path.
func TestStatsAccounting(t *testing.T) {
	pool := newPool(t, salsa.SALSA, 1, 1, 64)
	p, c := pool.Producer(0), pool.Consumer(0)
	const n = 1000
	for i := 0; i < n; i++ {
		p.Put(&job{seq: i})
	}
	for i := 0; i < n; i++ {
		if _, ok := c.Get(); !ok {
			t.Fatalf("unexpected empty at %d", i)
		}
	}
	s := pool.Stats()
	if s.Puts != n {
		t.Errorf("Puts = %d, want %d", s.Puts, n)
	}
	if s.Gets != n {
		t.Errorf("Gets = %d, want %d", s.Gets, n)
	}
	if s.FastPath != n {
		t.Errorf("FastPath = %d, want %d (single consumer never loses its chunks)", s.FastPath, n)
	}
	if s.CAS != 0 {
		t.Errorf("CAS = %d, want 0 on the uncontended SALSA fast path", s.CAS)
	}
	if got := s.CASPerGet(); got != 0 {
		t.Errorf("CASPerGet = %v, want 0", got)
	}
}

// TestAccessListsAreNUMASorted verifies the policy wiring end to end: a
// producer's first-choice consumer must be on its own node.
func TestAccessListsAreNUMASorted(t *testing.T) {
	pool := newPool(t, salsa.SALSA, 8, 8, 64)
	for i := 0; i < 8; i++ {
		al := pool.ProducerAccessList(i)
		if len(al) != 8 {
			t.Fatalf("producer %d access list has %d entries", i, len(al))
		}
		first := pool.Consumer(al[0])
		prod := pool.Producer(i)
		if first.Node() != prod.Node() {
			t.Errorf("producer %d (node %d) prefers consumer %d (node %d); want same node",
				i, prod.Node(), first.ID(), first.Node())
		}
	}
}

func ExampleNew() {
	pool, err := salsa.New[job](salsa.Config{Producers: 1, Consumers: 1})
	if err != nil {
		panic(err)
	}
	pool.Producer(0).Put(&job{seq: 42})
	j, ok := pool.Consumer(0).Get()
	fmt.Println(j.seq, ok)
	// Output: 42 true
}
