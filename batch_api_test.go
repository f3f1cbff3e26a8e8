package salsa_test

import (
	"sync"
	"testing"

	"salsa"
)

// TestBatchRoundTripAllAlgorithms exercises PutBatch/GetBatch on every
// substrate. SALSA runs the native amortized paths; the others go through
// the generic per-task fallback — either way the batched calls must be
// semantically equivalent to per-task Put/Get: no task lost, none
// duplicated.
func TestBatchRoundTripAllAlgorithms(t *testing.T) {
	const (
		producers = 2
		consumers = 2
		perProd   = 500
		batch     = 32 // spans several size-8 chunks per call
	)
	for _, alg := range allAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			pool := newPool(t, alg, producers, consumers, 8)

			var pwg sync.WaitGroup
			for pi := 0; pi < producers; pi++ {
				pwg.Add(1)
				go func(pi int) {
					defer pwg.Done()
					p := pool.Producer(pi)
					for s := 0; s < perProd; s += batch {
						n := batch
						if s+n > perProd {
							n = perProd - s
						}
						buf := make([]*job, n)
						for i := range buf {
							buf[i] = &job{producer: pi, seq: s + i}
						}
						p.PutBatch(buf)
					}
				}(pi)
			}
			pwg.Wait()

			var mu sync.Mutex
			seen := make(map[[2]int]bool)
			var cwg sync.WaitGroup
			for ci := 0; ci < consumers; ci++ {
				cwg.Add(1)
				go func(ci int) {
					defer cwg.Done()
					c := pool.Consumer(ci)
					defer c.Close()
					dst := make([]*job, batch)
					for {
						n := c.GetBatch(dst)
						if n == 0 {
							return // linearizable empty: production is done
						}
						mu.Lock()
						for _, j := range dst[:n] {
							k := [2]int{j.producer, j.seq}
							if seen[k] {
								t.Errorf("duplicate task %v", k)
							}
							seen[k] = true
						}
						mu.Unlock()
					}
				}(ci)
			}
			cwg.Wait()
			if len(seen) != producers*perProd {
				t.Fatalf("drained %d of %d tasks", len(seen), producers*perProd)
			}
		})
	}
}

// TestGetBatchEmptySemantics: GetBatch and TryGetBatch return 0 on an
// empty pool (the same contract as Get's ok=false / TryGet), and a batch
// larger than the pool's content returns the partial count.
func TestGetBatchEmptySemantics(t *testing.T) {
	for _, alg := range allAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			pool := newPool(t, alg, 1, 1, 8)
			c := pool.Consumer(0)
			dst := make([]*job, 16)
			if n := c.TryGetBatch(dst); n != 0 {
				t.Fatalf("TryGetBatch on empty pool = %d", n)
			}
			if n := c.GetBatch(dst); n != 0 {
				t.Fatalf("GetBatch on empty pool = %d", n)
			}
			pool.Producer(0).PutBatch([]*job{{seq: 0}, {seq: 1}, {seq: 2}})
			if n := c.GetBatch(dst); n != 3 {
				t.Fatalf("GetBatch = %d, want the partial fill 3", n)
			}
			// Pools are unordered in general (WS-LIFO reverses): check
			// the set, not the sequence.
			got := map[int]bool{}
			for _, j := range dst[:3] {
				got[j.seq] = true
			}
			if len(got) != 3 || !got[0] || !got[1] || !got[2] {
				t.Fatalf("GetBatch returned %v, want {0,1,2}", got)
			}
			if n := c.GetBatch(dst); n != 0 {
				t.Fatalf("GetBatch after drain = %d", n)
			}
		})
	}
}

// TestBatchDegenerateSizes: empty and single-element batches behave like
// no-ops and plain Put/Get respectively, and GetBatch into a zero-length
// dst returns 0 without touching the pool.
func TestBatchDegenerateSizes(t *testing.T) {
	pool := newPool(t, salsa.SALSA, 1, 1, 8)
	p, c := pool.Producer(0), pool.Consumer(0)
	p.PutBatch(nil)
	p.PutBatch([]*job{})
	if n := c.TryGetBatch(nil); n != 0 {
		t.Fatalf("TryGetBatch(nil) = %d", n)
	}
	p.PutBatch([]*job{{seq: 42}})
	if n := c.GetBatch(make([]*job, 0)); n != 0 {
		t.Fatalf("GetBatch(empty dst) = %d", n)
	}
	j, ok := c.Get()
	if !ok || j.seq != 42 {
		t.Fatalf("Get after zero-length GetBatch = %v,%v", j, ok)
	}
}

// TestBatchInteropWithSingleOps mixes batched producers with single-task
// consumers and vice versa: the batch API is a view over the same pool,
// not a separate channel.
func TestBatchInteropWithSingleOps(t *testing.T) {
	for _, alg := range []salsa.Algorithm{salsa.SALSA, salsa.SALSACAS, salsa.WSMSQ} {
		t.Run(alg.String(), func(t *testing.T) {
			pool := newPool(t, alg, 1, 1, 8)
			p, c := pool.Producer(0), pool.Consumer(0)
			const n = 100
			buf := make([]*job, n)
			for i := range buf {
				buf[i] = &job{seq: i}
			}
			p.PutBatch(buf)
			// Drain the batched insert with single-task Gets.
			for i := 0; i < n; i++ {
				j, ok := c.Get()
				if !ok {
					t.Fatalf("Get %d failed after PutBatch", i)
				}
				if alg == salsa.SALSA && j.seq != i {
					t.Fatalf("FIFO order broken: got %d at %d", j.seq, i)
				}
			}
			// And the reverse: single Puts drained by one GetBatch.
			for i := 0; i < n; i++ {
				p.Put(&job{seq: i})
			}
			dst := make([]*job, n)
			got := 0
			for got < n {
				k := c.GetBatch(dst[got:])
				if k == 0 {
					t.Fatalf("GetBatch dried up at %d of %d", got, n)
				}
				got += k
			}
		})
	}
}

// TestPutBatchPanicsOnNilTask: a nil element anywhere in the batch is a
// caller bug, caught like Put(nil).
func TestPutBatchPanicsOnNilTask(t *testing.T) {
	pool := newPool(t, salsa.SALSA, 1, 1, 8)
	defer func() {
		if recover() == nil {
			t.Error("nil task in batch accepted")
		}
	}()
	pool.Producer(0).PutBatch([]*job{{seq: 0}, nil, {seq: 2}})
}
