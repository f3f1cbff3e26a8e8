package remote

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"salsa/internal/chaos"
)

func (l *slabList) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// TestSlabRelease pins the count that decides when a frame's memory may be
// overwritten: a slab joins the free list at its last release and not
// before, one release too many panics, and an outsized slab is not kept.
func TestSlabRelease(t *testing.T) {
	var l slabList
	sl := l.get()
	tasks := sl.fill([][]byte{[]byte("a"), []byte("bc"), nil, []byte("def"), []byte("g")})
	for i, want := range []string{"a", "bc", "", "def", "g"} {
		if string(tasks[i].Body) != want || tasks[i].home != sl {
			t.Fatalf("task %d = %q home %p, want %q home %p", i, tasks[i].Body, tasks[i].home, want, sl)
		}
	}
	l.release(sl, 2)
	if l.len() != 0 {
		t.Fatal("slab on the free list with 3 tasks unserved")
	}
	l.releaseServed([]*Task{&tasks[2], &tasks[3], &tasks[4]})
	if l.len() != 1 || l.get() != sl {
		t.Fatal("slab not recycled by its last release")
	}

	sl.fill([][]byte{[]byte("x")})
	l.release(sl, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("releasing a task twice did not panic")
			}
		}()
		l.release(sl, 1)
	}()

	big := new(slab)
	big.fill([][]byte{make([]byte, slabKeepBytes+1)})
	l.get() // empty the list
	l.release(big, 1)
	if l.len() != 0 {
		t.Error("a slab grown past slabKeepBytes was kept")
	}
}

// TestPartialAcceptSlab drives a shard whose pool takes only a prefix of a
// PUT_BATCH (3 chunks of 8 slots against 64 bodies): the refused suffix is
// released at once, the accepted bodies arrive intact exactly once, the slab
// is recycled when — and only when — its last task has been served, and the
// recycled slab carries the resent suffix just as intact.
func TestPartialAcceptSlab(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", Options{
		Lanes: 1, House: 1, ChunkSize: 8, InitialChunks: 3, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Seed the free list so the test holds the slab the shard will use.
	sl := new(slab)
	srv.slabs.free[0], srv.slabs.n = sl, 1

	fc := rawProducer(t, srv.Addr())
	defer fc.Close()
	w, err := DialWorker(srv.Addr(), WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const total = 64
	pending := make([][]byte, total)
	for i := range pending {
		pending[i] = []byte(fmt.Sprintf("task-%02d", i))
	}
	seen := map[string]int{}
	for seq := uint64(1); len(pending) > 0; seq++ {
		f, err := roundTrip(fc, KindPutBatch, AppendPutReq(nil, PutReq{Token: 9, Seq: seq, B: Batch{Tasks: pending}}))
		if err != nil || f.Kind != KindAck {
			t.Fatalf("PUT_BATCH of %d = (%v, %v), want ACK", len(pending), f.Kind, err)
		}
		a, err := DecodeAck(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		n := int(a.A)
		if n == 0 || (seq == 1 && n == total) {
			t.Fatalf("shard accepted %d of %d; the test needs a partial accept", n, len(pending))
		}
		if live := sl.live.Load(); live != int64(n) {
			t.Fatalf("after ACK %d the slab counts %d live tasks: the refused suffix was not released", n, live)
		}
		if seq == 1 {
			// The shard is full: a further frame is refused whole and its
			// slab is back on the list before SATURATED is sent.
			f, err := roundTrip(fc, KindPutBatch, AppendPutReq(nil, PutReq{Token: 9, Seq: 1000, B: Batch{Tasks: pending[n:]}}))
			if err != nil || f.Kind != KindSaturated {
				t.Fatalf("PUT_BATCH into a full shard = (%v, %v), want SATURATED", f.Kind, err)
			}
			if srv.slabs.len() != 1 || srv.slabs.get() == sl {
				t.Fatal("the refused frame's slab did not come straight back")
			}
		}
		for got := 0; got < n; {
			if srv.slabs.len() != 0 || sl.live.Load() <= 0 {
				t.Fatalf("slab recycled with %d of its %d tasks served", got, n)
			}
			bodies, err := w.GetBatch(5, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range bodies {
				seen[string(b)]++
			}
			got += len(bodies)
		}
		// The release follows the TASKS write on the shard's side.
		for deadline := time.Now().Add(5 * time.Second); srv.slabs.len() != 1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("slab not recycled after its last task was served (live %d)", sl.live.Load())
			}
		}
		if srv.slabs.free[0] != sl {
			t.Fatal("the shard did not reuse the seeded slab")
		}
		pending = pending[n:]
	}
	for i := 0; i < total; i++ {
		if body := fmt.Sprintf("task-%02d", i); seen[body] != 1 {
			t.Errorf("%s delivered %d times", body, seen[body])
		}
	}
	if len(seen) != total {
		t.Errorf("%d distinct bodies delivered, want %d (a body was corrupted)", len(seen), total)
	}
}

// TestLoopbackSlabReuseExactlyOnce is the address-reuse round: recycled
// slabs hand the pool Task addresses and body memory it has seen before,
// which it never did when every frame was freshly allocated. Two shards,
// four producers and four workers move enough small frames that each
// shard's free list is reused at least 100 times per slot, and the ledger
// — every body is its own identity, so a body overwritten early shows up as
// a duplicate, a loss or a foreign task — must come out exactly-once. Run
// it under -race: an early recycle is also a write racing the encode.
func TestLoopbackSlabReuseExactlyOnce(t *testing.T) {
	const (
		producers   = 4
		perProducer = 24000
		batch       = 16
	)
	var srvs [2]*Server
	var addrs []string
	for i := range srvs {
		srv, err := NewServer("127.0.0.1:0", Options{Lanes: producers, FlightBase: i * 256, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srvs[i] = srv
		addrs = append(addrs, srv.Addr())
	}
	ledger := chaos.NewLedger(producers, perProducer)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	errs := make(chan error, 2*producers)
	var wg sync.WaitGroup
	for wi := 0; wi < 4; wi++ {
		w, err := DialWorker(addrs[wi%2], WorkerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer w.Close()
			for !ledger.Drained() && ctx.Err() == nil {
				bodies, err := w.GetBatch(batch, 20*time.Millisecond)
				if err == nil {
					err = recordBodies(ledger, bodies)
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d: %w", w.ID(), err)
					cancel()
					return
				}
			}
		}()
	}
	for pi := 0; pi < producers; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			pr, err := DialProducer(addrs, ProducerOptions{Home: pi % 2})
			if err == nil {
				defer pr.Close()
				err = produceLedger(ctx, pr, pi, perProducer, batch)
			}
			if err != nil {
				errs <- fmt.Errorf("producer %d: %w", pi, err)
				cancel()
			}
		}(pi)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if err := ledger.Verify(0); err != nil {
		t.Fatal(err)
	}
	for i, srv := range srvs {
		srv.slabs.mu.Lock()
		reused := srv.slabs.reused
		srv.slabs.mu.Unlock()
		if frames := srv.frames[KindPutBatch].Load(); reused < 100*slabFreeCap {
			t.Errorf("shard %d: %d of %d frames reused a slab, want >= %d", i, reused, frames, 100*slabFreeCap)
		}
	}
}
