package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"salsa"
	"salsa/executor"
	"salsa/internal/chunkpool"
	"salsa/internal/core"
	"salsa/internal/framework"
	"salsa/internal/hazard"
	"salsa/internal/remote"
	"salsa/internal/scpool"
)

// The ladder times one public call per rung, in isolation, from one
// goroutine: each rung's cost minus the rung below it is that layer's budget
// (README "Ladder budget"). A rung is the median of ladderReps repetitions
// of d each.
const ladderReps = 5

// ladderBlock is how many operations a rung runs between clock reads.
const ladderBlock = 256

// measure runs block (which returns how many operations it did) for d,
// ladderReps times, and returns the median ns and allocations per operation.
func measure(d time.Duration, block func() int) (ns, allocs float64) {
	var nss, als []float64
	for range ladderReps {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ops, t0 := 0, time.Now()
		for time.Since(t0) < d {
			ops += block()
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		nss = append(nss, float64(el.Nanoseconds())/float64(ops))
		als = append(als, float64(m1.Mallocs-m0.Mallocs)/float64(ops))
	}
	return median(nss), median(als)
}

// measurePhases alternates two phases (each returns its operation count) and
// times and counts allocations for each separately; b exists to undo a, so
// the system stays in steady state. Returns per-operation medians.
func measurePhases(d time.Duration, a, b func() int) (aNs, aAllocs, bNs, bAllocs float64) {
	var an, bn, aa, ba []float64
	for range ladderReps {
		var aOps, bOps int
		var aT, bT time.Duration
		for t0 := time.Now(); time.Since(t0) < d; {
			t1 := time.Now()
			aOps += a()
			t2 := time.Now()
			bOps += b()
			aT, bT = aT+t2.Sub(t1), bT+time.Since(t2)
		}
		an = append(an, float64(aT.Nanoseconds())/float64(aOps))
		bn = append(bn, float64(bT.Nanoseconds())/float64(max(bOps, 1)))
		// Allocations in a separate pass: ReadMemStats stops the world,
		// which must not land inside a timed phase.
		var m0, m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m0)
		aOps = a()
		runtime.ReadMemStats(&m1)
		bOps = b()
		runtime.ReadMemStats(&m2)
		aa = append(aa, float64(m1.Mallocs-m0.Mallocs)/float64(aOps))
		ba = append(ba, float64(m2.Mallocs-m1.Mallocs)/float64(max(bOps, 1)))
	}
	return median(an), median(aa), median(bn), median(ba)
}

// runLadder measures every rung, d per repetition, into out.
func runLadder(d time.Duration, seed uint64, out map[string]float64) error {
	slab := make([]ptask, 1024)
	ptrs := make([]*ptask, len(slab))
	for i := range slab {
		ptrs[i] = &slab[i]
	}
	dst := make([]*ptask, 32)

	if err := ladderCore(d, ptrs, dst, out); err != nil {
		return err
	}
	if err := ladderSalsa(d, ptrs, dst, out); err != nil {
		return err
	}
	if err := ladderExecutor(d, out); err != nil {
		return err
	}
	if err := ladderWire(d, seed, out); err != nil {
		return err
	}
	return ladderRemote(d, seed, out)
}

func ladderCore(d time.Duration, ptrs, dst []*ptask, out map[string]float64) error {
	sh, err := core.NewShared[ptask](core.Options{Consumers: 2, InitialChunks: 2})
	if err != nil {
		return err
	}
	own, err := sh.NewPool(0, 0, 1)
	if err != nil {
		return err
	}
	thief, err := sh.NewPool(1, 0, 1)
	if err != nil {
		return err
	}
	ps := &scpool.ProducerState{}
	cs, cs1 := &scpool.ConsumerState{ID: 0}, &scpool.ConsumerState{ID: 1}
	produce := func(ts []*ptask) {
		for _, t := range ts {
			if !own.Produce(ps, t) {
				own.ProduceForce(ps, t)
			}
		}
	}
	out["core.produce_consume_ns"], _ = measure(d, func() int {
		produce(ptrs[:ladderBlock])
		for range ladderBlock {
			own.Consume(cs)
		}
		return ladderBlock
	})
	out["core.produce_consume_batch32_ns"], _ = measure(d, func() int {
		for b := 0; b < ladderBlock; b += 32 {
			n := own.ProduceBatch(ps, ptrs[b:b+32])
			for _, t := range ptrs[b+n : b+32] {
				own.ProduceForce(ps, t)
			}
		}
		for got := 0; got < ladderBlock; {
			got += own.ConsumeBatch(cs, dst)
		}
		return ladderBlock
	})
	// One full chunk produced into own, stolen by thief, drained by thief.
	// Only the Steal call is timed; the rung is ns per chunk stolen.
	chunk := sh.Options().ChunkSize
	var stealNs []float64
	for range ladderReps {
		var spent time.Duration
		steals := 0
		for t0 := time.Now(); time.Since(t0) < d; {
			for i := range chunk {
				own.ProduceForce(ps, ptrs[i%len(ptrs)])
			}
			t1 := time.Now()
			t := thief.Steal(cs1, own)
			spent += time.Since(t1)
			if t == nil {
				return errors.New("ladder: core.steal_chunk found nothing to steal")
			}
			steals++
			for thief.Consume(cs1) != nil {
			}
		}
		stealNs = append(stealNs, float64(spent.Nanoseconds())/float64(steals))
	}
	out["core.steal_chunk_ns"] = median(stealNs)

	// chunkpool: a spare goes in and comes out, gated on a hazard domain the
	// way core recycles chunks.
	var dom hazard.Domain
	rec := dom.Acquire()
	defer rec.Release()
	type spare struct {
		slots [core.DefaultChunkSize]uintptr
	}
	cp := chunkpool.New[spare](&dom)
	c := new(spare)
	out["chunkpool.get_put_ns"], _ = measure(d, func() int {
		for range ladderBlock {
			cp.Put(rec, c)
			c, _ = cp.Get()
		}
		return ladderBlock
	})

	newFW := func(consumers int) (*framework.Framework[ptask], error) {
		fsh, err := core.NewShared[ptask](core.Options{Consumers: consumers, InitialChunks: 2})
		if err != nil {
			return nil, err
		}
		return framework.New(framework.Config[ptask]{
			Producers: 1, Consumers: consumers,
			NewPool: func(owner, node, producers int) (scpool.SCPool[ptask], error) {
				return fsh.NewPool(owner, node, producers)
			},
		})
	}
	fw, err := newFW(1)
	if err != nil {
		return err
	}
	fp, fc := fw.Producer(0), fw.Consumer(0)
	out["framework.put_get_ns"], _ = measure(d, func() int {
		for _, t := range ptrs[:ladderBlock] {
			fp.Put(t)
		}
		for range ladderBlock {
			fc.Get()
		}
		return ladderBlock
	})
	fw2, err := newFW(2)
	if err != nil {
		return err
	}
	empty := fw2.Consumer(0)
	out["framework.get_empty_ns"], _ = measure(d, func() int {
		for range ladderBlock {
			empty.Get()
		}
		return ladderBlock
	})
	return nil
}

func ladderSalsa(d time.Duration, ptrs, dst []*ptask, out map[string]float64) error {
	pool, err := salsa.New[ptask](salsa.Config{Producers: 1, Consumers: 1})
	if err != nil {
		return err
	}
	defer pool.Close()
	p, c := pool.Producer(0), pool.Consumer(0)
	out["salsa.put_get_ns"], _ = measure(d, func() int {
		for _, t := range ptrs[:ladderBlock] {
			p.Put(t)
		}
		for range ladderBlock {
			c.Get()
		}
		return ladderBlock
	})
	out["salsa.putbatch32_getbatch32_ns"], _ = measure(d, func() int {
		for b := 0; b < ladderBlock; b += 32 {
			p.PutBatch(ptrs[b : b+32])
		}
		for got := 0; got < ladderBlock; {
			got += c.GetBatch(dst)
		}
		return ladderBlock
	})
	var refused int
	out["salsa.tryput_tryget_ns"], _ = measure(d, func() int {
		for _, t := range ptrs[:ladderBlock] {
			if p.TryPut(t) != nil {
				refused++
			}
		}
		for range ladderBlock {
			c.TryGet()
		}
		return ladderBlock
	})

	adm, err := salsa.NewAdmission(pool, ladderAdmission)
	if err != nil {
		return err
	}
	ap := adm.Producer(0, salsa.ClassHigh)
	out["admission.put_ns"], _ = measure(d, func() int {
		for _, t := range ptrs[:ladderBlock] {
			if ap.Put(t) != nil {
				refused++
			}
		}
		for range ladderBlock {
			c.TryGet()
		}
		return ladderBlock
	})
	if refused > 0 {
		return fmt.Errorf("ladder: %d inserts refused on rungs that must admit everything", refused)
	}
	// A bucket that refills once a day is empty after its one-token burst.
	dry, err := salsa.NewAdmission(pool, salsa.AdmissionConfig{Rate: 1.0 / 86400, Burst: 1})
	if err != nil {
		return err
	}
	dp := dry.Producer(0, salsa.ClassHigh)
	_ = dp.Put(ptrs[0]) // spends the burst
	c.TryGet()
	admitted := 0
	out["admission.shed_ns"], _ = measure(d, func() int {
		for _, t := range ptrs[:ladderBlock] {
			if dp.Put(t) == nil {
				admitted++
			}
		}
		return ladderBlock
	})
	if admitted > 0 {
		return fmt.Errorf("ladder: admission.shed admitted %d tasks", admitted)
	}
	return nil
}

// ladderAdmission is exec-open's token bucket with a refill no tight loop on
// this host outruns, so the admit rungs time the admit path and never a shed.
var ladderAdmission = salsa.AdmissionConfig{Rate: 1e9, Burst: 1_000_000}

func ladderExecutor(d time.Duration, out map[string]float64) error {
	ex, err := executor.New(executor.Config{Workers: 1, SubmitLanes: 1, Admission: &ladderAdmission})
	if err != nil {
		return err
	}
	defer ex.Shutdown(true)
	var nop executor.Task = func() {}
	var failed error
	run := func(submit func() error) func() int {
		return func() int {
			want := ex.Executed() + ladderBlock/2
			for range ladderBlock / 2 {
				if err := submit(); err != nil {
					failed = err
				}
			}
			for ex.Executed() < want && failed == nil {
				runtime.Gosched()
			}
			return ladderBlock / 2
		}
	}
	out["executor.submit_run_ns"], _ = measure(d, run(func() error { return ex.Submit(nop) }))
	out["executor.trysubmitclass_run_ns"], _ = measure(d, run(func() error { return ex.TrySubmitClass(nop, salsa.ClassHigh) }))
	return failed
}

func ladderWire(d time.Duration, seed uint64, out map[string]float64) error {
	bodies := newBodies(&rng{s: seed}, 64, bodySize)
	put := remote.PutReq{Token: 1, Seq: 1, B: remote.Batch{Tasks: bodies}}
	var enc []byte
	perTask := func(ns, allocs float64) (float64, float64) { return ns / 64, allocs / 64 }

	out["wire.encode_put64_ns"], _ = perTask(measure(d, func() int {
		for range ladderBlock {
			enc = remote.AppendPutReq(enc[:0], put)
		}
		return ladderBlock
	}))
	bad := 0
	out["wire.decode_put64_ns"], out["wire.decode_put64_allocs"] = perTask(measure(d, func() int {
		for range ladderBlock {
			if r, err := remote.DecodePutReq(enc); err != nil || len(r.B.Tasks) != 64 {
				bad++
			}
		}
		return ladderBlock
	}))
	out["wire.encode_tasks64_ns"], _ = perTask(measure(d, func() int {
		for range ladderBlock {
			enc = remote.AppendBatch(enc[:0], put.B)
		}
		return ladderBlock
	}))
	out["wire.decode_tasks64_ns"], _ = perTask(measure(d, func() int {
		for range ladderBlock {
			if b, err := remote.DecodeBatch(enc, remote.KindTasks); err != nil || len(b.Tasks) != 64 {
				bad++
			}
		}
		return ladderBlock
	}))
	if bad > 0 {
		return fmt.Errorf("ladder: %d wire frames did not decode to the 64 bodies encoded", bad)
	}
	return nil
}

func ladderRemote(d time.Duration, seed uint64, out map[string]float64) error {
	bodies := newBodies(&rng{s: seed}, 64, bodySize)
	sh, err := newShard()
	if err != nil {
		return err
	}
	defer sh.close()
	var failed error
	// rtt measures n-body TryProduce calls against GetBatch(n) calls, a
	// burst of each so that at most 1024 tasks wait in the shard. A GetBatch
	// may return fewer than n (a chunk boundary), so the get side counts
	// calls for the round trip and tasks for the allocations.
	rtt := func(n int) (putUs, putAllocs, getUs, getAllocs float64) {
		burst := 1024 / 64
		var calls, tasks float64
		putNs, pa, getNs, ga := measurePhases(d, func() int {
			for range burst {
				if k, err := sh.prod.TryProduce(bodies[:n]); err != nil || k != n {
					failed = fmt.Errorf("ladder: remote put%d accepted %d: %v", n, k, err)
				}
			}
			return burst
		}, func() int {
			ops := 0
			for left := burst * n; left > 0 && failed == nil; ops++ {
				got, err := sh.wk.GetBatch(n, 0)
				if err != nil || len(got) == 0 {
					failed = fmt.Errorf("ladder: remote get%d returned %d: %v", n, len(got), err)
				}
				left -= len(got)
			}
			calls, tasks = calls+float64(ops), tasks+float64(burst*n)
			return ops
		})
		return putNs / 1e3, pa / float64(n), getNs / 1e3, ga * calls / tasks
	}
	out["remote.put64_rtt_us"], out["remote.put64_allocs"], out["remote.get64_rtt_us"], out["remote.get64_allocs"] = rtt(64)
	out["remote.put1_rtt_us"], _, out["remote.get1_rtt_us"], _ = rtt(1)
	if failed != nil {
		return failed
	}

	// Routing: two shards behind one producer. home takes what it is given
	// until it is filled past saturation, after which every run spills.
	home, err := remote.NewServer("127.0.0.1:0", remote.Options{})
	if err != nil {
		return err
	}
	defer home.Close()
	// The second shard's flight-recorder actor ids must not overlap the
	// first's (remote.Options.FlightBase).
	next, err := remote.NewServer("127.0.0.1:0", remote.Options{FlightBase: 256})
	if err != nil {
		return err
	}
	defer next.Close()
	router, err := remote.DialProducer([]string{home.Addr(), next.Addr()}, remote.ProducerOptions{})
	if err != nil {
		return err
	}
	defer router.Close()
	drain := func(srv *remote.Server) (func() int, func(), error) {
		wk, err := remote.DialWorker(srv.Addr(), remote.WorkerOptions{})
		if err != nil {
			return nil, nil, err
		}
		return func() int {
			n := 0
			for got, err := wk.GetBatch(getMax, 0); err == nil && len(got) > 0; got, err = wk.GetBatch(getMax, 0) {
				n += len(got)
			}
			return n
		}, func() { _ = wk.Drain() }, nil
	}
	produce := func() int {
		for range 8 {
			if k, err := router.TryProduce(bodies); err != nil || k != len(bodies) {
				failed = fmt.Errorf("ladder: routed produce accepted %d: %v", k, err)
			}
		}
		return 8
	}
	drainHome, leaveHome, err := drain(home)
	if err != nil {
		return err
	}
	ns, _, _, _ := measurePhases(d, produce, drainHome)
	leaveHome()
	out["route.produce2_rtt_us"] = ns / 1e3

	filler, err := remote.DialProducer([]string{home.Addr()}, remote.ProducerOptions{})
	if err != nil {
		return err
	}
	defer filler.Close()
	for range 1 << 16 {
		if k, _ := filler.TryProduce(bodies); k == 0 {
			break
		}
	}
	if k, err := filler.TryProduce(bodies); k != 0 || !errors.Is(err, salsa.ErrSaturated) {
		return fmt.Errorf("ladder: home shard would not saturate (accepted %d: %v)", k, err)
	}
	drainNext, leaveNext, err := drain(next)
	if err != nil {
		return err
	}
	ns, _, _, _ = measurePhases(d, produce, drainNext)
	leaveNext()
	out["route.spill_rtt_us"] = ns / 1e3
	return failed
}
