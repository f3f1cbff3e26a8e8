package main

import (
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"salsa"
)

// ptask is the in-process task: its identity is all the verifier needs.
type ptask struct{ seq int64 }

// One task in sampleEvery is timed on the pool workloads: two clock reads per
// task would cost more than the Put/Get pair they bracket.
const (
	sampleShift = 10
	sampleEvery = 1 << sampleShift
)

// poolCeiling bounds how many tasks a pool trial can move per second of
// window; it sizes the verifier's bitmap (one bit per task).
const poolCeiling = 1e8

// poolStream is the pool-stream workload: one producer Put, one consumer
// Get, at most streamInflight tasks between them, on a pre-allocated slab.
// The slab is reused in sequence order, which relies on a single producer's
// tasks reaching a single consumer in order; a violation would overwrite a
// task in flight and the verifier would report it.
type poolStream struct {
	pool *salsa.Pool[ptask]
	slab []ptask
	v    *verifier
	next int64 // first sequence of the next leg

	consumed atomic.Int64 // published by the consumer every 256 tasks
	produced atomic.Int64 // -1 while the producer runs, then its final count

	putAt, putEnd, gotAt []int64 // indexed by seq>>sampleShift
	getSpans             []span  // traced: one Get call in sampleEvery
	trace                bool
}

const streamInflight = 32768

func runPoolStream(c config) (trial, error) {
	var tr trial
	t0 := time.Now()
	warm := int64(c.fixed(2_000_000))
	capacity := warm + int64(c.window.Seconds()*poolCeiling)
	samples := capacity>>sampleShift + 1
	s := &poolStream{
		slab:   make([]ptask, streamInflight),
		v:      newVerifier(capacity, 1),
		putAt:  make([]int64, samples),
		putEnd: make([]int64, samples),
		gotAt:  make([]int64, samples),
		trace:  c.trace,
	}
	if c.trace {
		s.getSpans = make([]span, 0, samples)
	}
	base := heapInuse()
	pool, err := salsa.New[ptask](salsa.Config{Producers: 1, Consumers: 1})
	if err != nil {
		return tr, err
	}
	defer pool.Close()
	s.pool = pool
	s.run(warm, 1<<62)
	tr.setup = time.Since(t0)

	var m meter
	m.begin()
	first := s.next
	s.run(capacity-warm, nowNs()+int64(c.window))
	m.end(&tr)
	tr.delivered = s.consumed.Load() - first
	tr.heap = heapGrowth(base)
	tr.verdict = s.v.tally(s.next, 0)

	tr.lat = make([]int64, 0, (s.next-first)>>sampleShift+1)
	for k := (first + sampleEvery - 1) >> sampleShift; k<<sampleShift < s.next; k++ {
		if s.gotAt[k] != 0 {
			tr.lat = append(tr.lat, s.gotAt[k]-s.putAt[k])
		}
	}
	if c.trace {
		tr.layer = map[string]float64{}
		poolCounters(pool.Stats(), tr.layer)
		// put and get are timed on different tasks (a Get is stamped before
		// it is known what it returns), so these three are each stage's own
		// median, not a decomposition of one task.
		var put, inpool, get []int64
		for k := (first + sampleEvery - 1) >> sampleShift; k<<sampleShift < s.next; k++ {
			if s.gotAt[k] == 0 {
				continue
			}
			id := k << sampleShift
			put = append(put, s.putEnd[k]-s.putAt[k])
			inpool = append(inpool, max(s.gotAt[k]-s.putEnd[k], 0))
			tr.spans = append(tr.spans,
				span{ID: id, Name: "task", StartNs: s.putAt[k], EndNs: s.gotAt[k]},
				span{ID: id, Name: "put", Parent: "task", StartNs: s.putAt[k], EndNs: s.putEnd[k]},
				span{ID: id, Name: "inpool", Parent: "task", StartNs: s.putEnd[k], EndNs: s.gotAt[k]})
		}
		for _, g := range s.getSpans {
			if g.ID >= first {
				get = append(get, g.EndNs-g.StartNs)
				tr.spans = append(tr.spans, g)
			}
		}
		p50 := func(samples []int64) float64 {
			slices.Sort(samples)
			return float64(percentile(samples, 0.50))
		}
		tr.layer["stage.put_ns_p50"] = p50(put)
		tr.layer["stage.get_ns_p50"] = p50(get)
		tr.layer["stage.inpool_us_p50"] = p50(inpool) / 1e3
	}
	return tr, nil
}

// run moves up to limit tasks, stopping at deadline (a nowNs value).
func (s *poolStream) run(limit, deadline int64) {
	first, end := s.next, s.next+limit
	s.produced.Store(-1)
	go s.produce(first, end, deadline)

	cons := s.pool.Consumer(0)
	n := first
	var calls, stallFrom int64
	for {
		var g0 int64
		if s.trace && calls&(sampleEvery-1) == 0 {
			g0 = nowNs()
		}
		calls++
		t, ok := cons.Get()
		if !ok {
			p := s.produced.Load()
			if p < 0 {
				continue
			}
			if n == p {
				break
			}
			if now := nowNs(); stallFrom == 0 {
				stallFrom = now
			} else if now-stallFrom > stallNs {
				break
			}
			continue
		}
		if g0 != 0 {
			s.getSpans = append(s.getSpans, span{ID: t.seq, Name: "get", StartNs: g0, EndNs: nowNs()})
		}
		s.v.mark(0, t.seq)
		if t.seq&(sampleEvery-1) == 0 {
			s.gotAt[t.seq>>sampleShift] = nowNs()
		}
		n++
		if n&255 == 0 {
			s.consumed.Store(n)
		}
	}
	s.consumed.Store(n)
	s.next = s.produced.Load()
}

func (s *poolStream) produce(first, end, deadline int64) {
	prod := s.pool.Producer(0)
	seq, seen := first, s.consumed.Load()
	for ; seq < end; seq++ {
		for seq-seen >= streamInflight {
			if seen = s.consumed.Load(); seq-seen >= streamInflight {
				runtime.Gosched()
			}
		}
		t := &s.slab[seq&(streamInflight-1)]
		t.seq = seq
		if seq&(sampleEvery-1) != 0 {
			prod.Put(t)
			continue
		}
		now := nowNs()
		if now >= deadline {
			break
		}
		k := seq >> sampleShift
		s.putAt[k] = now
		prod.Put(t)
		if s.trace {
			s.putEnd[k] = nowNs()
		}
	}
	s.produced.Store(seq)
}

// runPoolForkJoin is the pool-forkjoin workload: rounds of one producer
// PutBatch(32) × 65 536 tasks, then two consumers GetBatch(32) until the
// linearizable empty answer. The two phases never overlap, so at most two
// load goroutines run at once.
func runPoolForkJoin(c config) (trial, error) {
	const (
		roundTasks = 65536
		batch      = 32
	)
	var tr trial
	t0 := time.Now()
	warmRounds := int64(c.fixed(16))
	capRounds := warmRounds + max(int64(c.window.Seconds()*poolCeiling)/roundTasks, 1)
	capacity := capRounds * roundTasks
	slab := make([]ptask, roundTasks)
	ptrs := make([]*ptask, roundTasks)
	for i := range slab {
		ptrs[i] = &slab[i]
	}
	v := newVerifier(capacity, 2)
	putAt := make([]int64, capacity>>sampleShift)
	gotAt := make([]int64, capacity>>sampleShift)
	base := heapInuse()

	pool, err := salsa.New[ptask](salsa.Config{Producers: 1, Consumers: 2})
	if err != nil {
		return tr, err
	}
	defer pool.Close()
	prod := pool.Producer(0)
	var start [2]chan struct{}
	got := make(chan int64)
	for lane := range start {
		start[lane] = make(chan struct{})
		go func() {
			cons := pool.Consumer(lane)
			dst := make([]*ptask, batch)
			for range start[lane] {
				var n int64
				for k := cons.GetBatch(dst); k > 0; k = cons.GetBatch(dst) {
					for _, t := range dst[:k] {
						v.mark(lane, t.seq)
						if t.seq&(sampleEvery-1) == 0 {
							gotAt[t.seq>>sampleShift] = nowNs()
						}
					}
					n += int64(k)
				}
				got <- n
			}
		}()
	}
	defer func() {
		close(start[0])
		close(start[1])
	}()
	round := func(r int64) int64 {
		seq := r * roundTasks
		for b := 0; b < roundTasks; b += batch {
			for _, t := range ptrs[b : b+batch] {
				t.seq = seq
				seq++
			}
			if first := seq - batch; first&(sampleEvery-1) == 0 {
				putAt[first>>sampleShift] = nowNs()
			}
			prod.PutBatch(ptrs[b : b+batch])
		}
		start[0] <- struct{}{}
		start[1] <- struct{}{}
		return <-got + <-got
	}

	r := int64(0)
	for ; r < warmRounds; r++ {
		round(r)
	}
	tr.setup = time.Since(t0)

	var m meter
	m.begin()
	deadline := nowNs() + int64(c.window)
	for ; r < capRounds && (r == warmRounds || nowNs() < deadline); r++ {
		tr.delivered += round(r)
	}
	m.end(&tr)
	tr.heap = heapGrowth(base)
	runtime.KeepAlive(ptrs) // the baseline counted the slab; it must still be counted now
	tr.verdict = v.tally(r*roundTasks, 0)
	for k := warmRounds * roundTasks >> sampleShift; k < r*roundTasks>>sampleShift; k++ {
		if gotAt[k] != 0 {
			tr.lat = append(tr.lat, gotAt[k]-putAt[k])
		}
	}
	if c.trace {
		tr.layer = map[string]float64{}
		poolCounters(pool.Stats(), tr.layer)
	}
	return tr, nil
}
