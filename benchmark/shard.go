package main

import (
	"context"
	"encoding/binary"
	"sync/atomic"
	"time"

	"salsa/internal/remote"
)

const (
	bodySize = 32

	streamBatch  = 64   // shard-stream: bodies per Produce and per GetBatch
	shardWindow  = 2048 // shard-stream: most tasks in flight (README "Calibration")
	shardCeiling = 2e7  // shard-stream: bitmap sizing, tasks per second of window

	openBatch = 8      // shard-open: bodies per Produce
	openRate  = 10_000 // shard-open: batches per second, Poisson

	getMax  = 64
	getWait = 20 * time.Millisecond
)

// shard is one loopback shard with its two client connections: the most the
// reference host carries next to the two load goroutines.
type shard struct {
	srv  *remote.Server
	prod *remote.Producer
	wk   *remote.Worker
}

func newShard() (*shard, error) {
	srv, err := remote.NewServer("127.0.0.1:0", remote.Options{})
	if err != nil {
		return nil, err
	}
	s := &shard{srv: srv}
	if s.prod, err = remote.DialProducer([]string{srv.Addr()}, remote.ProducerOptions{}); err != nil {
		s.close()
		return nil, err
	}
	if s.wk, err = remote.DialWorker(srv.Addr(), remote.WorkerOptions{}); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *shard) close() {
	if s.prod != nil {
		s.prod.Close()
	}
	if s.wk != nil {
		_ = s.wk.Drain() // teardown: the server is closed next either way
	}
	s.srv.Close()
}

// shardRun is the state the two shard workloads share: a producer goroutine
// sending batches of per bodies, a worker goroutine receiving them.
type shardRun struct {
	*shard
	per    int // bodies per Produce
	bodies [][]byte
	v      *verifier
	trace  bool

	// Indexed by batch. sendAt is the latency origin: the Produce call on the
	// closed loop, the due time on the open loop.
	sendAt, prodStart, prodEnd []int64 // producer-owned
	gotAt, getStart            []int64 // worker-owned

	// slots is the closed loop's window: the producer takes one per batch,
	// the worker returns one per streamBatch tasks received. Blocking on it,
	// where a spin would do, leaves the P to the shard's handlers: on two Ps
	// a spinning producer takes its turns from the very goroutines it waits
	// for. Nil on the open loop.
	slots    chan struct{}
	returned int64 // slots the worker has given back

	received  atomic.Int64 // tasks, published by the worker
	produced  atomic.Int64 // -1 while the producer runs, then its task count
	next      int64        // first batch of the next leg
	gets      int64
	emptyGets int64
	errs      atomic.Int64 // Produce or GetBatch calls that returned an error
	sends     int64
	late      int64
}

// newShardRun allocates the benchmark's own buffers; the caller attaches the
// shard after taking its heap baseline.
func newShardRun(c config, per int, batches int64) *shardRun {
	r := &rng{s: c.seed}
	s := &shardRun{
		per:    per,
		bodies: newBodies(r, per, bodySize),
		v:      newVerifier(batches*int64(per), 1),
		trace:  c.trace,
		sendAt: make([]int64, batches),
		gotAt:  make([]int64, batches),
	}
	if c.trace {
		s.prodStart, s.prodEnd, s.getStart = make([]int64, batches), make([]int64, batches), make([]int64, batches)
	}
	return s
}

// receive runs the worker until the producer is done and everything sent has
// arrived. gotAt[b] is the return of the GetBatch that carried batch b's
// last task.
func (s *shardRun) receive() {
	n := s.received.Load()
	lastProgress := nowNs()
	for {
		if p := s.produced.Load(); p >= 0 && (n == p || nowNs()-lastProgress > stallNs) {
			return
		}
		var g0 int64
		if s.trace {
			g0 = nowNs()
		}
		bodies, err := s.wk.GetBatch(getMax, getWait)
		now := nowNs()
		s.gets++
		if err != nil {
			s.errs.Add(1)
			return
		}
		if len(bodies) == 0 {
			s.emptyGets++
			continue
		}
		for _, body := range bodies {
			seq := int64(binary.LittleEndian.Uint64(body))
			s.v.mark(0, seq)
			if b := seq / int64(s.per); uint64(b) < uint64(len(s.gotAt)) {
				s.gotAt[b] = now
				if s.trace {
					s.getStart[b] = g0
				}
			}
		}
		n += int64(len(bodies))
		s.received.Store(n)
		lastProgress = now
		for ; s.slots != nil && s.returned < n/streamBatch; s.returned++ {
			s.slots <- struct{}{}
		}
	}
}

// send stamps batch b's sequence numbers into the bodies and produces it.
func (s *shardRun) send(ctx context.Context, b int64) {
	for i, body := range s.bodies {
		binary.LittleEndian.PutUint64(body, uint64(b*int64(s.per)+int64(i)))
	}
	if s.trace {
		s.prodStart[b] = nowNs()
	}
	if err := s.prod.Produce(ctx, s.bodies); err != nil {
		s.errs.Add(1)
	}
	if s.trace {
		s.prodEnd[b] = nowNs()
	}
}

// leg starts the producer, runs the worker on the calling goroutine and
// returns the tasks received.
func (s *shardRun) leg(produce func(ctx context.Context, first int64) (end int64)) int64 {
	before := s.received.Load()
	s.produced.Store(-1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.next = produce(ctx, s.next)
		s.produced.Store(s.next * int64(s.per))
	}()
	s.receive()
	cancel() // a worker that gave up must not leave the producer waiting on it
	<-done
	return s.received.Load() - before
}

// closedLoop produces batches back to back, at most shardWindow tasks ahead
// of the worker, until limit batches or the deadline.
func (s *shardRun) closedLoop(limit, deadline int64) func(context.Context, int64) int64 {
	return func(ctx context.Context, first int64) int64 {
		b := first
		for ; b < first+limit; b++ {
			select {
			case <-s.slots:
			case <-ctx.Done():
				return b
			}
			now := nowNs()
			if now >= deadline {
				break
			}
			s.sendAt[b] = now
			s.send(ctx, b)
		}
		return b
	}
}

// openLoop produces one batch at each due time, however the last one went.
func (s *shardRun) openLoop(due []int64) func(context.Context, int64) int64 {
	return func(ctx context.Context, first int64) int64 {
		start := nowNs() + int64(time.Millisecond)
		for k, d := range due {
			b := first + int64(k)
			s.sendAt[b] = start + d
			s.sends++
			if _, late := waitUntil(s.sendAt[b], true); late {
				s.late++
			}
			if ctx.Err() != nil {
				return b
			}
			s.send(ctx, b)
		}
		return first + int64(len(due))
	}
}

// finish fills in what both shard workloads report the same way. Latency is
// per batch: origin → the GetBatch return that completed it.
func (s *shardRun) finish(tr *trial, first int64) {
	tr.verdict = s.v.tally(s.next*int64(s.per), 0)
	tr.refused = s.errs.Load() // a call that errored failed, whatever became of its tasks
	snap := s.srv.TelemetrySnapshot()
	tr.saturated = snap.RemoteSaturated
	tr.sends, tr.late = s.sends, s.late
	tr.lat = make([]int64, 0, s.next-first)
	for b := first; b < s.next; b++ {
		if s.gotAt[b] != 0 {
			tr.lat = append(tr.lat, s.gotAt[b]-s.sendAt[b])
		}
	}
	if !s.trace {
		return
	}
	tr.layer = map[string]float64{}
	poolCounters(snap.Ops, tr.layer)
	var frames int64
	for _, n := range snap.RemoteFrames {
		frames += n
	}
	tr.layer["remote.frames_per_task"] = ratio(frames, s.received.Load())
	tr.layer["remote.saturated_per_kput"] = 1000 * ratio(snap.RemoteSaturated, snap.RemoteFrames[remote.KindPutBatch.String()])
	tr.layer["remote.empty_get_ratio"] = ratio(s.emptyGets, s.gets)
	tr.layer["remote.dedup_hits"] = float64(snap.RemoteDedupHits)
	tr.layer["remote.reconnects"] = float64(snap.RemoteReconnects + s.prod.Reconnects())

	var lat, lag, produce, inshard, get []int64
	for b := first; b < s.next; b++ {
		if s.gotAt[b] == 0 {
			continue
		}
		// The worker can receive a batch before Produce has returned.
		handed := min(s.prodEnd[b], s.gotAt[b])
		lat = append(lat, s.gotAt[b]-s.sendAt[b])
		lag = append(lag, s.prodStart[b]-s.sendAt[b])
		produce = append(produce, handed-s.prodStart[b])
		inshard = append(inshard, s.gotAt[b]-handed)
		get = append(get, s.gotAt[b]-s.getStart[b])
		if b%spanEvery == 0 {
			tr.spans = append(tr.spans,
				span{ID: b, Name: "batch", StartNs: s.sendAt[b], EndNs: s.gotAt[b]},
				span{ID: b, Name: "sched_lag", Parent: "batch", StartNs: s.sendAt[b], EndNs: s.prodStart[b]},
				span{ID: b, Name: "produce", Parent: "batch", StartNs: s.prodStart[b], EndNs: s.prodEnd[b]},
				span{ID: b, Name: "inshard", Parent: "batch", StartNs: handed, EndNs: s.gotAt[b]},
				span{ID: b, Name: "get", Parent: "batch", StartNs: s.getStart[b], EndNs: s.gotAt[b]})
		}
	}
	order := latencyOrder(lat)
	tr.layer["stage.sched_lag_us_p50"] = stageAt(order, lag, 0.50)
	tr.layer["stage.produce_us_p50"] = stageAt(order, produce, 0.50)
	tr.layer["stage.produce_us_p99"] = stageAt(order, produce, 0.99)
	tr.layer["stage.inshard_us_p50"] = stageAt(order, inshard, 0.50)
	tr.layer["stage.inshard_us_p99"] = stageAt(order, inshard, 0.99)
	tr.layer["stage.get_us_p50"] = stageAt(order, get, 0.50)
}

// runShardStream is the shard-stream workload: closed loop over loopback
// TCP, one Produce of 64 × 32-byte bodies against one GetBatch(64).
func runShardStream(c config) (trial, error) {
	var tr trial
	t0 := time.Now()
	warm := int64(c.fixed(2048))
	capacity := warm + max(int64(c.window.Seconds()*shardCeiling)/streamBatch, 1)
	s := newShardRun(c, streamBatch, capacity)
	s.slots = make(chan struct{}, shardWindow/streamBatch)
	for range cap(s.slots) {
		s.slots <- struct{}{}
	}
	base := heapInuse()
	var err error
	if s.shard, err = newShard(); err != nil {
		return tr, err
	}
	defer s.close()
	s.leg(s.closedLoop(warm, 1<<62))
	tr.setup = time.Since(t0)

	var m meter
	m.begin()
	first := s.next
	tr.delivered = s.leg(s.closedLoop(capacity-warm, nowNs()+int64(c.window)))
	m.end(&tr)
	tr.heap = heapGrowth(base)
	s.finish(&tr, first)
	return tr, nil
}

// runShardOpen is the shard-open workload: open loop over loopback TCP,
// Poisson batches of 8 × 32-byte bodies, worker GetBatch(64, 20ms) in a loop.
func runShardOpen(c config) (trial, error) {
	var tr trial
	t0 := time.Now()
	warm := c.fixed(1000)
	n := max(int(openRate*c.window.Seconds()), 1)
	r := &rng{s: c.seed ^ 0x5bd1e995}
	dueWarm, dueRun := poissonDue(r, warm, openRate), poissonDue(r, n, openRate)
	s := newShardRun(c, openBatch, int64(warm+n))
	base := heapInuse()
	var err error
	if s.shard, err = newShard(); err != nil {
		return tr, err
	}
	defer s.close()
	s.leg(s.openLoop(dueWarm))
	tr.setup = time.Since(t0)
	s.sends, s.late = 0, 0

	var m meter
	m.begin()
	first := s.next
	tr.delivered = s.leg(s.openLoop(dueRun))
	m.end(&tr)
	tr.heap = heapGrowth(base)
	s.finish(&tr, first)
	return tr, nil
}
