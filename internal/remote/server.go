package remote

import (
	"crypto/subtle"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"salsa"
	"salsa/internal/flight"
	"salsa/internal/telemetry"
)

// Task is the unit a shard queues: an opaque byte payload. Identity and
// semantics belong to the application on both ends of the wire; the shard
// only moves runs of them through its in-process SALSA pool. Body points
// into the task's home slab and is valid until the task has been served
// (see slab).
type Task struct {
	Body []byte
	home *slab
}

// Options configures a shard server.
type Options struct {
	// Lanes is the number of wire producer lanes — pool producer handles
	// leased to producer connections, one at a time (handles are
	// single-goroutine). A producer connection beyond the lane supply
	// waits for a free lane and is refused with CodeCapacity after
	// LeaseTimeout. Default 4.
	Lanes int
	// House is the number of resident consumers the pool starts with.
	// They never run: their chunk pools serve as insertion capacity and
	// steal sources for workers, and — because the membership registry
	// refuses to depart the last live consumer — they guarantee worker
	// joins, drains and kills always succeed regardless of worker churn.
	// Default 1; must be ≥ 1.
	House int
	// MaxWorkers is the lifetime worker-join capacity (consumer ids are
	// never reused; see Config.MaxConsumers). Joins beyond it are
	// refused with CodeCapacity. Default 64.
	MaxWorkers int
	// ChunkSize and InitialChunks forward to salsa.Config.
	ChunkSize     int
	InitialChunks int
	// LeaseTimeout is the worker liveness lease. Any frame from the
	// worker's connection refreshes it; a worker silent for longer is
	// declared crashed: its consumer is killed (the rescue path reclaims
	// its chunks) and its connection is closed. Default 3s.
	LeaseTimeout time.Duration
	// RetryAfter is the backpressure hint carried by SATURATED frames.
	// Default 2ms.
	RetryAfter time.Duration
	// MaxPayload bounds accepted frame payloads. Default
	// DefaultMaxPayload.
	MaxPayload int
	// MaxBatch clamps the task count served per GET_BATCH. Default 1024.
	MaxBatch int
	// MaxWait clamps the client-supplied GET_BATCH hold time. The server
	// answers an empty TASKS frame at the deadline, so a waiting worker
	// keeps producing lease-refreshing traffic. Default 1s.
	MaxWait time.Duration
	// AuthToken, when non-empty, is the shared secret every HELLO (and
	// QUIESCE) must carry; mismatches are refused with CodeUnauthorized.
	// Comparison is constant-time. Empty runs the shard open.
	AuthToken string
	// DisableDedup turns off the PUT_BATCH idempotency window, so a
	// retry after a lost ACK double-publishes. Exists for tests that
	// must demonstrate the window has teeth; never set it in service.
	DisableDedup bool
	// QuiesceTimeout bounds a QUIESCE drain; past it the handoff fails
	// and the shard returns to service. Default 60s.
	QuiesceTimeout time.Duration
	// FlightBase forwards to salsa.Config.FlightBase: the flight-recorder
	// actor-id offset for this shard's pool. Required when several shards
	// share one process (the recorder is process-global and per-actor
	// rings are single-writer); each shard needs a disjoint range of
	// House+MaxWorkers+1 consumer ids and Lanes+1 producer ids.
	FlightBase int
	// Logf, when non-nil, receives one line per membership-affecting
	// event (joins, drains, lease expiries, kills).
	Logf func(format string, args ...any)
}

func (o *Options) defaults() {
	if o.Lanes <= 0 {
		o.Lanes = 4
	}
	if o.House <= 0 {
		o.House = 1
	}
	if o.MaxWorkers <= 0 {
		o.MaxWorkers = 64
	}
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 3 * time.Second
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = 2 * time.Millisecond
	}
	if o.MaxPayload <= 0 {
		o.MaxPayload = DefaultMaxPayload
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 1024
	}
	if o.MaxWait <= 0 {
		o.MaxWait = time.Second
	}
	if o.QuiesceTimeout <= 0 {
		o.QuiesceTimeout = 60 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// workerSession is the server side of one joined worker: the consumer id,
// the connection (closed to evict), and the lease clock.
type workerSession struct {
	id   int
	conn net.Conn
	// lastSeen is the UnixNano stamp of the last frame from the peer.
	lastSeen atomic.Int64
	// departed flips exactly once — whoever wins the flip (DRAIN handler,
	// dead-peer cleanup, or the lease monitor) departs the consumer, so a
	// drain racing an expiry cannot double-depart an id.
	departed atomic.Bool
}

// Server hosts one SALSA pool as a network shard: producer connections
// lease pool producer lanes and stream PUT_BATCH, worker connections join
// the pool's consumer membership and stream GET_BATCH, and the pool's own
// signals cross the wire typed — saturation as SATURATED backpressure
// frames, kills as CodeKilled, silence as lease expiry → KillConsumer.
type Server struct {
	o    Options
	pool *salsa.Pool[Task]
	ln   net.Listener

	// lanes is the free-list of producer handles; a handle is on the
	// channel exactly when no connection is using it.
	lanes chan *salsa.Producer[Task]

	// Wire census, exposed via TelemetrySnapshot. Plain atomics (not the
	// pool's single-writer counters): frames from many connections land
	// here.
	frames        [kindCount]atomic.Int64
	saturated     atomic.Int64
	leasesExpired atomic.Int64
	reconnects    atomic.Int64
	dedupHits     atomic.Int64
	handoffTasks  atomic.Int64

	// slabs recycles PUT_BATCH frame memory once serveWorker has served it.
	slabs slabList

	// dedup is the PUT_BATCH idempotency window (nil when disabled).
	dedup   *dedupTable
	connSeq atomic.Uint64 // connection ids for reconnect counting

	// workerJoins is the lifetime JOIN budget. The pool's MaxConsumers
	// no longer enforces it directly (one consumer slot is reserved for
	// the quiesce drainer), so the server gates joins itself.
	workerJoins atomic.Int64

	// draining flips when a QUIESCE arrives: producer lanes, joins and
	// batches are fenced with CodeDraining while residual tasks are
	// handed to the peer. It flips back only if the handoff fails (the
	// shard returns to service).
	draining     atomic.Int32 // 0 idle, 1 draining, 2 drained
	putsInFlight atomic.Int64 // PUT_BATCH inserts between fence-check and commit
	quiesceMu    sync.Mutex
	drainer      *salsa.Consumer[Task] // reserved-slot consumer, created once
	reinsert     *salsa.Producer[Task] // reserved lane: failed-handoff re-insertion

	mu       sync.Mutex
	sessions map[int]*workerSession
	conns    map[net.Conn]struct{}

	closed atomic.Bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// Draining states.
const (
	stateServing  int32 = 0
	stateDraining int32 = 1
	stateDrained  int32 = 2
)

// isDraining reports whether new work must be fenced.
func (s *Server) isDraining() bool { return s.draining.Load() != stateServing }

// NewServer builds the shard pool, binds addr (host:port; port 0 picks a
// free one — see Addr) and starts serving.
func NewServer(addr string, o Options) (*Server, error) {
	o.defaults()
	pool, err := salsa.New[Task](salsa.Config{
		// One producer handle beyond the wire lanes is reserved for the
		// quiesce sweep: tasks pulled from the pool but refused by the
		// handoff peer are force-reinserted through it, so a failed
		// quiesce never strands what it already swept.
		Producers: o.Lanes + 1,
		Consumers: o.House,
		// One consumer slot beyond the worker budget is reserved for
		// the quiesce drainer; the server gates worker joins itself
		// (workerJoins) so the reserve cannot be taken by a worker.
		MaxConsumers:  o.House + o.MaxWorkers + 1,
		ChunkSize:     o.ChunkSize,
		InitialChunks: o.InitialChunks,
		Metrics:       true,
		FlightBase:    o.FlightBase,
	})
	if err != nil {
		return nil, fmt.Errorf("remote: shard pool: %w", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		pool.Close()
		return nil, fmt.Errorf("remote: listen %s: %w", addr, err)
	}
	s := &Server{
		o:        o,
		pool:     pool,
		ln:       ln,
		lanes:    make(chan *salsa.Producer[Task], o.Lanes),
		sessions: make(map[int]*workerSession),
		conns:    make(map[net.Conn]struct{}),
		stop:     make(chan struct{}),
	}
	if !o.DisableDedup {
		s.dedup = newDedupTable()
	}
	for i := 0; i < o.Lanes; i++ {
		s.lanes <- pool.Producer(i)
	}
	s.reinsert = pool.Producer(o.Lanes)
	s.wg.Add(2)
	go s.acceptLoop()
	go s.leaseLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, severs every connection, waits for the
// connection handlers, and closes the pool.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	close(s.stop)
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.pool.Close()
}

func (s *Server) count(k Kind) {
	if k.valid() {
		s.frames[k].Add(1)
	}
}

// flush sends the frame staged in fc's write buffer since fc.begin and
// counts it in the wire census.
func (s *Server) flush(fc *framedConn) error {
	s.count(Kind(fc.wbuf[3]))
	return fc.flush()
}

func (s *Server) sendAck(fc *framedConn, a Ack) error {
	fc.begin(KindAck)
	fc.wbuf = AppendAck(fc.wbuf, a)
	return s.flush(fc)
}

func (s *Server) sendErr(fc *framedConn, err error) error {
	s.count(KindErr)
	return fc.writeErr(err)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(c)
	}
}

func (s *Server) handleConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	fc := newFramedConn(c, s.o.MaxPayload)
	f, err := fc.read()
	if err != nil {
		return
	}
	s.count(f.Kind)
	if f.Kind == KindQuiesce {
		s.handleQuiesce(fc, f.Payload)
		return
	}
	if f.Kind != KindHello {
		s.sendErr(fc, fmt.Errorf("%w: first frame must be HELLO, got %v", ErrProtocol, f.Kind))
		return
	}
	h, err := DecodeHello(f.Payload)
	if err != nil {
		s.sendErr(fc, fmt.Errorf("%w: %v", ErrProtocol, err))
		return
	}
	if !s.authorized(h.Token) {
		s.sendErr(fc, fmt.Errorf("%w: bad %s token", ErrUnauthorized, h.Role))
		return
	}
	switch h.Role {
	case RoleProducer:
		s.serveProducer(fc)
	case RoleWorker:
		s.serveWorker(fc, c)
	}
}

// authorized checks a peer token against the shard secret in constant
// time. An open shard (no AuthToken) accepts anything.
func (s *Server) authorized(token []byte) bool {
	if s.o.AuthToken == "" {
		return true
	}
	return subtle.ConstantTimeCompare([]byte(s.o.AuthToken), token) == 1
}

// serveProducer leases a lane to the connection and streams PUT_BATCH →
// ACK/SATURATED until the peer drains or disconnects.
func (s *Server) serveProducer(fc *framedConn) {
	if s.isDraining() {
		s.sendErr(fc, ErrDraining)
		return
	}
	connID := s.connSeq.Add(1)
	var lane *salsa.Producer[Task]
	select {
	case lane = <-s.lanes:
	case <-s.stop:
		return
	case <-time.After(s.o.LeaseTimeout):
		s.sendErr(fc, fmt.Errorf("%w: all %d producer lanes leased", ErrCapacity, s.o.Lanes))
		return
	}
	defer func() { s.lanes <- lane }()
	if s.sendAck(fc, Ack{A: uint64(lane.ID())}) != nil {
		return
	}
	retryMs := uint32(s.o.RetryAfter.Milliseconds())
	if retryMs == 0 {
		retryMs = 1
	}
	// Per-connection scratch, reused by every frame: the decoded bodies
	// (aliasing the read buffer) and the pointer run handed to the pool.
	var bodies [][]byte
	var ptrs []*Task
	for {
		f, err := fc.read()
		if err != nil {
			return
		}
		s.count(f.Kind)
		switch f.Kind {
		case KindPutBatch:
			req, err := decodePutReqInto(bodies, f.Payload)
			if err != nil {
				s.sendErr(fc, fmt.Errorf("%w: %v", ErrProtocol, err))
				return
			}
			bodies = req.B.Tasks
			// Idempotent retry: a (token, seq) the shard already
			// committed replays the original ACK instead of inserting
			// twice — the retry after a lost ACK is the one scenario
			// the dedup window exists for.
			if s.dedup != nil && req.Token != 0 {
				n, replay, recon := s.dedup.checkPut(req.Token, req.Seq, connID)
				if recon {
					s.reconnects.Add(1)
				}
				if replay {
					s.dedupHits.Add(1)
					if s.sendAck(fc, Ack{A: n}) != nil {
						return
					}
					continue
				}
			}
			// Draining fence: the in-flight count makes "no more
			// inserts" observable to Quiesce — once the flag is up and
			// putsInFlight returns to zero, nothing else can commit.
			s.putsInFlight.Add(1)
			if s.isDraining() {
				s.putsInFlight.Add(-1)
				s.sendErr(fc, ErrDraining)
				return
			}
			// Copy out of the read buffer into a slab: the pool owns
			// accepted tasks past this request's lifetime.
			sl := s.slabs.get()
			tasks := sl.fill(bodies)
			ptrs = ptrs[:0]
			for i := range tasks {
				ptrs = append(ptrs, &tasks[i])
			}
			n, perr := lane.TryPutBatch(ptrs)
			s.putsInFlight.Add(-1)
			if n < len(ptrs) {
				// The pool refused part or all of the run: its chunk
				// pools are exhausted everywhere this lane reaches.
				// Cross-shard backpressure, not an error. The refused
				// suffix was never published, so it is released here.
				s.saturated.Add(1)
				_ = perr // always salsa.ErrSaturated here
				s.slabs.release(sl, len(ptrs)-n)
			}
			// Record the outcome BEFORE the ACK leaves: if the ACK is
			// lost to a cut, the retry must hit the window. Only
			// committed outcomes are recorded — a full SATURATED
			// refusal commits nothing, so retrying it is safe and must
			// reach the pool again.
			if n > 0 && s.dedup != nil && req.Token != 0 {
				s.dedup.record(req.Token, req.Seq, uint64(n))
			}
			var werr error
			if n == 0 && len(ptrs) > 0 {
				fc.begin(KindSaturated)
				fc.wbuf = AppendSaturated(fc.wbuf, SaturatedMsg{RetryAfterMs: retryMs})
				werr = s.flush(fc)
			} else {
				werr = s.sendAck(fc, Ack{A: uint64(n)})
			}
			if werr != nil {
				return
			}
		case KindPing:
			if s.sendAck(fc, Ack{}) != nil {
				return
			}
		case KindDrain:
			s.sendAck(fc, Ack{})
			return
		default:
			s.sendErr(fc, fmt.Errorf("%w: unexpected %v on a producer connection", ErrProtocol, f.Kind))
			return
		}
	}
}

// serveWorker joins the connection to the pool's consumer membership and
// streams GET_BATCH → TASKS until the peer drains, dies, or is evicted.
func (s *Server) serveWorker(fc *framedConn, c net.Conn) {
	// The join handshake: JOIN must follow HELLO before any retrieval.
	f, err := fc.read()
	if err != nil {
		return
	}
	s.count(f.Kind)
	if f.Kind != KindJoin {
		s.sendErr(fc, fmt.Errorf("%w: worker must JOIN before %v", ErrProtocol, f.Kind))
		return
	}
	if s.isDraining() {
		s.sendErr(fc, ErrDraining)
		return
	}
	// Lifetime join budget: consumer ids are never reused, and the
	// pool's MaxConsumers includes the quiesce-drainer reserve, so the
	// server enforces MaxWorkers itself.
	if s.workerJoins.Add(1) > int64(s.o.MaxWorkers) {
		s.workerJoins.Add(-1)
		s.sendErr(fc, fmt.Errorf("%w: %d worker joins", ErrCapacity, s.o.MaxWorkers))
		return
	}
	cons, err := s.pool.AddConsumer()
	if err != nil {
		s.sendErr(fc, fmt.Errorf("%w: %v", ErrCapacity, err))
		return
	}
	sess := &workerSession{id: cons.ID(), conn: c}
	sess.lastSeen.Store(time.Now().UnixNano())
	s.mu.Lock()
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	s.o.Logf("remote: worker %s joined as consumer %d", c.RemoteAddr(), sess.id)
	defer func() {
		s.mu.Lock()
		delete(s.sessions, sess.id)
		s.mu.Unlock()
		// Dead peer without a DRAIN: a crash. Kill the consumer so its
		// chunks go back through the abandoned-pool/rescue reclamation.
		if sess.departed.CompareAndSwap(false, true) {
			if kerr := s.pool.KillConsumer(sess.id); kerr == nil {
				s.o.Logf("remote: worker %d vanished, consumer killed", sess.id)
			}
		}
	}()
	if s.sendAck(fc, Ack{
		A: uint64(sess.id),
		B: uint64(s.o.LeaseTimeout.Milliseconds()),
	}) != nil {
		return
	}

	buf := make([]*Task, s.o.MaxBatch)
	// The dry poll's timer, made on the first dry GET_BATCH and reused.
	var poll *time.Timer
	defer func() {
		if poll != nil {
			poll.Stop()
		}
	}()
	for {
		f, err := fc.read()
		if err != nil {
			return
		}
		sess.lastSeen.Store(time.Now().UnixNano())
		s.count(f.Kind)
		switch f.Kind {
		case KindGetBatch:
			g, err := DecodeGetReq(f.Payload)
			if err != nil {
				s.sendErr(fc, fmt.Errorf("%w: %v", ErrProtocol, err))
				return
			}
			max := int(g.Max)
			if max <= 0 || max > s.o.MaxBatch {
				max = s.o.MaxBatch
			}
			wait := time.Duration(g.WaitMs) * time.Millisecond
			if wait > s.o.MaxWait {
				wait = s.o.MaxWait
			}
			// Bounded poll instead of a blocking GetBatch: answering an
			// empty TASKS frame at the deadline keeps the request/response
			// cadence — and with it the worker's lease traffic — alive
			// while the shard is dry.
			deadline := time.Now().Add(wait)
			var n int
			for {
				n = cons.TryGetBatch(buf[:max])
				if n > 0 || cons.Killed() || s.isDraining() || !time.Now().Before(deadline) {
					break
				}
				if poll == nil {
					poll = time.NewTimer(dryPoll)
				} else {
					poll.Reset(dryPoll)
				}
				select {
				case <-s.stop:
					return
				case <-poll.C:
				}
			}
			if n == 0 && cons.Killed() {
				s.sendErr(fc, fmt.Errorf("remote: consumer %d: %w", sess.id, salsa.ErrKilled))
				return
			}
			if n == 0 && s.isDraining() {
				// Quiescing: retire the consumer (its residual chunks
				// republish for the drainer to sweep) and tell the
				// worker to re-join elsewhere. Tasks already fetched
				// (n > 0) are still delivered below — they are this
				// worker's to run.
				s.retireDraining(sess)
				s.sendErr(fc, ErrDraining)
				return
			}
			fc.begin(KindTasks)
			fc.wbuf = appendTasks(fc.wbuf, buf[:n])
			if s.flush(fc) != nil {
				return
			}
			// The one place a slab is released: the bodies are in the
			// kernel's hands and nothing reads them again.
			s.slabs.releaseServed(buf[:n])
			clear(buf[:n])
		case KindPing:
			if s.isDraining() {
				s.retireDraining(sess)
				s.sendErr(fc, ErrDraining)
				return
			}
			if s.sendAck(fc, Ack{}) != nil {
				return
			}
		case KindDrain:
			if sess.departed.CompareAndSwap(false, true) {
				// This goroutine is the handle's single driver and is done
				// driving it, so the retire's quiescence precondition
				// holds by construction.
				if rerr := s.pool.RetireConsumer(sess.id); rerr != nil {
					s.sendErr(fc, rerr)
					return
				}
				s.o.Logf("remote: worker %d drained", sess.id)
			}
			s.sendAck(fc, Ack{})
			return
		default:
			s.sendErr(fc, fmt.Errorf("%w: unexpected %v on a worker connection", ErrProtocol, f.Kind))
			return
		}
	}
}

// dryPoll is how often a held GET_BATCH re-tries a dry shard.
const dryPoll = 200 * time.Microsecond

// retireDraining departs a worker's consumer on the quiesce path: the
// winner of the departed flip retires it (residual chunks republish for
// the drainer to sweep); losers — a racing lease expiry or dead-peer
// cleanup — do nothing.
func (s *Server) retireDraining(sess *workerSession) {
	if sess.departed.CompareAndSwap(false, true) {
		if err := s.pool.RetireConsumer(sess.id); err == nil {
			s.o.Logf("remote: worker %d retired (shard draining)", sess.id)
		}
	}
}

// Dedup window bounds: per producer token the last dedupSeqWindow
// committed sequence numbers are remembered; at most dedupTokenCap
// tokens are tracked, evicting least-recently-used beyond that. Both
// bound memory against hostile or very churny producers; an evicted
// entry only weakens dedup for a producer that has been silent longest,
// and only after 1024 distinct producers hit one shard.
const (
	dedupSeqWindow = 128
	dedupTokenCap  = 1024
)

// putHistory is one producer token's dedup state.
type putHistory struct {
	connID   uint64            // last connection seen for this token
	seqs     map[uint64]uint64 // committed seq → accepted count
	lastUsed uint64            // logical clock for token LRU eviction
	// order is the ring of recorded seqs behind the window eviction:
	// record i lives at order[i%dedupSeqWindow], recorded counts them.
	order    [dedupSeqWindow]uint64
	recorded uint64
}

// dedupTable is the shard's PUT_BATCH idempotency window.
type dedupTable struct {
	mu     sync.Mutex
	clock  uint64
	tokens map[uint64]*putHistory
}

func newDedupTable() *dedupTable {
	return &dedupTable{tokens: make(map[uint64]*putHistory)}
}

// checkPut looks up (token, seq) and reports a committed replay (with
// the original accepted count) plus whether this connection is new for
// the token — a reconnect, counted once per new connection at its first
// PUT_BATCH.
func (d *dedupTable) checkPut(token, seq, connID uint64) (accepted uint64, replay, reconnected bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.clock++
	h := d.tokens[token]
	if h == nil {
		h = d.ensureLocked(token)
		h.connID = connID
		h.lastUsed = d.clock
		return 0, false, false
	}
	h.lastUsed = d.clock
	if h.connID != connID {
		h.connID = connID
		reconnected = true
	}
	accepted, replay = h.seqs[seq]
	return accepted, replay, reconnected
}

// record remembers a committed (token, seq) → accepted-count outcome.
func (d *dedupTable) record(token, seq, accepted uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.clock++
	h := d.ensureLocked(token)
	h.lastUsed = d.clock
	if _, dup := h.seqs[seq]; dup {
		return
	}
	slot := &h.order[h.recorded%dedupSeqWindow]
	if h.recorded >= dedupSeqWindow {
		delete(h.seqs, *slot) // the oldest record leaves the window
	}
	*slot = seq
	h.recorded++
	h.seqs[seq] = accepted
}

// ensureLocked returns the token's history, creating it (and evicting
// the least-recently-used token past the cap) as needed. Caller holds mu.
func (d *dedupTable) ensureLocked(token uint64) *putHistory {
	if h := d.tokens[token]; h != nil {
		return h
	}
	if len(d.tokens) >= dedupTokenCap {
		var lruTok uint64
		var lru uint64 = ^uint64(0)
		for t, h := range d.tokens {
			if h.lastUsed < lru {
				lru, lruTok = h.lastUsed, t
			}
		}
		delete(d.tokens, lruTok)
	}
	h := &putHistory{seqs: make(map[uint64]uint64)}
	d.tokens[token] = h
	return h
}

// leaseLoop evicts workers whose lease expired: the consumer is killed
// (chunk rescue takes over its backlog) and the connection is closed so
// the handler goroutine unwinds.
func (s *Server) leaseLoop() {
	defer s.wg.Done()
	tick := s.o.LeaseTimeout / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		now := time.Now().UnixNano()
		var expired []*workerSession
		s.mu.Lock()
		for _, sess := range s.sessions {
			if !sess.departed.Load() && now-sess.lastSeen.Load() > int64(s.o.LeaseTimeout) {
				expired = append(expired, sess)
			}
		}
		s.mu.Unlock()
		for _, sess := range expired {
			if !sess.departed.CompareAndSwap(false, true) {
				continue // drained or already evicted in the race window
			}
			s.leasesExpired.Add(1)
			if err := s.pool.KillConsumer(sess.id); err == nil {
				s.o.Logf("remote: worker %d lease expired, consumer killed", sess.id)
			}
			sess.conn.Close()
		}
	}
}

// TelemetrySnapshot implements telemetry.SnapshotSource: the pool's own
// snapshot plus the shard's wire census.
func (s *Server) TelemetrySnapshot() telemetry.Snapshot {
	snap := s.pool.TelemetrySnapshot()
	rf := make(map[string]int64, int(kindCount)-1)
	for k := KindHello; k < kindCount; k++ {
		rf[k.String()] = s.frames[k].Load()
	}
	snap.RemoteFrames = rf
	snap.RemoteSaturated = s.saturated.Load()
	snap.RemoteLeasesExpired = s.leasesExpired.Load()
	snap.RemoteReconnects = s.reconnects.Load()
	snap.RemoteDedupHits = s.dedupHits.Load()
	snap.RemoteHandoffTasks = s.handoffTasks.Load()
	return snap
}

// Handler returns the shard's HTTP surface: the standard telemetry
// exposition (/metrics, /metrics.json) plus /debug/flight, which captures
// and streams a flight-recorder dump when the recorder is armed (the
// salsa-server daemon arms it at startup; binary format per
// internal/flight, readable with salsa-doctor).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	th := telemetry.Handler(s, telemetry.HandlerOptions{})
	mux.Handle("/metrics", th)
	mux.Handle("/metrics.json", th)
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		if !flight.Enabled() {
			http.Error(w, "flight recorder not armed (run salsa-server with -flight)", http.StatusNotFound)
			return
		}
		d := flight.Capture("http", r.RemoteAddr, false)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="flight-shard.bin"`)
		d.WriteTo(w)
	})
	return mux
}
