// Package framework implements the paper's management policy (§1.4,
// Algorithm 2): the component that operates a set of SCPools, routing
// producer requests and initiating stealing according to NUMA-aware access
// lists, independent of which SCPool implementation is underneath.
//
// The policy is:
//
//   - Access lists. Every producer and consumer is given the list of all
//     consumers sorted by distance from its core (internal/topology).
//   - Producer policy. put() tries produce() on each pool in access-list
//     order; produce() fails when the target consumer has no spare chunks
//     (it is overloaded), and if every pool is full, produceForce() expands
//     the closest pool. This is producer-based balancing (§1.5.4).
//   - Consumer policy. get() consumes from the consumer's own pool, then
//     tries to steal along its access list, and gives up only after the
//     linearizable checkEmpty() protocol (§1.5.5) confirms a moment of
//     global emptiness.
//
// If the SCPools are lock-free, the framework preserves lock-freedom at the
// system level.
package framework

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"salsa/internal/backoff"
	"salsa/internal/failpoint"
	"salsa/internal/flight"
	"salsa/internal/membership"
	"salsa/internal/scpool"
	"salsa/internal/stats"
	"salsa/internal/telemetry"
	"salsa/internal/topology"
)

// ErrKilled is returned by GetContext when the consumer was declared
// crashed (KillConsumer) while the call was in flight or before it.
var ErrKilled = errors.New("framework: consumer killed")

// PoolFactory builds the SCPool owned by consumer ownerID on NUMA node
// ownerNode, with producer lists for `producers` producers.
type PoolFactory[T any] func(ownerID, ownerNode, producers int) (scpool.SCPool[T], error)

// Config describes a framework instance.
type Config[T any] struct {
	// Producers and Consumers are the thread counts. Every producer and
	// consumer gets a dedicated handle that must be used by a single
	// goroutine.
	Producers int
	Consumers int

	// MaxConsumers bounds the total number of consumers ever registered,
	// including departed ones: elastic membership (AddConsumer) assigns
	// monotonic ids that are never reused, and substrate capacity
	// (empty-indicator sizes, owner-word id ranges) is fixed at
	// construction. Zero means Consumers — a fixed-membership pool. The
	// SCPool factory must build pools sized for MaxConsumers ids.
	MaxConsumers int

	// Placement maps threads to cores/nodes and derives access lists.
	// Nil means a UMA machine with Producers+Consumers cores.
	Placement *topology.Placement

	// NewPool builds the SCPool implementation (SALSA, SALSA+CAS,
	// ConcBag, WS-MSQ, WS-LIFO, ...).
	NewPool PoolFactory[T]

	// DisableBalancing reproduces the Figure 1.6 ablation: producers
	// ignore produce() failures and always insert into the first pool on
	// their access list (forcing expansion when it is full).
	DisableBalancing bool

	// NonLinearizableEmpty makes Get return ⊥ after a single fruitless
	// traversal instead of running the checkEmpty protocol — the
	// configuration the paper benchmarked (§1.6.2). Correct programs
	// that rely on ⊥ meaning "empty at some instant" must keep this
	// false.
	NonLinearizableEmpty bool

	// StealOrder selects how a consumer iterates victims; the paper
	// leaves the policy open (§1.4 "subject for engineering
	// optimizations" and found it worth 53% for ConcBag, §1.6.3).
	StealOrder StealOrder

	// Tracer, when non-nil, receives telemetry events (steals, chunk
	// transfers, checkEmpty rounds, produce pressure) from every handle.
	// Nil disables emission at the cost of one predictable branch per
	// site.
	Tracer telemetry.Tracer

	// Latency enables wall-clock sampling of Put/Get/steal operations
	// into the per-handle histograms (stats.Ops.PutLatency & co.). Off
	// by default: sampling adds two clock reads per operation,
	// which the paper's microbenchmark regime would notice.
	Latency bool

	// FlightBase offsets the flight-recorder actor ids of every handle:
	// producer/consumer i records as actor FlightBase+i. The recorder is
	// process-global and its per-actor rings are single-writer, so when
	// several pools share one process each must claim a disjoint id range.
	// Zero (the default) is correct for a single pool.
	FlightBase int
}

// StealOrder is a victim-iteration policy for steal attempts.
type StealOrder int

const (
	// StealNearestFirst walks the NUMA access list in order — the
	// paper's policy: steals stay on-node when possible.
	StealNearestFirst StealOrder = iota
	// StealRoundRobin rotates the starting victim on every traversal,
	// spreading contention across victims at the cost of locality.
	StealRoundRobin
	// StealRandom picks a pseudo-random starting victim per traversal
	// (xorshift; no locks, no global rng).
	StealRandom
)

// Framework wires pools, producers and consumers together.
type Framework[T any] struct {
	cfg Config[T]
	reg *membership.Registry

	// epoch is the atomically published membership view (pools, access
	// lists, placement). Every hot-path operation loads it exactly once;
	// membership changes build a new epoch under mu and swap the pointer.
	epoch atomic.Pointer[epoch[T]]

	// mu serializes membership changes and guards the handle registries
	// below. Hot paths never take it.
	mu        sync.Mutex
	producers []*Producer[T]
	consumers []*Consumer[T] // by id; departed handles remain, flagged

	// sparesDrained counts spare chunks moved out of departing pools
	// into survivors (telemetry; written only under mu).
	sparesDrained atomic.Int64
}

// New validates cfg, builds one SCPool per consumer and pre-wires all
// handles and access lists.
func New[T any](cfg Config[T]) (*Framework[T], error) {
	if cfg.Producers <= 0 || cfg.Consumers <= 0 {
		return nil, fmt.Errorf("framework: need at least one producer and one consumer, got %d/%d",
			cfg.Producers, cfg.Consumers)
	}
	if cfg.MaxConsumers == 0 {
		cfg.MaxConsumers = cfg.Consumers
	}
	if cfg.MaxConsumers < cfg.Consumers {
		return nil, fmt.Errorf("framework: MaxConsumers %d below Consumers %d",
			cfg.MaxConsumers, cfg.Consumers)
	}
	if cfg.NewPool == nil {
		return nil, fmt.Errorf("framework: NewPool factory is required")
	}
	pl := cfg.Placement
	if pl == nil {
		pl = topology.Place(topology.UMA(cfg.Producers+cfg.Consumers),
			cfg.Producers, cfg.Consumers, topology.PlaceInterleaved)
	}
	reg, err := membership.NewRegistry(cfg.Consumers, cfg.MaxConsumers)
	if err != nil {
		return nil, fmt.Errorf("framework: %w", err)
	}
	fw := &Framework[T]{cfg: cfg, reg: reg}

	pools := make([]scpool.SCPool[T], cfg.Consumers)
	for i := 0; i < cfg.Consumers; i++ {
		p, err := cfg.NewPool(i, pl.ConsumerNode(i), cfg.Producers)
		if err != nil {
			return nil, fmt.Errorf("framework: building pool %d: %w", i, err)
		}
		if p.OwnerID() != i {
			return nil, fmt.Errorf("framework: pool %d reports owner %d", i, p.OwnerID())
		}
		pools[i] = p
	}

	fw.producers = make([]*Producer[T], cfg.Producers)
	for i := 0; i < cfg.Producers; i++ {
		pr := &Producer[T]{fw: fw}
		pr.state.ID = i
		pr.state.FID = cfg.FlightBase + i
		pr.state.Node = pl.ProducerNode(i)
		pr.state.Tracer = cfg.Tracer
		fw.producers[i] = pr
	}

	fw.consumers = make([]*Consumer[T], cfg.Consumers)
	for i := 0; i < cfg.Consumers; i++ {
		co := &Consumer[T]{fw: fw, myPool: pools[i]}
		co.state.ID = i
		co.state.FID = cfg.FlightBase + i
		co.state.Node = pl.ConsumerNode(i)
		co.state.Tracer = cfg.Tracer
		fw.consumers[i] = co
	}
	fw.buildEpoch(reg.Epoch(), pl, pools, make([]bool, cfg.Consumers))
	return fw, nil
}

// Producer returns producer i's handle. Each handle must be driven by one
// goroutine at a time.
func (fw *Framework[T]) Producer(i int) *Producer[T] { return fw.producers[i] }

// Consumer returns consumer i's handle (including departed consumers').
// Each handle must be driven by one goroutine at a time.
func (fw *Framework[T]) Consumer(i int) *Consumer[T] {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.consumers[i]
}

// Pool returns consumer i's SCPool (for tests and diagnostics).
func (fw *Framework[T]) Pool(i int) scpool.SCPool[T] { return fw.epoch.Load().pools[i] }

// NumProducers returns the configured producer count.
func (fw *Framework[T]) NumProducers() int { return len(fw.producers) }

// NumConsumers returns the number of consumers ever registered, departed
// included (ids 0..NumConsumers-1 are all valid handle indices). See
// LiveConsumers for the live count.
func (fw *Framework[T]) NumConsumers() int { return len(fw.epoch.Load().pools) }

// Placement returns the placement of the current membership epoch.
func (fw *Framework[T]) Placement() *topology.Placement { return fw.epoch.Load().placement }

// Stats aggregates the operation counters of every handle, departed
// consumers included (their counts record work done while live).
func (fw *Framework[T]) Stats() stats.Snapshot {
	fw.mu.Lock()
	consumers := fw.consumers[:len(fw.consumers):len(fw.consumers)]
	fw.mu.Unlock()
	var total stats.Snapshot
	for _, p := range fw.producers {
		total.Add(p.state.Ops.Snapshot())
	}
	for _, c := range consumers {
		total.Add(c.state.Ops.Snapshot())
	}
	return total
}

// sampleStart and sampleEnd bracket one latency sample. They are the only
// place the put/get/steal paths read the clock, and both turn on
// Config.Latency alone, so a pool without latency sampling pays two
// predictable branches per operation and never reads it.
func (fw *Framework[T]) sampleStart() (start time.Time) {
	if fw.cfg.Latency {
		start = time.Now()
	}
	return start
}

func (fw *Framework[T]) sampleEnd(h *stats.Histogram, start time.Time) {
	if fw.cfg.Latency {
		h.ObserveSince(start)
	}
}

// Producer inserts tasks according to the producer policy. The access list
// is read from the current membership epoch on every call (one atomic
// load), so producers fail over to the surviving pools the moment a
// consumer departs and reach new pools the moment one joins.
type Producer[T any] struct {
	fw    *Framework[T]
	state scpool.ProducerState
}

// Put inserts t (Algorithm 2's put()): produce() along the access list,
// produceForce() on the closest pool as last resort. t must be non-nil.
func (p *Producer[T]) Put(t *T) { p.put(t, true) }

// TryPut inserts t without the produceForce escape hatch: the access list is
// walked exactly as in Put, but when every pool refuses (chunk pools
// exhausted everywhere the producer may reach) the task is rejected instead
// of force-expanding the closest pool. This is the typed backpressure path —
// the caller keeps ownership of t and decides whether to retry, shed, or
// block. Rejections are counted in SaturatedPuts.
func (p *Producer[T]) TryPut(t *T) bool { return p.put(t, false) }

// PutBatch inserts every task of ts, amortizing the access-list walk (and,
// on batch-capable pools, the per-task synchronization) across the batch:
// each pool on the access list is offered the whole remainder, a short
// count is that pool's overload signal, and whatever no pool accepts is
// force-inserted into the closest pool — exactly the producer-based
// balancing of Put, applied to runs instead of single tasks. All tasks in
// ts must be non-nil.
func (p *Producer[T]) PutBatch(ts []*T) { p.putBatch(ts, true) }

// TryPutBatch inserts a prefix of ts, walking the access list like PutBatch
// but never force-expanding: it returns how many tasks were accepted
// (0 ≤ n ≤ len(ts)); tasks ts[n:] remain owned by the caller. A short return
// is the saturation signal and is counted in SaturatedPuts.
func (p *Producer[T]) TryPutBatch(ts []*T) int { return p.putBatch(ts, false) }

// access returns this producer's access list for the current epoch. With
// DisableBalancing the list is cut to its head, so the walk, the forced
// insert and the saturation verdict all see the nearest pool only: the
// Figure 1.6 ablation is a one-element access list, not a second policy.
func (p *Producer[T]) access() []scpool.SCPool[T] {
	access := p.fw.epoch.Load().prodAccess[p.state.ID]
	if p.fw.cfg.DisableBalancing {
		access = access[:1]
	}
	return access
}

func (p *Producer[T]) event(pool scpool.SCPool[T]) telemetry.ProduceEvent {
	return telemetry.ProduceEvent{Producer: p.state.ID, Node: p.state.Node, Pool: pool.OwnerID()}
}

// put is the single-task walk behind Put and TryPut: produce() on each pool
// of the access list in order; when all refuse, force decides between
// produceForce() on the closest pool and a counted rejection. With Latency
// on, an accepted call is one PutLatency sample — refusals are not sampled,
// so polling a saturated pool does not drown the histogram.
func (p *Producer[T]) put(t *T, force bool) bool {
	start := p.fw.sampleStart()
	tr := p.state.Tracer
	access := p.access()
	accepted := false
	for _, pool := range access {
		if accepted = pool.Produce(&p.state, t); accepted {
			break
		}
		if tr != nil {
			tr.OnProduceFail(p.event(pool))
		}
	}
	if !accepted {
		if !force {
			p.state.Ops.SaturatedPuts.Inc()
			return false
		}
		if tr != nil {
			tr.OnForcePut(p.event(access[0]))
		}
		// The forced insert may land in a pool abandoned after the epoch
		// was loaded; that is safe — abandoned pools remain steal victims
		// and emptiness-scan subjects forever, so the straggler is
		// reclaimed.
		access[0].ProduceForce(&p.state, t)
	}
	p.fw.sampleEnd(&p.state.Ops.PutLatency, start)
	return true
}

// putBatch is the batch walk behind PutBatch and TryPutBatch: the same
// policy as put with the unaccepted remainder in place of the single task.
// It returns the number of tasks inserted — len(ts) under force. Every call
// is counted in PutBatches/PutBatchSize with the size offered, and with
// Latency on a call that inserted anything is one PutLatency sample
// (batches are the unit of work here).
func (p *Producer[T]) putBatch(ts []*T, force bool) int {
	if len(ts) == 0 {
		return 0
	}
	// Call-free single-writer increment (stats.Counter.V docs).
	p.state.Ops.PutBatches.V.Store(p.state.Ops.PutBatches.V.Load() + 1)
	p.state.Ops.PutBatchSize.Observe(int64(len(ts)))
	start := p.fw.sampleStart()
	tr := p.state.Tracer
	access := p.access()
	rem := ts
	for _, pool := range access {
		rem = rem[scpool.ProduceBatch(pool, &p.state, rem):]
		if len(rem) == 0 {
			break
		}
		if tr != nil {
			tr.OnProduceFail(p.event(pool))
		}
	}
	if len(rem) > 0 {
		if !force {
			p.state.Ops.SaturatedPuts.Inc()
		} else {
			if tr != nil {
				tr.OnForcePut(p.event(access[0]))
			}
			for _, t := range rem { // see put() on abandoned pools
				access[0].ProduceForce(&p.state, t)
			}
			rem = nil
		}
	}
	n := len(ts) - len(rem)
	if n > 0 {
		p.fw.sampleEnd(&p.state.Ops.PutLatency, start)
	}
	return n
}

// Ops returns this producer's operation counters.
func (p *Producer[T]) Ops() stats.Snapshot { return p.state.Ops.Snapshot() }

// ID returns the producer id.
func (p *Producer[T]) ID() int { return p.state.ID }

// Node returns the NUMA node the producer is placed on.
func (p *Producer[T]) Node() int { return p.state.Node }

// Consumer retrieves tasks according to the consumer policy.
type Consumer[T any] struct {
	fw     *Framework[T]
	state  scpool.ConsumerState
	myPool scpool.SCPool[T]

	// ep/victims cache the membership view this handle last saw. The
	// victim list is rebuilt (handle-locally, no locks) whenever the
	// framework's epoch pointer moves; between epochs the hot path pays
	// one atomic load and one pointer compare. Victims include abandoned
	// pools — that is how survivors reclaim a departed consumer's tasks.
	ep      *epoch[T]
	victims []scpool.SCPool[T]

	// departed is set when this consumer retires or is killed. Using a
	// retired handle panics (a bug, not a race to lose tasks on); a
	// *killed* handle instead soft-fails — killed is set first, and the
	// Get family returns empty. The distinction matters because a kill
	// can fire from inside the victim's own retrieval (a failpoint in a
	// steal window calling KillConsumer): the in-flight call must be
	// able to unwind through its retry loop and report empty, not panic
	// out of the middle of the data plane.
	departed atomic.Bool
	killed   atomic.Bool

	// steal-order state (single-owner, like the handle itself)
	rrNext int
	rng    uint64
}

// refresh returns the current epoch, rebuilding the cached victim list
// when membership changed since this handle last looked.
func (c *Consumer[T]) refresh() *epoch[T] {
	ep := c.fw.epoch.Load()
	if ep != c.ep {
		order := ep.placement.ConsumerAccessList(c.state.ID) // self first
		victims := make([]scpool.SCPool[T], 0, len(order)-1)
		for _, id := range order {
			if id != c.state.ID {
				victims = append(victims, ep.pools[id])
			}
		}
		c.victims = victims
		c.ep = ep
	}
	return ep
}

func (c *Consumer[T]) checkLive() {
	if c.departed.Load() && !c.killed.Load() {
		panic(fmt.Sprintf("framework: consumer %d handle used after retirement", c.state.ID))
	}
}

// Get retrieves a task (Algorithm 2's get()). It returns ok=false only
// when the system was observed empty — linearizably so unless the framework
// was configured with NonLinearizableEmpty.
func (c *Consumer[T]) Get() (*T, bool) { return c.get(true) }

// TryGet performs a single consume-then-steal traversal without the
// emptiness protocol. A false result means "found nothing this pass", not
// "the system was empty".
func (c *Consumer[T]) TryGet() (*T, bool) { return c.get(false) }

// get is the single-task retrieval behind Get and TryGet: one pass, and
// under untilEmpty the await loop until checkEmpty's verdict. Latency
// sampling records only successful retrievals (here and in getBatch), so
// spin-polling an empty pool — where Get runs the full emptiness protocol
// every call — does not drown the histogram in empty-pass latencies.
//
// Every member of the Get family makes its first pass itself, without a
// watchdog marker: a single consume-then-steal traversal is bounded
// straight-line code that cannot stall, so the common found-a-task case
// skips the BeginOp/EndOp stores entirely. Only a retrieval that comes up
// dry enters await, which marks itself.
func (c *Consumer[T]) get(untilEmpty bool) (*T, bool) {
	c.checkLive()
	start := c.fw.sampleStart()
	t, ok := c.tryOnce()
	if !ok && untilEmpty {
		t, _, _ = c.await(nil, wait{})
	}
	if t != nil {
		c.fw.sampleEnd(&c.state.Ops.GetLatency, start)
	}
	return t, t != nil
}

// GetWait retrieves a task, waiting through empty periods with bounded
// spin→yield→sleep backoff until a task arrives or stop is closed (a nil
// stop waits for the task). A parked waiter wakes within the backoff's max
// sleep (1ms) of stop closing.
func (c *Consumer[T]) GetWait(stop <-chan struct{}) (*T, bool) {
	c.checkLive()
	t, ok := c.tryOnce()
	if !ok {
		t, _, _ = c.await(nil, wait{park: true, stop: stop})
	}
	return t, t != nil
}

// GetContext retrieves a task, waiting like GetWait until one arrives or
// ctx is cancelled (its deadline counts). Returns ctx.Err() on
// cancellation and ErrKilled if the consumer is declared crashed while
// waiting. A parked waiter observes cancellation within the backoff's max
// sleep (1ms).
func (c *Consumer[T]) GetContext(ctx context.Context) (*T, error) {
	c.checkLive()
	if t, ok := c.tryOnce(); ok {
		return t, nil
	}
	t, _, err := c.await(nil, wait{park: true, ctx: ctx})
	return t, err
}

// wait says how a retrieval whose first pass found nothing goes on. The
// zero value is Get's and GetBatch's rule: retry, yielding but never
// sleeping, for as long as checkEmpty refutes emptiness. park selects the
// blocking rule of GetWait and GetContext instead: never consult checkEmpty,
// escalate to timed sleeps (counted in Parks), and give up only when stop
// is closed or ctx is done. A killed consumer ends either kind.
type wait struct {
	park bool
	stop <-chan struct{}
	ctx  context.Context
}

// await is the slow path of Algorithm 2's get(), written once for the whole
// Get family: check w's exit condition, back off, and repeat the
// consume-then-steal pass — tryOnce when dst is nil, tryBatchOnce into dst
// otherwise — until one of the two ends the call. It returns the single
// task or the batch count; err is ErrKilled or ctx's error, and nil both
// for success and for the quiet exits (the empty verdict, stop closed).
func (c *Consumer[T]) await(dst []*T, w wait) (*T, int, error) {
	// YieldOnly without park: Get is not a blocking wait — it retries only
	// while checkEmpty refutes emptiness — so the backoff escalates to
	// yields (fixing the GOMAXPROCS=1 livelock where a hot spinner
	// monopolizes the only P against the in-flight operation it waits on)
	// but never to timed sleeps: parking there would give a nominally
	// non-sleeping emptiness probe millisecond latency spikes under
	// contention. Pause never reports a park for a YieldOnly backoff.
	bo := backoff.Backoff{YieldOnly: !w.park}
	flight.BeginOp(c.state.FID)
	defer flight.EndOp(c.state.FID)
	for {
		switch {
		case c.killed.Load():
			// Crashed mid-retrieval: Get, GetBatch and GetWait unwind as
			// not-found; only GetContext passes the cause on.
			return nil, 0, ErrKilled
		case !w.park:
			if c.fw.cfg.NonLinearizableEmpty || c.checkEmpty() {
				c.state.Ops.GetsEmpty.Inc()
				flight.RecordC(c.state.FID, flight.KGetEmpty, 0, 0, 0)
				return nil, 0, nil
			}
		case w.ctx != nil:
			if err := w.ctx.Err(); err != nil {
				return nil, 0, err
			}
		default:
			select {
			case <-w.stop:
				return nil, 0, nil
			default:
			}
		}
		if bo.Pause() {
			c.state.Ops.Parks.Inc()
			flight.RecordC(c.state.FID, flight.KPark, 0, 0, 0)
		}
		if dst == nil {
			if t, ok := c.tryOnce(); ok {
				return t, 1, nil
			}
		} else if n := c.tryBatchOnce(dst); n > 0 {
			return nil, n, nil
		}
	}
}

func (c *Consumer[T]) tryOnce() (*T, bool) {
	c.refresh()
	// Call-free single-writer increments (stats.Counter.V docs): this
	// method is generic, so even a trivial Inc() would be an un-inlined
	// CALL per retrieval.
	if t := c.myPool.Consume(&c.state); t != nil {
		c.state.Ops.Gets.V.Store(c.state.Ops.Gets.V.Load() + 1)
		return t, true
	}
	if t := c.stealPass(); t != nil {
		c.state.Ops.Gets.V.Store(c.state.Ops.Gets.V.Load() + 1)
		return t, true
	}
	return nil, false
}

// stealPass walks the victims once in StealOrder and returns the first
// stolen task, or nil when the pass came up dry. For chunk-stealing
// substrates a success also migrates the rest of the stolen chunk into this
// consumer's pool.
func (c *Consumer[T]) stealPass() *T {
	n := len(c.victims)
	if n == 0 {
		return nil
	}
	start := 0
	switch c.fw.cfg.StealOrder {
	case StealRoundRobin:
		start = c.rrNext % n
		c.rrNext++
	case StealRandom:
		// xorshift64*; seeded from the consumer id on first use.
		if c.rng == 0 {
			c.rng = uint64(c.state.ID)*2685821657736338717 + 0x9E3779B97F4A7C15
		}
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		start = int(c.rng % uint64(n))
	}
	for k := 0; k < n; k++ {
		v := c.victims[(start+k)%n]
		stealStart := c.fw.sampleStart()
		if t := c.myPool.Steal(&c.state, v); t != nil {
			c.fw.sampleEnd(&c.state.Ops.StealLatency, stealStart)
			return t
		}
	}
	return nil
}

// GetBatch retrieves up to len(dst) tasks with Get's contract: it returns
// 0 only when the system was observed empty — linearizably so unless the
// framework was configured with NonLinearizableEmpty. It amortizes the
// consume traversal across the batch (one hazard publish and chunk
// validation per run on SALSA) and, after a successful steal, drains the
// migrated chunk's remainder into dst instead of returning a single task.
// With Latency enabled a non-empty call is sampled as one GetLatency
// observation.
func (c *Consumer[T]) GetBatch(dst []*T) int { return c.getBatch(dst, true) }

// TryGetBatch performs a single batched consume-then-steal pass without the
// emptiness protocol. Zero means "found nothing this pass", not "the system
// was empty".
func (c *Consumer[T]) TryGetBatch(dst []*T) int { return c.getBatch(dst, false) }

// getBatch is get() for a batch: tryBatchOnce in place of tryOnce.
func (c *Consumer[T]) getBatch(dst []*T, untilEmpty bool) int {
	c.checkLive()
	if len(dst) == 0 {
		return 0
	}
	// Call-free single-writer increment (stats.Counter.V docs).
	c.state.Ops.GetBatches.V.Store(c.state.Ops.GetBatches.V.Load() + 1)
	start := c.fw.sampleStart()
	n := c.tryBatchOnce(dst)
	if n == 0 && untilEmpty {
		_, n, _ = c.await(dst, wait{})
	}
	if n > 0 {
		c.fw.sampleEnd(&c.state.Ops.GetLatency, start)
	}
	return n
}

// tryBatchOnce fills dst from the consumer's own pool and resorts to one
// steal pass only when that drain found nothing — SALSA's stealing policy
// (steal when the own pool is dry, §1.4), applied at batch granularity. A
// partial local fill returns immediately: scanning every victim to top up
// an already non-empty batch would turn each underfull call into an
// O(victims) walk and contend with the consumers that actually own those
// chunks. After a successful steal the migrated chunk's remainder is
// drained into dst, so a steal still yields a full run, not a single task.
func (c *Consumer[T]) tryBatchOnce(dst []*T) int {
	c.refresh()
	n := scpool.ConsumeBatch(c.myPool, &c.state, dst)
	if n == 0 {
		if t := c.stealPass(); t != nil {
			dst[0] = t
			n = 1 + scpool.ConsumeBatch(c.myPool, &c.state, dst[1:])
		}
	}
	if n > 0 {
		c.state.Ops.Gets.V.Store(c.state.Ops.Gets.V.Load() + int64(n))
		c.state.Ops.GetBatchSize.Observe(int64(n))
	}
	return n
}

// checkEmpty implements Algorithm 2 lines 30–36: n traversals over all
// pools; the first traversal plants this consumer's bit in every pool's
// indicator, and every traversal verifies both visible emptiness and that
// no possibly-emptying operation cleared the bit. n rounds absorb the up to
// n−1 task-taking operations that may have been in flight when the probe
// started (Lemma 6 / Claim 3).
//
// Membership makes two adjustments. The scan set is the epoch's full pool
// list, abandoned pools included forever: a straggler task can land in an
// abandoned pool (in-flight put, forced insert, a producer's current
// chunk) and is reclaimable by steal, so it must refute emptiness. And the
// probe pins the epoch it started on, aborting — returning "not empty",
// which just makes get() retry — the moment the epoch pointer moves: a
// consumer added mid-probe would otherwise have a pool this probe never
// scanned. Round count n is the registered-consumer count, ≥ the live
// count, so the Lemma 6 absorption argument carries over unchanged.
func (c *Consumer[T]) checkEmpty() bool {
	ep := c.refresh()
	n := len(ep.pools)
	tr := c.state.Tracer
	for i := 0; i < n; i++ {
		if i > 0 {
			// Widens the window between indicator planting and the later
			// verification rounds so chaos schedules can interleave a
			// produce or steal that must clear the bit and refute
			// emptiness.
			failpoint.Inject(failpoint.CheckEmptyBetweenScans, c.state.ID)
		}
		for _, p := range ep.pools {
			if i == 0 {
				p.SetIndicator(c.state.ID)
			}
			if !p.IsEmpty() || !p.CheckIndicator(c.state.ID) {
				if tr != nil {
					tr.OnCheckEmptyRound(telemetry.CheckEmptyRoundEvent{
						Consumer: c.state.ID, Round: i, Empty: false})
				}
				flight.RecordC(c.state.FID, flight.KCheckEmptyAbort, 0, 0, int32(i))
				return false
			}
		}
		if c.fw.epoch.Load() != ep {
			// Membership changed mid-probe; not linearizable. b=1 marks
			// the epoch-moved abort apart from plain refutations.
			flight.RecordC(c.state.FID, flight.KCheckEmptyAbort, 0, 1, int32(i))
			return false
		}
		if tr != nil {
			tr.OnCheckEmptyRound(telemetry.CheckEmptyRoundEvent{
				Consumer: c.state.ID, Round: i, Empty: true})
		}
	}
	return true
}

// Ops returns this consumer's operation counters.
func (c *Consumer[T]) Ops() stats.Snapshot { return c.state.Ops.Snapshot() }

// ID returns the consumer id.
func (c *Consumer[T]) ID() int { return c.state.ID }

// Node returns the NUMA node the consumer is placed on.
func (c *Consumer[T]) Node() int { return c.state.Node }

// Departed reports whether this consumer has retired or been killed.
func (c *Consumer[T]) Departed() bool { return c.departed.Load() }

// State exposes the consumer's scpool state for implementation-specific
// teardown (e.g. releasing SALSA's hazard record).
func (c *Consumer[T]) State() *scpool.ConsumerState { return &c.state }

// ProducerState exposes the producer's scpool state.
func (p *Producer[T]) ProducerState() *scpool.ProducerState { return &p.state }
