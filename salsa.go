// Package salsa is a scalable, low-synchronization, NUMA-aware
// producer-consumer task pool for Go — a reproduction of
//
//	Gidron, Keidar, Perelman, Perez:
//	"SALSA: Scalable and Low Synchronization NUMA-aware Algorithm for
//	Producer-Consumer Pools", SPAA 2012.
//
// A Pool is operated through per-thread handles: each producer goroutine
// owns a Producer handle and each consumer goroutine a Consumer handle.
// Tasks flow from producers to the consumers closest to them on the NUMA
// topology; a consumer that runs dry steals entire chunks of tasks from
// other consumers' pools, and a Get that returns ok=false guarantees the
// pool was empty at some instant during the call (linearizable emptiness).
//
// The default algorithm is SALSA; the algorithms the paper evaluates
// against (SALSA+CAS, Concurrent Bags, WS-MSQ, WS-LIFO) are selectable via
// Config.Algorithm, primarily for benchmarking.
//
// Basic usage:
//
//	pool, _ := salsa.New[Job](salsa.Config{Producers: 4, Consumers: 4})
//	p := pool.Producer(0) // one handle per producing goroutine
//	c := pool.Consumer(0) // one handle per consuming goroutine
//	p.Put(&Job{...})
//	job, ok := c.Get()
package salsa

import (
	"fmt"
	"sync"

	"salsa/internal/telemetry"

	"salsa/internal/concbag"
	"salsa/internal/core"
	"salsa/internal/framework"
	"salsa/internal/salsacas"
	"salsa/internal/scpool"
	"salsa/internal/stats"
	"salsa/internal/topology"
	"salsa/internal/wsbase"
)

// Algorithm selects the pool implementation.
type Algorithm int

const (
	// SALSA is the paper's algorithm: per-producer chunk lists, chunk
	// ownership with a CAS-free consume fast path, chunk-granularity
	// stealing, chunk pools with producer-based balancing.
	SALSA Algorithm = iota
	// SALSACAS is the paper's ablation baseline: identical layout, but
	// every retrieval claims a single task by CAS.
	SALSACAS
	// ConcBag is the Concurrent Bags algorithm (Sundell et al., SPAA'11).
	ConcBag
	// WSMSQ is work stealing over per-consumer Michael–Scott FIFO queues.
	WSMSQ
	// WSLIFO is work stealing over per-consumer lock-free LIFO stacks.
	WSLIFO
)

// String returns the algorithm's name as used in the paper's figures.
func (a Algorithm) String() string {
	switch a {
	case SALSA:
		return "SALSA"
	case SALSACAS:
		return "SALSA+CAS"
	case ConcBag:
		return "ConcBag"
	case WSMSQ:
		return "WS-MSQ"
	case WSLIFO:
		return "WS-LIFO"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Placement selects how producers and consumers are laid out on the NUMA
// topology.
type Placement int

const (
	// PlacementInterleaved co-locates producer/consumer pairs on each
	// node — the paper's standard setup.
	PlacementInterleaved Placement = iota
	// PlacementPacked fills nodes in order, producers first.
	PlacementPacked
	// PlacementScattered deals threads across cores ignoring node
	// boundaries, approximating OS-controlled affinity (§1.6.5).
	PlacementScattered
)

// AllocationPolicy selects where chunks are (logically) allocated.
type AllocationPolicy int

const (
	// AllocLocal places each consumer's chunks on its own node (default).
	AllocLocal AllocationPolicy = iota
	// AllocCentral places all chunks on node 0 — the paper's adversarial
	// configuration in Figure 1.7. Only meaningful for experiments.
	AllocCentral
)

// Stats is the aggregated operation census of a pool; see the field
// documentation in internal/stats.
type Stats = stats.Snapshot

// StealOrder is the victim-iteration policy for steal attempts.
type StealOrder = framework.StealOrder

// Steal-order policies.
const (
	// StealNearestFirst walks the NUMA access list in order (default).
	StealNearestFirst = framework.StealNearestFirst
	// StealRoundRobin rotates the starting victim each traversal.
	StealRoundRobin = framework.StealRoundRobin
	// StealRandom picks a pseudo-random starting victim each traversal.
	StealRandom = framework.StealRandom
)

// Config configures a Pool.
type Config struct {
	// Producers and Consumers fix the number of handles. Required.
	Producers int
	Consumers int

	// MaxConsumers bounds the total number of consumers ever registered
	// over the pool's lifetime, initial and added together. Elastic
	// membership (AddConsumer / RetireConsumer / KillConsumer) assigns
	// monotonic consumer ids that are never reused — a recycled id would
	// alias a departed consumer's chunk-ownership words — and substrate
	// capacity (empty-indicator sizes, owner-id ranges) is fixed at
	// construction. Zero means Consumers: a fixed-membership pool with
	// no join headroom.
	MaxConsumers int

	// Algorithm selects the implementation; default SALSA.
	Algorithm Algorithm

	// ChunkSize overrides the chunk/block capacity in tasks. Defaults:
	// 1000 for SALSA and SALSA+CAS, 128 for ConcBag (the paper's
	// respective optima, Fig. 1.8). Ignored by WS-MSQ/WS-LIFO.
	ChunkSize int

	// NUMANodes and CoresPerNode describe the machine; when both are
	// zero, the topology is discovered from the OS (Linux) or defaults
	// to a single node wide enough for all threads.
	NUMANodes    int
	CoresPerNode int

	// Placement lays threads out on the topology.
	Placement Placement

	// Allocation selects the chunk-home policy (experiments only).
	Allocation AllocationPolicy

	// DisableBalancing turns off producer-based balancing (§1.5.4):
	// producers then always insert into the nearest pool, expanding it
	// when full. Exposed for the Figure 1.6 ablation.
	DisableBalancing bool

	// NonLinearizableEmpty makes Get report emptiness after one
	// fruitless traversal instead of the checkEmpty protocol — faster,
	// but ok=false no longer proves the pool was ever empty.
	NonLinearizableEmpty bool

	// StealOrder selects the victim-iteration policy for steal
	// attempts: nearest-first (default, the paper's NUMA-aware order),
	// round-robin, or random. The paper leaves this open as an
	// engineering knob (§1.4) and found stealing policy worth 53%
	// for one of its baselines (§1.6.3).
	StealOrder StealOrder

	// OnAccess, when set, is called for every task transfer with the
	// accessing thread's NUMA node and the chunk's home node; the NUMA
	// interconnect simulator hooks in here. Leave nil in production.
	OnAccess func(fromNode, homeNode int)

	// InitialChunks pre-seeds each pool's spare-chunk pool. Defaults to
	// 2 for SALSA/SALSA+CAS.
	InitialChunks int

	// FlightBase offsets this pool's actor ids in the process-global
	// flight recorder (internal/flight): producer/consumer i records as
	// actor FlightBase+i. The recorder's per-actor rings are
	// single-writer, so when several pools share one process (e.g. two
	// remote shards in one binary) each must claim a disjoint id range.
	// Zero — the default — is correct for a single pool.
	FlightBase int

	// Metrics enables the built-in telemetry collector (per-consumer
	// steal matrices, checkEmpty tallies, producer pressure counters)
	// and wall-clock latency sampling of Put/Get/steal into histograms.
	// The collected data is read through Pool.TelemetrySnapshot,
	// Pool.MetricsHandler or Pool.ServeMetrics. Collection follows the
	// same single-writer no-RMW discipline as the operation counters;
	// the main cost of enabling it is two clock reads per operation.
	Metrics bool

	// Tracer, when non-nil, receives raw telemetry events (steals,
	// chunk transfers, emptiness rounds, producer pressure) in addition
	// to — and independently of — the Metrics collector. Implementations
	// must be concurrency-safe; see the Tracer docs. Leave nil unless
	// event-level tracing is wanted: every event costs a dynamic call.
	Tracer Tracer
}

func (c Config) withDefaults() Config {
	if c.ChunkSize == 0 {
		if c.Algorithm == ConcBag {
			c.ChunkSize = concbag.DefaultBlockSize
		} else {
			c.ChunkSize = core.DefaultChunkSize
		}
	}
	if c.InitialChunks == 0 {
		c.InitialChunks = 2
	}
	if c.MaxConsumers == 0 {
		c.MaxConsumers = c.Consumers
	}
	return c
}

// Pool is a producer-consumer task pool. Construct with New, then hand each
// goroutine its own Producer or Consumer handle.
type Pool[T any] struct {
	cfg       Config
	fw        *framework.Framework[T]
	topo      *topology.Topology
	placement *topology.Placement  // epoch-0 placement; fw holds the current one
	salsa     *core.Shared[T]      // non-nil when Algorithm == SALSA
	collector *telemetry.Collector // non-nil when Config.Metrics
	producers []*Producer[T]

	// mu guards consumers, which grows under AddConsumer. Handles are
	// never removed; departed consumers keep their (closed) entry.
	mu        sync.Mutex
	consumers []*Consumer[T]
}

// New builds a pool.
func New[T any](cfg Config) (*Pool[T], error) {
	cfg = cfg.withDefaults()
	if cfg.Producers <= 0 || cfg.Consumers <= 0 {
		return nil, fmt.Errorf("salsa: Producers and Consumers must be positive (got %d, %d)",
			cfg.Producers, cfg.Consumers)
	}
	if cfg.MaxConsumers < cfg.Consumers {
		return nil, fmt.Errorf("salsa: MaxConsumers %d below Consumers %d",
			cfg.MaxConsumers, cfg.Consumers)
	}

	topo, err := buildTopology(cfg)
	if err != nil {
		return nil, err
	}
	var pp topology.PlacementPolicy
	switch cfg.Placement {
	case PlacementInterleaved:
		pp = topology.PlaceInterleaved
	case PlacementPacked:
		pp = topology.PlacePacked
	case PlacementScattered:
		pp = topology.PlaceRandomish
	default:
		return nil, fmt.Errorf("salsa: unknown placement %d", cfg.Placement)
	}
	placement := topology.Place(topo, cfg.Producers, cfg.Consumers, pp)

	p := &Pool[T]{cfg: cfg, topo: topo, placement: placement}
	factory, err := p.poolFactory()
	if err != nil {
		return nil, err
	}
	tracer := cfg.Tracer
	if cfg.Metrics {
		// Sized for MaxConsumers: consumers that join later need their
		// single-writer rows to exist up front.
		p.collector = telemetry.NewCollector(cfg.Producers, cfg.MaxConsumers)
		tracer = telemetry.Multi(p.collector, cfg.Tracer)
	}
	fw, err := framework.New(framework.Config[T]{
		Producers:            cfg.Producers,
		Consumers:            cfg.Consumers,
		MaxConsumers:         cfg.MaxConsumers,
		Placement:            placement,
		NewPool:              factory,
		DisableBalancing:     cfg.DisableBalancing,
		NonLinearizableEmpty: cfg.NonLinearizableEmpty,
		StealOrder:           cfg.StealOrder,
		Tracer:               tracer,
		Latency:              cfg.Metrics,
		FlightBase:           cfg.FlightBase,
	})
	if err != nil {
		return nil, err
	}
	p.fw = fw
	p.producers = make([]*Producer[T], cfg.Producers)
	for i := range p.producers {
		p.producers[i] = &Producer[T]{h: fw.Producer(i), pool: p}
	}
	p.consumers = make([]*Consumer[T], cfg.Consumers)
	for i := range p.consumers {
		p.consumers[i] = &Consumer[T]{h: fw.Consumer(i), pool: p}
	}
	return p, nil
}

func buildTopology(cfg Config) (*topology.Topology, error) {
	if cfg.NUMANodes > 0 && cfg.CoresPerNode > 0 {
		return topology.Synthetic(cfg.NUMANodes, cfg.CoresPerNode), nil
	}
	if cfg.NUMANodes > 0 || cfg.CoresPerNode > 0 {
		return nil, fmt.Errorf("salsa: NUMANodes and CoresPerNode must be set together")
	}
	if t, err := topology.Discover(); err == nil {
		return t, nil
	}
	return topology.UMA(cfg.Producers + cfg.Consumers), nil
}

// poolFactory builds the substrate factory. Every substrate is sized for
// Config.MaxConsumers consumer ids (not the initial Consumers count):
// empty-indicator slots, owner-id ranges and per-consumer regions must
// already exist for consumers that join later, because capacity is fixed
// at construction while membership is not.
func (p *Pool[T]) poolFactory() (framework.PoolFactory[T], error) {
	cfg := p.cfg
	alloc := core.AllocLocal
	if cfg.Allocation == AllocCentral {
		alloc = core.AllocCentral
	}
	switch cfg.Algorithm {
	case SALSA:
		shared, err := core.NewShared[T](core.Options{
			ChunkSize:     cfg.ChunkSize,
			Consumers:     cfg.MaxConsumers,
			Alloc:         alloc,
			OnAccess:      cfg.OnAccess,
			InitialChunks: cfg.InitialChunks,
		})
		if err != nil {
			return nil, err
		}
		p.salsa = shared
		return func(owner, node, producers int) (scpool.SCPool[T], error) {
			return shared.NewPool(owner, node, producers)
		}, nil
	case SALSACAS:
		shared, err := salsacas.NewShared[T](salsacas.Options{
			ChunkSize:     cfg.ChunkSize,
			Consumers:     cfg.MaxConsumers,
			Alloc:         alloc,
			OnAccess:      cfg.OnAccess,
			InitialChunks: cfg.InitialChunks,
		})
		if err != nil {
			return nil, err
		}
		return func(owner, node, producers int) (scpool.SCPool[T], error) {
			return shared.NewPool(owner, node, producers)
		}, nil
	case ConcBag:
		bag, err := concbag.NewBag[T](concbag.Options{
			BlockSize: cfg.ChunkSize,
			Producers: cfg.Producers,
			Consumers: cfg.MaxConsumers,
		})
		if err != nil {
			return nil, err
		}
		return func(owner, _, _ int) (scpool.SCPool[T], error) {
			return bag.NewPool(owner)
		}, nil
	case WSMSQ:
		return func(owner, node, _ int) (scpool.SCPool[T], error) {
			return wsbase.New[T](owner, node, cfg.MaxConsumers, wsbase.FIFO)
		}, nil
	case WSLIFO:
		return func(owner, node, _ int) (scpool.SCPool[T], error) {
			return wsbase.New[T](owner, node, cfg.MaxConsumers, wsbase.LIFO)
		}, nil
	default:
		return nil, fmt.Errorf("salsa: unknown algorithm %v", cfg.Algorithm)
	}
}

// Producer returns producer handle i (0 ≤ i < Config.Producers). Repeated
// calls return the same handle; a handle must be driven by a single
// goroutine at a time.
func (p *Pool[T]) Producer(i int) *Producer[T] { return p.producers[i] }

// Consumer returns consumer handle i (0 ≤ i < NumConsumers). Repeated
// calls return the same handle; a handle must be driven by a single
// goroutine at a time. Handles of departed consumers remain accessible
// (closed; their Get panics).
func (p *Pool[T]) Consumer(i int) *Consumer[T] {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.consumers[i]
}

// AddConsumer grows the live consumer set by one at runtime and returns
// the new handle (id = previous NumConsumers). The consumer is placed on
// the least-loaded core of the topology, producers start routing to it on
// their next Put, and it participates in stealing and the emptiness
// protocol immediately. Fails when Config.MaxConsumers ids have been
// registered — ids are never reused, so capacity is lifetime-total.
func (p *Pool[T]) AddConsumer() (*Consumer[T], error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h, err := p.fw.AddConsumer()
	if err != nil {
		return nil, err
	}
	c := &Consumer[T]{h: h, pool: p}
	p.consumers = append(p.consumers, c)
	return c, nil
}

// RetireConsumer gracefully removes consumer id from the live set. The
// caller must have stopped the goroutine driving the handle first. The
// departing pool is abandoned: producers fail over to the remaining
// consumers, its spare chunks drain into the nearest live survivor, and
// every task still queued in it is reclaimed — exactly once — by the
// survivors through the ordinary steal path. The handle is closed (its
// SALSA hazard record released); subsequent Get calls panic. The last
// live consumer cannot retire.
func (p *Pool[T]) RetireConsumer(id int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id < 0 || id >= len(p.consumers) {
		return fmt.Errorf("salsa: consumer id %d out of range [0,%d)", id, len(p.consumers))
	}
	if err := p.fw.RetireConsumer(id); err != nil {
		return err
	}
	c := p.consumers[id]
	if !c.closed.Swap(true) && p.salsa != nil {
		p.salsa.ReleaseConsumer(c.h.State())
	}
	return nil
}

// KillConsumer declares consumer id crashed — the fault-injection path.
// Unlike RetireConsumer it assumes no cooperation from the victim: the
// pool is abandoned and survivors reclaim its tasks, but the victim's
// hazard record is never released (it may still be in use), which can
// pin at most two chunks from recycling. If the victim was killed
// mid-retrieval, at most its single announced in-flight task slot is
// treated as consumed by thieves; a quiescent victim loses nothing.
func (p *Pool[T]) KillConsumer(id int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id < 0 || id >= len(p.consumers) {
		return fmt.Errorf("salsa: consumer id %d out of range [0,%d)", id, len(p.consumers))
	}
	if err := p.fw.KillConsumer(id); err != nil {
		return err
	}
	// killed before closed: a retrieval racing the kill must fall into the
	// soft-fail path (report empty), never the closed panic.
	p.consumers[id].killed.Store(true)
	p.consumers[id].closed.Store(true) // leak the hazard record, by design
	return nil
}

// MembershipEpoch returns the current membership epoch: 0 at construction,
// +1 for every AddConsumer, RetireConsumer or KillConsumer.
func (p *Pool[T]) MembershipEpoch() uint64 { return p.fw.MembershipEpoch() }

// LiveConsumers returns the number of consumers that have not departed.
func (p *Pool[T]) LiveConsumers() int { return p.fw.LiveConsumers() }

// Stats aggregates the operation counters of all handles.
func (p *Pool[T]) Stats() Stats { return p.fw.Stats() }

// Close releases per-consumer resources (SALSA hazard records) for every
// consumer handle. Call once after all worker goroutines have stopped;
// equivalent to calling Close on each Consumer. Safe to call repeatedly.
func (p *Pool[T]) Close() {
	p.mu.Lock()
	consumers := p.consumers[:len(p.consumers):len(p.consumers)]
	p.mu.Unlock()
	for _, c := range consumers {
		c.Close()
	}
}

// NumProducers returns the configured producer count.
func (p *Pool[T]) NumProducers() int { return p.cfg.Producers }

// NumConsumers returns the number of consumers ever registered (departed
// included); consumer ids 0..NumConsumers-1 are valid Consumer indices.
// See LiveConsumers for the live count.
func (p *Pool[T]) NumConsumers() int { return p.fw.NumConsumers() }

// Algorithm returns the configured algorithm.
func (p *Pool[T]) Algorithm() Algorithm { return p.cfg.Algorithm }

// ConsumerAccessList returns the stealing order of consumer i, nearest
// first (self excluded) — diagnostic insight into the NUMA policy. The
// list reflects the current membership epoch and includes departed
// consumers' pools: survivors keep stealing from abandoned pools to
// reclaim their tasks.
func (p *Pool[T]) ConsumerAccessList(i int) []int {
	list := p.fw.Placement().ConsumerAccessList(i)
	out := make([]int, 0, len(list)-1)
	for _, c := range list {
		if c != i {
			out = append(out, c)
		}
	}
	return out
}

// ProducerAccessList returns the insertion order of producer i over all
// registered consumers, nearest first (routing skips departed ones).
func (p *Pool[T]) ProducerAccessList(i int) []int {
	return append([]int(nil), p.fw.Placement().ProducerAccessList(i)...)
}
