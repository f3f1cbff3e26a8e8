// Package scpool defines the single-consumer-pool abstraction of the paper
// (§1.4, Algorithm 1): the mechanism half of SALSA's mechanism/policy split.
//
// An SCPool manages the tasks arriving at one consumer and allows other
// consumers to steal. The management policy (internal/framework) composes
// SCPools: it routes producer requests along access lists and initiates
// stealing, independent of which SCPool implementation is underneath. The
// repository provides five implementations, matching the paper's evaluated
// algorithms: SALSA (internal/core), SALSA+CAS (internal/salsacas),
// Concurrent Bags (internal/concbag), WS-MSQ and WS-LIFO (internal/wsbase).
package scpool

import (
	"salsa/internal/stats"
	"salsa/internal/telemetry"
)

// ProducerState is the per-producer context threaded through Produce calls.
// A ProducerState must be used by one goroutine at a time.
type ProducerState struct {
	// ID is the dense producer id (0..P-1).
	ID int
	// FID is the flight-recorder actor id: FlightBase + ID. Several pools
	// in one process share the global recorder with disjoint FID ranges;
	// routing and placement always use ID.
	FID int
	// Node is the NUMA node the producer runs on; implementations record
	// it as the home of chunks the producer allocates under the local
	// allocation policy.
	Node int
	// Ops gathers this producer's operation counts.
	Ops stats.Ops
	// Tracer, when non-nil, receives telemetry events from the pool
	// paths driven by this handle. Every emission site is an inline nil
	// check, so the nil default costs one predictable branch.
	Tracer telemetry.Tracer
	// Scratch holds implementation-private state (e.g. SALSA's current
	// chunk and insertion index). Owned by the SCPool implementation.
	Scratch any
}

// ConsumerState is the per-consumer context threaded through Consume and
// Steal calls. A ConsumerState must be used by one goroutine at a time.
type ConsumerState struct {
	// ID is the dense consumer id (0..C-1).
	ID int
	// FID is the flight-recorder actor id: FlightBase + ID. Several pools
	// in one process share the global recorder with disjoint FID ranges;
	// routing, placement and stealing always use ID.
	FID int
	// Node is the NUMA node the consumer runs on.
	Node int
	// Ops gathers this consumer's operation counts.
	Ops stats.Ops
	// Tracer, when non-nil, receives telemetry events from the pool
	// paths driven by this handle (steals, chunk transfers).
	Tracer telemetry.Tracer
	// Scratch holds implementation-private state (e.g. SALSA's cached
	// current node).
	Scratch any
}

// SCPool is the single-consumer pool API of Algorithm 1. Implementations
// must be lock-free: Produce, Consume and Steal never block on other
// threads' progress.
type SCPool[T any] interface {
	// OwnerID returns the id of the consumer owning this pool.
	OwnerID() int

	// Produce tries to insert the task into the pool; it returns false
	// when the pool has no space (for SALSA: the owner's chunk pool has
	// no spare chunk), which the policy treats as "this consumer is
	// overloaded".
	Produce(p *ProducerState, t *T) bool

	// ProduceForce inserts the task, expanding the pool if necessary.
	// It always succeeds.
	ProduceForce(p *ProducerState, t *T)

	// Consume retrieves a task. Only the owning consumer may call it.
	// Returns nil when no task was found (which does not linearize as
	// emptiness; see the framework's checkEmpty).
	Consume(c *ConsumerState) *T

	// Steal moves tasks from victim into this pool and returns one of
	// them, or nil. Called by this pool's owner; victim must be a pool
	// of the same implementation.
	Steal(c *ConsumerState, victim SCPool[T]) *T

	// IsEmpty reports whether a scan of the pool found no untaken task.
	// Instantaneous (may go stale immediately); the framework's
	// checkEmpty protocol layers indicator rounds on top to obtain a
	// linearizable answer. (The thesis' Algorithm 1 annotates isEmpty
	// with the opposite sense to its Algorithm 2 call site; we follow
	// the call site: true means empty.)
	IsEmpty() bool

	// SetIndicator sets consumer id's bit in the pool's empty-indicator.
	SetIndicator(id int)

	// CheckIndicator reports whether consumer id's bit is still set.
	CheckIndicator(id int) bool
}

// BatchSCPool is the optional batch capability of an SCPool. An
// implementation that can amortize per-task synchronization across a run of
// tasks (SALSA: one chunk-pool/access-list decision per chunk on the
// produce side, one hazard publish and chunk validation per run on the
// consume side) exports native batch operations through this interface; the
// framework discovers it with a type assertion and falls back to the
// per-task calls for every other substrate, so batching is purely an
// optimization — semantics are those of the equivalent per-task sequence.
type BatchSCPool[T any] interface {
	SCPool[T]

	// ProduceBatch inserts a prefix of ts and returns its length. A
	// short count means the pool ran out of space (same overload signal
	// as a Produce returning false); the caller owns the untaken suffix.
	ProduceBatch(p *ProducerState, ts []*T) int

	// ConsumeBatch moves up to len(dst) tasks into dst and returns the
	// number moved. Only the owning consumer may call it. Zero does not
	// linearize as emptiness, exactly like a nil Consume.
	ConsumeBatch(c *ConsumerState, dst []*T) int
}

// Abandoner is the optional abandonment capability of an SCPool, used by
// elastic membership (internal/framework) when a consumer retires or is
// declared crashed. Abandon marks the pool as ownerless: subsequent Produce
// calls fail (so producer-based balancing routes around the pool the same
// way it routes around an overloaded one), while Consume-side structures
// stay intact so surviving consumers reclaim the remaining tasks through
// the ordinary Steal path. Abandon introduces no new synchronization on the
// owner's consume fast path — it is a cold-path flag read only where
// Produce already branches.
//
// Substrates without this capability still support membership changes
// through the generic fallback: the framework stops routing producers to
// the pool and keeps it on every survivor's victim list, so Steal drains
// it; the only difference is that in-flight producers are not actively
// repelled (their tasks land in the abandoned pool and are stolen later).
type Abandoner interface {
	// Abandon marks the pool ownerless. Idempotent.
	Abandon()
}

// Abandon marks pool abandoned when it has the capability; it reports
// whether the pool accepted the mark (false means the generic fallback —
// routing exclusion plus steal-based draining — is all the framework gets).
func Abandon[T any](pool SCPool[T]) bool {
	if a, ok := pool.(Abandoner); ok {
		a.Abandon()
		return true
	}
	return false
}

// SpareDrainer is the optional chunk-pool drain capability: a substrate
// whose pools hold spare chunks (SALSA, SALSA+CAS) can hand an abandoned
// pool's spares to a survivor so the memory and the producer-based
// balancing signal follow the live consumer set. dst must be a pool of the
// same implementation.
type SpareDrainer[T any] interface {
	// DrainSparesInto moves every spare chunk of this pool into dst's
	// chunk pool and returns the number moved. Safe to call concurrently
	// with pool operations; chunks that arrive after the drain are
	// reclaimed by the next drain or stay until stolen producers stop.
	DrainSparesInto(dst SCPool[T]) int
}

// DrainSpares moves src's spare chunks into dst when the substrate has the
// capability, returning the number moved (0 otherwise).
func DrainSpares[T any](src, dst SCPool[T]) int {
	if d, ok := src.(SpareDrainer[T]); ok {
		return d.DrainSparesInto(dst)
	}
	return 0
}

// TaskCounter is the optional visible-task census capability, used by
// telemetry to report orphaned tasks awaiting reclamation in abandoned
// pools. The count is an instantaneous scan, stale the moment it returns.
type TaskCounter interface {
	// VisibleTasks returns the number of produced, untaken tasks a scan
	// of the pool observed.
	VisibleTasks() int
}

// VisibleTasks returns pool's instantaneous untaken-task census, or 0 when
// the substrate cannot count (shared-structure substrates attribute their
// tasks to no single pool).
func VisibleTasks[T any](pool SCPool[T]) int {
	if c, ok := pool.(TaskCounter); ok {
		return c.VisibleTasks()
	}
	return 0
}

// ProduceBatch inserts a prefix of ts into pool, using the native batch path
// when the implementation has one and per-task Produce otherwise. Returns
// the number inserted; a short count is the pool's overload signal.
func ProduceBatch[T any](pool SCPool[T], p *ProducerState, ts []*T) int {
	if b, ok := pool.(BatchSCPool[T]); ok {
		return b.ProduceBatch(p, ts)
	}
	for i, t := range ts {
		if !pool.Produce(p, t) {
			return i
		}
	}
	return len(ts)
}

// ConsumeBatch drains up to len(dst) tasks from pool into dst, using the
// native batch path when available and per-task Consume otherwise. Returns
// the number of tasks moved; zero does not linearize as emptiness.
func ConsumeBatch[T any](pool SCPool[T], c *ConsumerState, dst []*T) int {
	if b, ok := pool.(BatchSCPool[T]); ok {
		return b.ConsumeBatch(c, dst)
	}
	n := 0
	for n < len(dst) {
		t := pool.Consume(c)
		if t == nil {
			break
		}
		dst[n] = t
		n++
	}
	return n
}
