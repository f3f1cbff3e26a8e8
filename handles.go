package salsa

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"salsa/internal/affinity"
	"salsa/internal/framework"
)

// ErrSaturated is returned by TryPut and TryPutBatch when every consumer
// pool on the producer's access list refused the insert — the pool is out
// of chunk-pool capacity everywhere this producer may reach. Put would have
// force-expanded the closest pool instead; TryPut turns that silent
// expansion into typed backpressure the caller can act on (shed, block,
// retry after a pause).
var ErrSaturated = errors.New("salsa: pool saturated: every reachable consumer pool refused the insert")

// ErrKilled is returned by GetContext when the consumer was declared
// crashed by KillConsumer while the call was waiting.
var ErrKilled = errors.New("salsa: consumer killed")

// Producer inserts tasks into the pool. Each handle is single-goroutine;
// create one handle per producing goroutine.
type Producer[T any] struct {
	h    *framework.Producer[T]
	pool *Pool[T]
}

// Put inserts t. Tasks must be non-nil and, as in the paper's model
// (§1.3.3), each live *T should be inserted at most once at a time;
// re-inserting a pointer after it was consumed is fine.
func (p *Producer[T]) Put(t *T) { p.h.Put(t) }

// PutBatch inserts every task of ts (all non-nil), amortizing per-task
// synchronization across the batch: the access-list walk happens once per
// run, and batch-capable substrates (SALSA) fill consecutive chunk slots
// with one chunk acquisition per chunk instead of per-call bookkeeping.
// Semantically equivalent to calling Put on each task in order.
func (p *Producer[T]) PutBatch(ts []*T) { p.h.PutBatch(ts) }

// TryPut inserts t like Put but without the force-expansion escape hatch:
// when every pool on the producer's access list refuses the insert (chunk
// pools exhausted everywhere), the task is rejected with ErrSaturated and
// the caller keeps ownership of t. Use it to build bounded pipelines where
// overload should surface as backpressure instead of unbounded memory
// growth.
func (p *Producer[T]) TryPut(t *T) error {
	if p.h.TryPut(t) {
		return nil
	}
	return ErrSaturated
}

// TryPutBatch inserts a prefix of ts and returns how many tasks were
// accepted. err is ErrSaturated exactly when n < len(ts); tasks ts[n:]
// remain owned by the caller.
func (p *Producer[T]) TryPutBatch(ts []*T) (n int, err error) {
	n = p.h.TryPutBatch(ts)
	if n < len(ts) {
		return n, ErrSaturated
	}
	return n, nil
}

// ID returns the handle's producer id.
func (p *Producer[T]) ID() int { return p.h.ID() }

// Node returns the NUMA node this producer is placed on.
func (p *Producer[T]) Node() int { return p.h.Node() }

// Stats returns this producer's operation counters.
func (p *Producer[T]) Stats() Stats { return p.h.Ops() }

// Pin locks the calling goroutine to an OS thread and binds it to the core
// assigned to this producer by the placement. Returns true when the OS
// accepted the binding (Linux with enough CPUs); pinning is advisory
// elsewhere. Pair with Unpin.
func (p *Producer[T]) Pin() bool {
	core := p.pool.fw.Placement().ProducerCores[p.h.ID()]
	return affinity.Pin(core) == affinity.Pinned
}

// Unpin releases the OS-thread binding taken by Pin.
func (p *Producer[T]) Unpin() { affinity.Unpin() }

// Consumer retrieves tasks from the pool. Each handle is single-goroutine;
// create one handle per consuming goroutine.
type Consumer[T any] struct {
	h    *framework.Consumer[T]
	pool *Pool[T]

	// closed is set by Close, RetireConsumer and KillConsumer. The Get
	// family checks it first and panics deterministically: Close
	// releases the handle's hazard record, and a racing retrieval would
	// otherwise act on freed synchronization state — a silent
	// use-after-free, not a recoverable condition.
	//
	// killed is the exception: KillConsumer raises it before closed, and
	// a killed handle soft-fails (Get returns empty, GetContext returns
	// ErrKilled) instead of panicking. A kill models a crash and can fire
	// from *inside* the victim's own retrieval — a failpoint hook in a
	// steal window calling KillConsumer — so the in-flight call must be
	// able to unwind through the retry loop. Its hazard record is leaked
	// by design, so no use-after-free is possible either.
	closed atomic.Bool
	killed atomic.Bool
}

// checkOpen panics when the handle was closed — unless the close was a
// kill, which soft-fails; see the field comment. Returns true when the
// caller may proceed into the framework handle, false when it must report
// empty.
func (c *Consumer[T]) checkOpen() bool {
	if c.killed.Load() {
		return false
	}
	if c.closed.Load() {
		panic(fmt.Sprintf("salsa: consumer %d used after Close", c.h.ID()))
	}
	return true
}

// Get retrieves a task. ok=false means the pool was empty at some instant
// during the call (linearizable, unless the pool was configured with
// NonLinearizableEmpty). Panics if the handle was closed.
func (c *Consumer[T]) Get() (t *T, ok bool) {
	if !c.checkOpen() {
		return nil, false
	}
	return c.h.Get()
}

// TryGet performs one consume-then-steal pass. ok=false means this pass
// found nothing, not that the pool was empty. Panics if the handle was
// closed.
func (c *Consumer[T]) TryGet() (t *T, ok bool) {
	if !c.checkOpen() {
		return nil, false
	}
	return c.h.TryGet()
}

// GetBatch retrieves up to len(dst) tasks into dst and returns the number
// retrieved. Zero means the pool was empty at some instant during the call
// (linearizable, unless configured with NonLinearizableEmpty) — the same
// contract as Get's ok=false. Batch-capable substrates amortize the hazard
// publish and chunk validation across each run of consecutive tasks, and a
// successful steal drains the migrated chunk's remainder into dst instead
// of surfacing one task.
func (c *Consumer[T]) GetBatch(dst []*T) int {
	if !c.checkOpen() {
		return 0
	}
	return c.h.GetBatch(dst)
}

// TryGetBatch performs one batched consume-then-steal pass. Zero means this
// pass found nothing, not that the pool was empty. Panics if the handle
// was closed.
func (c *Consumer[T]) TryGetBatch(dst []*T) int {
	if !c.checkOpen() {
		return 0
	}
	return c.h.TryGetBatch(dst)
}

// GetWait retrieves a task, waiting through empty periods — bounded
// spin→yield→sleep backoff, not a hot spin — until one arrives or stop is
// closed. Panics if the handle was closed.
func (c *Consumer[T]) GetWait(stop <-chan struct{}) (t *T, ok bool) {
	if !c.checkOpen() {
		return nil, false
	}
	return c.h.GetWait(stop)
}

// GetContext retrieves a task, waiting like GetWait until one arrives or
// ctx is cancelled (deadlines count). On cancellation it returns ctx.Err();
// if the consumer is declared crashed by KillConsumer while waiting it
// returns ErrKilled. A parked waiter observes cancellation within the
// backoff's maximum sleep (1ms). Panics if the handle was closed.
func (c *Consumer[T]) GetContext(ctx context.Context) (*T, error) {
	if !c.checkOpen() {
		return nil, ErrKilled
	}
	t, err := c.h.GetContext(ctx)
	if errors.Is(err, framework.ErrKilled) {
		return nil, ErrKilled
	}
	return t, err
}

// ID returns the handle's consumer id.
func (c *Consumer[T]) ID() int { return c.h.ID() }

// Killed reports whether this consumer was declared crashed by
// KillConsumer. A killed handle's Get family returns empty (soft-fail, not
// the Close panic), so a driving loop that sees empty should consult Killed
// to distinguish "pool drained" from "I am dead".
func (c *Consumer[T]) Killed() bool { return c.killed.Load() }

// Node returns the NUMA node this consumer is placed on.
func (c *Consumer[T]) Node() int { return c.h.Node() }

// Stats returns this consumer's operation counters.
func (c *Consumer[T]) Stats() Stats { return c.h.Ops() }

// Pin locks the calling goroutine to an OS thread and binds it to the core
// assigned to this consumer by the current membership epoch's placement
// (consumers added at runtime get the least-loaded core at join time).
func (c *Consumer[T]) Pin() bool {
	core := c.pool.fw.Placement().ConsumerCores[c.h.ID()]
	return affinity.Pin(core) == affinity.Pinned
}

// Unpin releases the OS-thread binding taken by Pin.
func (c *Consumer[T]) Unpin() { affinity.Unpin() }

// Close releases per-consumer resources (SALSA's hazard record). Call when
// the consuming goroutine retires. Idempotent: repeated Close calls are
// no-ops, and a handle already closed by Pool.Close, RetireConsumer or
// KillConsumer stays closed. After the first Close, any Get-family call
// on this handle panics — the hazard record is gone, so retrieving
// through a closed handle would race on freed synchronization state.
//
// Close does not remove the consumer from the pool's membership; its
// SCPool keeps accepting produced tasks. To take the consumer out of
// service, use Pool.RetireConsumer (which also closes the handle).
func (c *Consumer[T]) Close() {
	if c.closed.Swap(true) {
		return
	}
	if c.pool.salsa != nil {
		c.pool.salsa.ReleaseConsumer(c.h.State())
	}
}
