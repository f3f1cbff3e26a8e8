// Package wsbase provides the work-stealing baseline SCPools of the
// paper's evaluation (§1.6.2): WS-MSQ, where each consumer's pool is a
// Michael–Scott FIFO queue, and WS-LIFO, where it is a lock-free LIFO
// stack. In both, consume() and steal() simply dequeue/pop — one task at a
// time, at least one CAS per retrieval — so they isolate what SALSA's
// chunk layout buys on top of plain per-consumer pools.
//
// The underlying queues are unbounded, so Produce never fails and
// producer-based balancing does not engage for these baselines (same as in
// the paper).
package wsbase

import (
	"fmt"

	"salsa/internal/indicator"
	"salsa/internal/lifostack"
	"salsa/internal/msqueue"
	"salsa/internal/scpool"
	"salsa/internal/telemetry"
)

// Discipline selects the pool order: FIFO for WS-MSQ, LIFO for WS-LIFO.
type Discipline int

const (
	// FIFO is the WS-MSQ baseline.
	FIFO Discipline = iota
	// LIFO is the WS-LIFO baseline.
	LIFO
)

// Pool adapts a queue or stack to the SCPool interface.
type Pool[T any] struct {
	ownerIDv  int
	ownerNode int
	disc      Discipline
	q         *msqueue.Queue[*T]
	s         *lifostack.Stack[*T]
	ind       *indicator.Indicator
}

// New builds a pool for consumer ownerID on NUMA node ownerNode using the
// given discipline, supporting emptiness probes by `consumers` consumers.
// The node is only descriptive for these baselines (a shared queue has no
// locality to preserve); it lets steal telemetry attribute node crossings.
func New[T any](ownerID, ownerNode, consumers int, disc Discipline) (*Pool[T], error) {
	if consumers <= 0 {
		return nil, fmt.Errorf("wsbase: consumers must be positive")
	}
	p := &Pool[T]{ownerIDv: ownerID, ownerNode: ownerNode, disc: disc, ind: indicator.New(consumers)}
	switch disc {
	case FIFO:
		p.q = msqueue.New[*T]()
	case LIFO:
		p.s = lifostack.New[*T]()
	default:
		return nil, fmt.Errorf("wsbase: unknown discipline %d", disc)
	}
	return p, nil
}

// OwnerID implements scpool.SCPool.
func (p *Pool[T]) OwnerID() int { return p.ownerIDv }

// Produce enqueues t. The pool is unbounded, so this never fails.
func (p *Pool[T]) Produce(ps *scpool.ProducerState, t *T) bool {
	if t == nil {
		panic("wsbase: nil task")
	}
	// Michael–Scott enqueue: 2 CAS; Treiber push: 1 CAS (amortized, no
	// contention). Count the characteristic attempts for the stats.
	switch p.disc {
	case FIFO:
		ps.Ops.CAS.Add(2)
		p.q.Enqueue(t)
	case LIFO:
		ps.Ops.CAS.Inc()
		p.s.Push(t)
	}
	ps.Ops.Puts.Inc()
	return true
}

// ProduceForce is identical to Produce for unbounded pools.
func (p *Pool[T]) ProduceForce(ps *scpool.ProducerState, t *T) {
	ps.Ops.ForcePuts.Inc()
	p.Produce(ps, t)
}

// take dequeues one task, charging the consumer's counters and the
// emptiness indicator.
func (p *Pool[T]) take(cs *scpool.ConsumerState) *T {
	var t *T
	var ok bool
	switch p.disc {
	case FIFO:
		t, ok = p.q.Dequeue()
	case LIFO:
		t, ok = p.s.Pop()
	}
	cs.Ops.CAS.Inc() // at least one CAS per attempt in both substrates
	if !ok {
		return nil
	}
	// Every take may have been the last: conservatively invalidate
	// emptiness probes. (Detecting "was last" precisely on a shared
	// queue would need another scan; one word store is cheaper.)
	p.ind.Clear()
	return t
}

// Consume dequeues from this pool.
func (p *Pool[T]) Consume(cs *scpool.ConsumerState) *T {
	t := p.take(cs)
	if t != nil {
		cs.Ops.SlowPath.Inc()
	}
	return t
}

// Steal dequeues one task from the victim — the WS-MSQ/WS-LIFO stealing
// granularity is a single task, and the task is returned directly rather
// than migrated (there is no locality to preserve in a shared queue).
func (p *Pool[T]) Steal(cs *scpool.ConsumerState, victimPool scpool.SCPool[T]) *T {
	victim, ok := victimPool.(*Pool[T])
	if !ok {
		panic("wsbase: Steal victim is not a wsbase pool")
	}
	cs.Ops.StealAttempts.Inc()
	t := victim.take(cs)
	if t != nil {
		cs.Ops.Steals.Inc()
		cs.Ops.SlowPath.Inc()
		if tr := cs.Tracer; tr != nil {
			tr.OnSteal(telemetry.StealEvent{
				Thief: p.ownerIDv, Victim: victim.ownerIDv,
				ThiefNode: p.ownerNode, VictimNode: victim.ownerNode,
				TasksMoved: 1,
			})
		}
	}
	return t
}

// IsEmpty reports whether the queue/stack was observed empty.
func (p *Pool[T]) IsEmpty() bool {
	switch p.disc {
	case FIFO:
		return p.q.IsEmpty()
	default:
		return p.s.IsEmpty()
	}
}

// SetIndicator implements the emptiness probe hook.
func (p *Pool[T]) SetIndicator(id int) { p.ind.Set(id) }

// CheckIndicator implements the emptiness probe hook.
func (p *Pool[T]) CheckIndicator(id int) bool { return p.ind.Check(id) }
