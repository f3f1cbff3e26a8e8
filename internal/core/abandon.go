package core

import (
	"salsa/internal/scpool"
)

// This file implements SALSA's native elastic-membership capabilities
// (scpool.Abandoner, scpool.SpareDrainer, scpool.TaskCounter): the pool
// side of runtime consumer retirement.
//
// Abandonment leans entirely on the paper's existing ownership machinery.
// A retired consumer's chunks stay in its pool's lists, still owned by the
// departed consumer id; survivors reclaim them through the ordinary
// two-CAS Steal path — the same operation that rebalances load between
// live consumers — so retirement adds no new synchronization anywhere.
// The abandoned flag is consulted only where Produce already branches
// (getting a chunk / rejecting an insert), never on the owner's CAS-free
// consume path, which a retired consumer by definition no longer runs.

// Abandon marks the pool ownerless: subsequent Produce/ProduceBatch calls
// fail, which producer-based balancing reads as "route elsewhere" — the
// same signal as an exhausted chunk pool (§1.5.4), reused for membership.
// ProduceForce still succeeds (its contract is unconditional), and a
// producer mid-fill keeps publishing into a chunk already listed here;
// both are safe because the pool remains on every survivor's victim list
// and in the emptiness scan forever, so such stragglers are stolen, not
// lost. Idempotent; safe to call concurrently with pool operations.
func (p *Pool[T]) Abandon() {
	// Mark the id departed before the pool abandoned: once any thread can
	// observe the abandonment, the steal path's departed-owner rescue is
	// already willing to reclaim chunks stranded under this id.
	p.shared.markDeparted(p.ownerIDv)
	p.abandoned.Store(true)
}

// DrainSparesInto implements scpool.SpareDrainer: move every spare chunk
// of this (typically just-abandoned) pool into dst's chunk pool, returning
// the number moved. The chunks were hazard-gated when they entered this
// pool's chunk pool and are unreachable from any list, so they transfer
// queue-to-queue without re-gating; dst's next producer resets them while
// holding them exclusively, exactly as it would a locally recycled spare.
// Draining restores the producer-based balancing signal: spares held by a
// departed consumer would otherwise neither attract producers (the pool
// rejects inserts) nor count toward any live consumer's capacity.
func (p *Pool[T]) DrainSparesInto(dstPool scpool.SCPool[T]) int {
	dst, ok := dstPool.(*Pool[T])
	if !ok {
		panic("core: DrainSparesInto destination is not a SALSA pool")
	}
	if dst == p {
		return 0
	}
	n := 0
	for {
		ch, ok := p.chunks.Get()
		if !ok {
			return n
		}
		dst.chunks.Put(nil, ch)
		n++
	}
}

// VisibleTasks implements scpool.TaskCounter: count the produced, untaken
// tasks an IsEmpty-style scan observes. Instantaneous — the census is
// stale the moment it returns; telemetry uses it as the orphaned-task
// gauge for abandoned pools.
func (p *Pool[T]) VisibleTasks() int {
	count := 0
	for _, l := range p.lists {
		for e := l.first(); e != nil; e = e.next.Load() {
			n := e.node.Load()
			ch := n.chunk.Load()
			if ch == nil {
				continue
			}
			idx := n.idx.Load()
			for i := idx + 1; i < int64(len(ch.tasks)); i++ {
				t := ch.tasks[i].p.Load()
				if t == nil {
					break // produced prefix ended
				}
				if t != p.shared.taken {
					count++
				}
			}
		}
	}
	return count
}
