package salsacas

import (
	"salsa/internal/scpool"
)

// Native elastic-membership capabilities (scpool.Abandoner,
// scpool.SpareDrainer, scpool.TaskCounter) for the SALSA+CAS baseline.
//
// The baseline has no chunk ownership, so abandonment is even simpler than
// in SALSA: every take — owner or thief — is already the same index CAS, so
// survivors drain an abandoned pool through their ordinary Steal path with
// no protocol change at all. The abandoned flag only gates the produce
// side, reusing the producer-based balancing failure signal.

// Abandon marks the pool ownerless: Produce/ProduceBatch fail from now on,
// routing producers to live pools, while the consume/steal side keeps
// working so survivors reclaim the remaining tasks. Idempotent.
func (p *Pool[T]) Abandon() { p.abandoned.Store(true) }

// DrainSparesInto implements scpool.SpareDrainer: move every spare chunk of
// this pool into dst's chunk pool, returning the number moved. Spares are
// unreachable from any list and this family has no hazard domain, so a
// queue-to-queue transfer is trivially safe.
func (p *Pool[T]) DrainSparesInto(dstPool scpool.SCPool[T]) int {
	dst, ok := dstPool.(*Pool[T])
	if !ok {
		panic("salsacas: DrainSparesInto destination is not a SALSA+CAS pool")
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

// VisibleTasks implements scpool.TaskCounter: count produced, unclaimed
// tasks past each node's consumed prefix. Instantaneous; telemetry uses it
// as the orphaned-task gauge for abandoned pools.
func (p *Pool[T]) VisibleTasks() int {
	count := 0
	for _, l := range p.lists {
		for e := l.first(); e != nil; e = e.next.Load() {
			n := e.node
			ch := n.chunk.Load()
			if ch == nil {
				continue
			}
			idx := n.idx.Load()
			for i := idx + 1; i < int64(len(ch.tasks)); i++ {
				if ch.tasks[i].Load() == nil {
					break // produced prefix ended
				}
				count++
			}
		}
	}
	return count
}
