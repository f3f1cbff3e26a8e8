package remote

import (
	"sync"
	"sync/atomic"
)

// slab is the memory of one accepted PUT_BATCH frame: its Task values and
// one contiguous copy of their bodies, so a frame costs the allocator
// nothing once slabs circulate — the wire-path analogue of the per-consumer
// chunk pools (paper §1.5.4).
//
// Lifetime: serveProducer fills a slab and publishes pointers into tasks to
// the pool; live counts the tasks not yet served. The single release point
// is serveWorker, after the TASKS frame carrying a task has been written.
// A task that never gets there — taken by a consumer that was killed, sent
// on a connection that failed, handed to a quiesce peer — never releases,
// its slab never reaches zero and is left to the GC. Recycling can therefore
// be late but never early, provided no task is served twice, which is the
// pool's zero-duplicates guarantee (DESIGN.md §9).
type slab struct {
	tasks []Task
	buf   []byte
	live  atomic.Int64
}

// fill copies bodies (which alias a read buffer) into the slab and returns
// its tasks. The slab must be unpublished: fresh or recycled at zero.
func (sl *slab) fill(bodies [][]byte) []Task {
	size := 0
	for _, b := range bodies {
		size += len(b)
	}
	if cap(sl.buf) < size {
		sl.buf = make([]byte, 0, size)
	}
	if cap(sl.tasks) < len(bodies) {
		sl.tasks = make([]Task, len(bodies))
	}
	sl.tasks = sl.tasks[:len(bodies)]
	buf := sl.buf[:0]
	for i, b := range bodies {
		off := len(buf)
		buf = append(buf, b...)
		sl.tasks[i] = Task{Body: buf[off:len(buf):len(buf)], home: sl}
	}
	sl.live.Store(int64(len(bodies)))
	return sl.tasks
}

// Slab retention bounds. The free list is small and fixed on purpose: what
// it holds is heap the collector cannot take back, and a retained slab pins
// more than its own 4 KiB (its two 2 KiB arrays each keep a span in use).
// Measured on shard-stream (EXPERIMENTS.md "Wire-path allocation"): a list
// of 4 leaves 0.007 allocs/task at +6 % heap, 8 leaves 0.006 at +13 %, and
// a sync.Pool never misses (0.003, all of it the pool's own chunk lists) but,
// with almost no GC cycles left to drain it, holds +17 %. A slab grown by an outsized frame is
// not kept at all, so the list pins at most slabFreeCap × (slabKeepBytes +
// slabKeepTasks Tasks).
const (
	slabFreeCap   = 4
	slabKeepBytes = 64 << 10
	slabKeepTasks = 1024
)

// slabList is a shard's bounded LIFO free list of slabs (LIFO: the slab
// released last is the one still in cache).
type slabList struct {
	mu     sync.Mutex
	free   [slabFreeCap]*slab
	n      int
	reused int64 // frames served from the list; read by the reuse round's test
}

// get returns a slab with no live tasks, recycled if one is free.
func (l *slabList) get() *slab {
	l.mu.Lock()
	var sl *slab
	if l.n > 0 {
		l.n--
		sl, l.free[l.n] = l.free[l.n], nil
		l.reused++
	}
	l.mu.Unlock()
	if sl == nil {
		sl = new(slab)
	}
	return sl
}

// release records that n of sl's tasks will never be read again (served, or
// refused by the pool before they were published) and recycles the slab
// when that was the last of them. Releasing more than was filled means a
// task was served twice — its body may already have been overwritten — so
// the guard is a panic in every build, not an assertion.
func (l *slabList) release(sl *slab, n int) {
	left := sl.live.Add(-int64(n))
	if left > 0 {
		return
	}
	if left < 0 {
		panic("remote: slab released more tasks than it holds (a task was served twice)")
	}
	if cap(sl.buf) > slabKeepBytes || cap(sl.tasks) > slabKeepTasks {
		return
	}
	l.mu.Lock()
	if l.n < slabFreeCap {
		l.free[l.n] = sl
		l.n++
	}
	l.mu.Unlock()
}

// releaseServed releases every task of ts, one atomic add per run of tasks
// from the same slab (a frame's tasks mostly leave the pool together).
func (l *slabList) releaseServed(ts []*Task) {
	for i := 0; i < len(ts); {
		sl := ts[i].home
		j := i + 1
		for j < len(ts) && ts[j].home == sl {
			j++
		}
		l.release(sl, j-i)
		i = j
	}
}
