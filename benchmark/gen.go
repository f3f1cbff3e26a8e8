package main

import (
	"math"
	"runtime"
	"time"
)

// rng is splitmix64: its sequence is a documented function of the seed, so
// -seed N names one arrival schedule and one set of body bytes. (The repo's
// other copies are unexported; merging them is ROADMAP item 3.)
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// expo returns an Exp(1) variate, the inter-arrival law of a Poisson process.
func (r *rng) expo() float64 {
	u := float64(r.next()>>11) / (1 << 53)
	for u == 0 {
		u = float64(r.next()>>11) / (1 << 53)
	}
	return -math.Log(u)
}

// poissonDue returns n due times in nanoseconds from the start of a leg, a
// Poisson process of the given rate.
func poissonDue(r *rng, n int, perSecond float64) []int64 {
	due := make([]int64, n)
	t := 0.0
	for i := range due {
		t += r.expo() / perSecond
		due[i] = int64(t * 1e9)
	}
	return due
}

// newBodies returns n bodies of size bytes filled from r. The first 8 bytes
// of each are overwritten with the task sequence before every send.
func newBodies(r *rng, n, size int) [][]byte {
	flat := make([]byte, n*size)
	for i := 0; i+8 <= len(flat); i += 8 {
		v := r.next()
		for k := range 8 {
			flat[i+k] = byte(v >> (8 * k))
		}
	}
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = flat[i*size : (i+1)*size : (i+1)*size]
	}
	return bodies
}

// epoch anchors nowNs: one monotonic clock for due times, stamps and spans.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// lateNs is how long a send may start after it could have before it counts in
// bench.late_frac.
const lateNs = 100_000

// waitUntil spins until the clock reaches at and returns the time it saw. A
// sleep overshoots lateNs, so it never sleeps. Whether it first yields is the
// caller's calibration (README "Calibration"): over loopback the shard's
// handlers need a turn on the dispatcher's P between sends, in process a
// yield hands the P to the worker's backoff and the dispatcher comes back
// late.
//
// late reports generator health: the send starts more than lateNs after both
// its due time and the moment the generator was free to make it. A previous
// call that overran this due time is the system's latency — already charged,
// since latency runs from the due time — and not the generator's lateness.
func waitUntil(at int64, yield bool) (now int64, late bool) {
	free := nowNs()
	if yield {
		runtime.Gosched()
	}
	for now = nowNs(); now < at; now = nowNs() {
	}
	return now, now-max(at, free) > lateNs
}
