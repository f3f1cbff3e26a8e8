// Package seeded is the one place that knows the two decisions every
// replayable harness in this repo shares: how a seed becomes a coin (Mix and
// the RNG stream built on it) and how a fault schedule is written, parsed and
// fired (Grammar, Rule.Fire). failpoint, netchaos, loadgen, dst and
// backoff.Expo all draw from here, so "same seed ⇒ same sequence" is one
// contract with one implementation. DESIGN.md "Seeded determinism".
package seeded

import "math"

// gamma is SplitMix64's stream increment (the odd integer nearest 2^64/φ).
const gamma = 0x9e3779b97f4a7c15

// Mix is the SplitMix64 output function applied to x+gamma: a cheap,
// well-mixed, stateless hash. Stateless users (a per-visit fault coin, a
// per-attempt backoff jitter) hash their coordinates with it directly, which
// makes each decision a pure function of (seed, coordinates) whatever order
// goroutines arrive in.
func Mix(x uint64) uint64 {
	x += gamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RNG is the SplitMix64 stream: 64-bit state, passes BigCrush, and — unlike
// math/rand — its sequence is a documented function of the seed, which is
// what makes schedule replay a contract rather than a happy accident. The
// zero value is the stream of seed 0. Not safe for concurrent use.
type RNG struct{ s uint64 }

// NewRNG returns the stream of seed.
func NewRNG(seed uint64) *RNG { return &RNG{s: seed} }

// Uint64 returns the next 64 bits of the stream.
func (r *RNG) Uint64() uint64 {
	v := Mix(r.s)
	r.s += gamma
	return v
}

// Float64 returns a uniform variate in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 { return unit(r.Uint64()) }

// Intn returns a uniform int in [0, n). For n <= 1 it returns 0 without
// consuming a draw — recorded DST seeds depend on that.
func (r *RNG) Intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Expo returns an Exp(1) variate — the inter-arrival law of a unit-rate
// Poisson process.
func (r *RNG) Expo() float64 {
	u := r.Float64()
	for u == 0 { // log(0) guard; probability 2^-53 per draw
		u = r.Float64()
	}
	return -math.Log(u)
}

// unit maps a coin's top 53 bits to [0, 1).
func unit(coin uint64) float64 { return float64(coin>>11) / (1 << 53) }
