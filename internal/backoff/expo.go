package backoff

import (
	"time"

	"salsa/internal/seeded"
)

// Expo defaults: reconnect pacing for wire clients. The first retry waits
// on the order of DefaultExpoMin; consecutive failures double toward
// DefaultExpoMax, which also serves as the failover re-probe horizon for a
// demoted shard.
const (
	DefaultExpoMin = 50 * time.Millisecond
	DefaultExpoMax = 2 * time.Second
)

// Expo is a seeded, jittered exponential backoff for network-facing retry
// loops (client reconnects, shard failover re-probes). It complements
// Backoff, which paces in-process waits at spin/yield/µs-sleep scale:
// network retries start at tens of milliseconds, must spread out
// exponentially so a dead shard is not hammered, and must carry jitter so
// a fleet of clients cut off by the same partition does not reconnect in
// lockstep (the thundering-herd failure mode).
//
// Every delay is a pure function of (Seed, attempt ordinal): a cluster
// chaos run that prints its seed replays the exact same retry timeline.
// The jitter draw is uniform in [step/2, step], so Next never returns less
// than half the nominal exponential step and never more than the step.
// Not safe for concurrent use; give each connection its own Expo.
type Expo struct {
	// Min and Max bound the nominal step: attempt 0 steps Min, each
	// attempt doubles, saturating at Max. Zero values use the defaults.
	Min, Max time.Duration
	// Seed selects the jitter stream. Two Expos with equal Seed (and
	// bounds) produce identical delay sequences.
	Seed uint64

	attempt int
}

// Next returns the delay to wait before the next attempt and advances the
// attempt counter.
func (e *Expo) Next() time.Duration {
	min, max := e.Min, e.Max
	if min <= 0 {
		min = DefaultExpoMin
	}
	if max <= 0 {
		max = DefaultExpoMax
	}
	if max < min {
		max = min
	}
	step := min
	// Cap the shift so a long outage cannot overflow the duration; past
	// ~30 doublings every step is saturated anyway.
	for i := 0; i < e.attempt && i < 30 && step < max; i++ {
		step *= 2
	}
	if step > max {
		step = max
	}
	coin := seeded.Mix(e.Seed ^ (uint64(e.attempt)+1)*0x9e3779b97f4a7c15)
	half := step / 2
	d := half + time.Duration(coin%uint64(half+1))
	e.attempt++
	return d
}

// Attempt returns how many delays Next has handed out since the last
// Reset.
func (e *Expo) Attempt() int { return e.attempt }

// Reset returns the backoff to the first step. Call after a successful
// attempt so the next failure starts the escalation over.
func (e *Expo) Reset() { e.attempt = 0 }
