// Package netchaos is a TCP fault injector for cluster chaos testing: an
// in-process proxy (a listener pair forwarding bytes) whose faults are
// scripted by seeded, replayable schedules in the same
// `site=action[:delay][@rate][#count]` grammar the failpoint package uses
// for in-process faults. Network faults thus compose with the existing
// chaos matrix: a scenario is fully described by a seed plus two spec
// strings, and replaying them reproduces the same fault sequence (up to
// the kernel interleaving the faults provoke).
//
// Sites name where in the connection's life a rule applies:
//
//	accept — evaluated once per accepted client connection
//	c2s    — evaluated per forwarded chunk, client→server direction
//	s2c    — evaluated per forwarded chunk, server→client direction
//
// Actions model the classic network pathologies:
//
//	delay:d    — hold the chunk (or the accept) for a jittered d
//	reset      — tear the connection down mid-stream (a prefix of the
//	             chunk may have been delivered: the mid-frame cut)
//	blackhole  — at accept: swallow the connection (never dial the
//	             target, never answer). On a direction: silently stop
//	             forwarding that direction while the other flows — a
//	             one-way partition.
//	drip       — deliver the chunk in small slices, delay d apart: a
//	             severely throttled link (lease near-expiry fodder).
package netchaos

import (
	"time"

	"salsa/internal/seeded"
)

// Site is where in a proxied connection's life a rule is evaluated.
type Site int

// Sites.
const (
	// SiteAccept is evaluated once per accepted client connection,
	// before the proxy dials the target.
	SiteAccept Site = iota
	// SiteC2S is evaluated for every forwarded chunk flowing
	// client→server.
	SiteC2S
	// SiteS2C is evaluated for every forwarded chunk flowing
	// server→client.
	SiteS2C
)

// Action is the fault a rule injects when it fires.
type Action int

// Actions.
const (
	// ActionDelay holds the chunk (or the accept) for a jittered
	// duration in [d/2, d].
	ActionDelay Action = iota
	// ActionReset forwards a coin-chosen prefix of the chunk, then
	// tears both directions down with an RST-style close: the mid-frame
	// connection cut.
	ActionReset
	// ActionBlackhole: at accept, the connection is swallowed (target
	// never dialed, client never answered). On a data direction, that
	// direction silently stops forwarding while the reverse one keeps
	// flowing — a one-way partition.
	ActionBlackhole
	// ActionDrip delivers the chunk in small slices spaced d apart —
	// a link throttled far below the protocol's expectations.
	ActionDrip
)

// grammar is netchaos's vocabulary of the shared schedule format (see
// seeded.Grammar); sites index by Site, actions by Action. A delay or drip
// written without a duration gets 1ms.
var grammar = seeded.Grammar{
	Prefix: "netchaos",
	Sites:  []string{SiteAccept: "accept", SiteC2S: "c2s", SiteS2C: "s2c"},
	Actions: []seeded.Action{
		ActionDelay:     {Name: "delay", TakesDelay: true, Default: time.Millisecond},
		ActionReset:     {Name: "reset"},
		ActionBlackhole: {Name: "blackhole"},
		ActionDrip:      {Name: "drip", TakesDelay: true, Default: time.Millisecond},
	},
}

// Schedule is a seeded, replayable set of fault rules for one Proxy. Seed,
// Spec and the firing census come from the embedded engine schedule.
type Schedule struct{ *seeded.Schedule }

// ParseSchedule parses a comma-separated spec with seed. Each rule is
// `site=action[:delay][@rate][#count]`:
//
//	s2c=reset@0.05#3        sever server→client mid-frame, 5% of chunks, 3× max
//	c2s=delay:5ms@0.2       jitter a fifth of client→server chunks by ~5ms
//	accept=blackhole#1      swallow the first connection attempt
//	c2s=drip:20ms@0.1       throttle 10% of chunks to a slow drip
func ParseSchedule(seed uint64, spec string) (*Schedule, error) {
	eng, err := grammar.Parse(seed, spec)
	if err != nil {
		return nil, err
	}
	return &Schedule{eng}, nil
}

// pick evaluates the site's rules for one visit and returns the first
// rule that fires, with the coin that decided it (reused by reset to
// choose the delivered prefix). Returns nil when no rule fires. The rule
// index is part of the coin so equal rules on one site differ.
func (s *Schedule) pick(site Site) (*seeded.Rule, uint64) {
	for _, r := range s.Rules() {
		if Site(r.Site) != site {
			continue
		}
		coin := seeded.Mix(s.Seed() ^ (uint64(site)+1)<<32 ^ (uint64(r.Index)+1)<<48 ^ r.Visit())
		if r.Fire(coin) {
			return r, coin
		}
	}
	return nil, 0
}
