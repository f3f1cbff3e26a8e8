package failpoint

import (
	"runtime"
	"sort"
	"time"

	"salsa/internal/seeded"
)

// Kind is the action a schedule rule performs when it fires.
type Kind int

const (
	// KindDelay sleeps for the rule's Delay inside the window.
	KindDelay Kind = iota
	// KindYield calls runtime.Gosched inside the window.
	KindYield
	// KindFail makes the gate site report failure (e.g. an exhausted
	// chunk pool, a consumer dying before/after its announce). At
	// inject-only sites the result is ignored, so KindFail degrades to
	// a no-op there.
	KindFail
	// KindKill declares the acting consumer crashed via the registered
	// kill function, then reports failure so the site's gate simulates
	// the death. If the kill function declines (or none is registered)
	// the rule does not fire and its Count budget is not consumed.
	KindKill
)

// grammar is failpoint's vocabulary of the shared schedule format (see
// seeded.Grammar): sites are the catalogue, actions index by Kind.
var grammar = seeded.Grammar{
	Prefix: "failpoint",
	Sites:  siteNames[:],
	Actions: []seeded.Action{
		KindDelay: {Name: "delay", TakesDelay: true, Default: 100 * time.Microsecond},
		KindYield: {Name: "yield"},
		KindFail:  {Name: "fail"},
		KindKill:  {Name: "kill"},
	},
	Normalize: normalize,
}

// normalize rewrites the two rules that would be unsound as written.
func normalize(r *seeded.Rule) {
	// A kill on membership.before-epoch-publish is downgraded to fail:
	// that site fires inside the membership control plane with its locks
	// held, and the kill function re-enters the same locks — a guaranteed
	// self-deadlock, never a useful fault.
	if Kind(r.Action) == KindKill && Site(r.Site) == MembershipBeforeEpochPublish {
		r.Action = int(KindFail)
	}
	// The converse upgrade on the mid-steal site: its gate simulates the
	// thief dying after the ownership CAS, which is only sound when the
	// thief is actually declared crashed (the stranded chunk is reclaimed
	// through the departed-owner rescue). A bare fail would strand the
	// chunk under a live owner and silently lose its tasks.
	if Kind(r.Action) == KindFail && Site(r.Site) == MembershipKillMidSteal {
		r.Action = int(KindKill)
	}
}

// Schedule is a seeded, replayable set of rules. Arm registers one hook per
// scripted site; every firing decision derives from the seed alone, so
// printing Seed()+Spec() after a failure is enough to reproduce it (up to
// the scheduler interleaving the faults provoke). Seed, Spec, Rules and the
// firing census come from the embedded engine schedule.
type Schedule struct {
	*seeded.Schedule
	rules []*ruleState
	armed bool
}

// ruleState is one engine rule with failpoint's way of executing it.
type ruleState struct{ *seeded.Rule }

// ParseSchedule parses a comma-separated schedule spec with seed. Each rule
// is `site=action[:delay][@rate][#count]`:
//
//	steal.after-owner-cas=delay:200us@0.2
//	membership.kill-mid-steal=kill@0.01#2
//	chunkpool.exhausted=fail@0.5
//	checkempty.between-scans=yield
func ParseSchedule(seed uint64, spec string) (*Schedule, error) {
	eng, err := grammar.Parse(seed, spec)
	if err != nil {
		return nil, err
	}
	s := &Schedule{Schedule: eng}
	for _, r := range eng.Rules() {
		s.rules = append(s.rules, &ruleState{r})
	}
	return s, nil
}

// Arm registers the schedule's rules with the global registry (one hook per
// scripted site; multiple rules on one site are evaluated in declaration
// order, first firing action wins). Arm replaces any hooks previously set
// on those sites. Call Disarm (or Reset) when done.
func (s *Schedule) Arm() {
	bySite := make(map[Site][]*ruleState)
	var order []Site
	for _, r := range s.rules {
		site := Site(r.Site)
		if _, seen := bySite[site]; !seen {
			order = append(order, site)
		}
		bySite[site] = append(bySite[site], r)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, site := range order {
		rules := bySite[site]
		seed := s.Seed()
		Set(site, func(site Site, id int) bool {
			for _, r := range rules {
				if r.apply(seed, site, id) {
					return true
				}
			}
			return false
		})
	}
	s.armed = true
}

// Disarm clears the hooks Arm registered. Firing counters survive for
// post-run inspection; re-Arm continues the visit sequence.
func (s *Schedule) Disarm() {
	if !s.armed {
		return
	}
	for _, r := range s.rules {
		Clear(Site(r.Site))
	}
	s.armed = false
}

// apply evaluates one rule for one visit; reports whether the rule fired
// with a failure result (gate sites treat true as "simulate the failure").
func (r *ruleState) apply(seed uint64, site Site, id int) bool {
	// Deterministic per-visit coin: a pure function of (seed, site, visit),
	// independent of scheduling.
	if !r.Fire(seeded.Mix(seed ^ (uint64(site)+1)<<32 ^ r.Visit())) {
		return false
	}
	switch Kind(r.Action) {
	case KindDelay:
		time.Sleep(r.Delay)
	case KindYield:
		runtime.Gosched()
	case KindFail:
		return true
	case KindKill:
		if Kill(id) {
			return true
		}
		r.Refund() // a declined kill neither fires nor spends the budget
	}
	return false
}
