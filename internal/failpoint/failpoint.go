// Package failpoint is a fault-injection layer for the pool's narrow
// synchronization windows.
//
// The paper's correctness argument lives in windows a few instructions wide:
// the two-CAS steal race (§1.5.3), the announce-then-recheck consume path,
// the checkEmpty indicator rounds (§1.5.5). Stress runs only visit those
// interleavings by luck; a failpoint visits them on purpose. Each hot path
// declares named sites (Site) at its delicate points; a test or the chaos
// harness registers hooks that inject delays, forced yields, simulated
// chunk-pool exhaustion, or a consumer crash exactly inside the window.
//
// Cost discipline. Sites are evaluated through Inject/Fail, whose fast path
// is `Compiled && Armed.Load() != 0` — one inlined atomic load of a
// read-mostly word when the package is compiled in and no hook is
// registered. Builds with the `salsa_nofailpoint` tag set Compiled to a
// constant false, so the compiler deletes every site body entirely: a
// disabled build pays zero atomics and zero branches on the fast path (see
// DESIGN.md §9). The default build keeps sites live so ordinary `go test`
// can script faults without special tags.
//
// Concurrency. Hook registration (Set/Clear/Reset) is a control-plane
// operation serialized on an internal mutex; evaluation is lock-free. Hooks
// run on the calling goroutine, inside the window — they may sleep, yield,
// or call back into control-plane APIs like KillConsumer, but must not call
// back into the data-plane operation that hosts the site.
package failpoint

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Site names one injection point in the pool's synchronization windows.
type Site int32

const (
	// ProduceBeforePublish fires in the produce path after a chunk slot
	// has been reserved but before the task pointer is published.
	// Inject-only. id = producer id.
	ProduceBeforePublish Site = iota

	// ChunkpoolExhausted gates every spare-chunk dequeue. A hook
	// returning true simulates an empty chunk pool — produce() fails,
	// triggering producer-based balancing failover and, when every pool
	// refuses, forced expansion (or ErrSaturated on the TryPut path).
	// id = -1 (the chunk pool does not know its caller).
	ChunkpoolExhausted

	// ConsumeBeforeAnnounce gates the consume path just before the
	// owner announces a take by advancing the node index. A hook
	// returning true simulates the consumer dying there: the take
	// unwinds with no task and no announcement — loss-free, because
	// nothing was claimed yet. id = consumer id.
	ConsumeBeforeAnnounce

	// ConsumeAfterAnnounce gates the window between the announce and
	// the ownership re-check — the heart of the §1.5.3 race. A hook
	// returning true simulates the consumer dying with one slot
	// announced; per the crash model, thieves treat that single slot as
	// consumed, so each fire can lose at most one task. id = consumer id.
	ConsumeAfterAnnounce

	// ConsumeBeforeCommit fires on the owner's fast path after the
	// post-announce ownership re-check has passed but before the plain
	// store that commits the take — the last instant at which the
	// announced slot is still racing the world. A consumer frozen here
	// that is then declared departed commits into a chunk the rescue
	// path may already have republished (DESIGN.md §9); the schedule
	// explorer lives in this window. Inject-only. id = consumer id.
	ConsumeBeforeCommit

	// StealAfterValidate fires once a thief has hazard-validated a
	// victim node but not yet examined the chunk's ownership word — the
	// window in which the node can go stale (its chunk stolen, its
	// owner departed) while the thief still believes it. Freezing a
	// thief here forces the snapshot check and the departed-owner
	// rescue to run against a world that moved on. Inject-only.
	// id = consumer id (thief).
	StealAfterValidate

	// StealBeforeOwnerCAS fires between publishing the victim node in
	// the thief's steal list and the ownership CAS (Algorithm 5 lines
	// 115–116). Gate: true simulates the thief dying there — harmless,
	// the chunk is still owned by the victim. id = consumer id (thief).
	StealBeforeOwnerCAS

	// StealAfterOwnerCAS fires immediately after the thief wins the
	// ownership CAS, before the replacement node is published (lines
	// 116–131) — the nastiest window in the algorithm. Inject-only
	// (delays/yields stretch the two-CAS race); crashes here are
	// scripted through MembershipKillMidSteal. id = consumer id (thief).
	StealAfterOwnerCAS

	// MembershipKillMidSteal gates the same post-CAS window as
	// StealAfterOwnerCAS. A hook returning true simulates the thief
	// crashing mid-steal: the chunk is left stranded under the dead
	// thief's ownership and the survivors' rescue path (DESIGN.md §9)
	// must reclaim it. The schedule's kill action declares the consumer
	// crashed (KillFunc) before dying. id = consumer id (thief).
	MembershipKillMidSteal

	// MembershipBeforeEpochPublish fires inside a membership departure
	// after the pool is abandoned and its spares drained, but before
	// the next epoch is published — the window where producers still
	// route to a pool that already refuses inserts. Inject-only.
	// id = departing consumer id.
	MembershipBeforeEpochPublish

	// CheckEmptyBetweenScans fires between rounds of the checkEmpty
	// protocol — stretching the probe is the classic attack on
	// linearizable emptiness, which the indicator rounds must absorb.
	// Inject-only. id = probing consumer id.
	CheckEmptyBetweenScans

	// NumSites is the number of defined sites.
	NumSites
)

var siteNames = [NumSites]string{
	ProduceBeforePublish:         "produce.before-publish",
	ChunkpoolExhausted:           "chunkpool.exhausted",
	ConsumeBeforeAnnounce:        "consume.before-announce",
	ConsumeAfterAnnounce:         "consume.after-announce",
	ConsumeBeforeCommit:          "consume.before-commit",
	StealAfterValidate:           "steal.after-validate",
	StealBeforeOwnerCAS:          "steal.before-owner-cas",
	StealAfterOwnerCAS:           "steal.after-owner-cas",
	MembershipKillMidSteal:       "membership.kill-mid-steal",
	MembershipBeforeEpochPublish: "membership.before-epoch-publish",
	CheckEmptyBetweenScans:       "checkempty.between-scans",
}

// String returns the site's catalogue name (e.g. "steal.after-owner-cas").
func (s Site) String() string {
	if s >= 0 && s < NumSites {
		return siteNames[s]
	}
	return fmt.Sprintf("site(%d)", int32(s))
}

// ParseSite resolves a catalogue name back to its Site.
func ParseSite(name string) (Site, error) {
	i, err := grammar.Site(name)
	return Site(i), err
}

// SiteNames returns the full site catalogue in declaration order.
func SiteNames() []string {
	return append([]string(nil), siteNames[:]...)
}

// Hook runs inside a site's window on the goroutine that hit it. id is the
// acting handle's id (consumer id for consume/steal/checkempty sites,
// producer id for produce sites, -1 when the layer does not know). The
// return value matters only at gate sites (evaluated via Fail): true
// simulates the site's failure — an exhausted chunk pool, a crashed
// consumer — and false lets the operation proceed.
type Hook func(site Site, id int) bool

// Observer is a site-visit callback registered with SetObserver: it runs at
// EVERY armed site visit, after the site's own hook (if any) has evaluated,
// so a hook-driven state change (a crash declaration, a simulated failure)
// is already in effect when the observer sees the visit. The schedule
// controller (internal/dst) registers one to turn every site into a
// cooperative yield point.
type Observer func(site Site, id int)

// Armed counts registered hooks; the disarmed fast path is a single load of
// it. A registered observer is counted too. Exported as a raw atomic — not
// behind an accessor — because the pool's hot paths are generic and the
// compiler does not inline cross-package calls into imported generic
// instantiations: even trivial Fail/Inject calls cost a real CALL there.
// Hot sites therefore guard the call themselves,
//
//	if failpoint.Compiled && failpoint.Armed.Load() != 0 { failpoint.Inject(...) }
//
// which compiles to one inlined atomic load and a never-taken branch when
// disarmed (and to nothing at all under salsa_nofailpoint). Treat Armed as
// read-only outside this package; registration keeps it in sync.
var Armed atomic.Int32

var (
	hooks [NumSites]atomic.Pointer[Hook]

	// observer is the registered site-visit callback; see SetObserver.
	observer atomic.Pointer[Observer]

	// mu serializes registration (control plane only).
	mu sync.Mutex

	// killFunc is the registered crash-declaration callback; see SetKillFunc.
	killFunc atomic.Pointer[func(id int) bool]
)

// Active reports whether any hook is registered (false in salsa_nofailpoint
// builds, where the call compiles to a constant).
func Active() bool { return Compiled && Armed.Load() != 0 }

// Inject evaluates an inject-only site: the hook's side effects (sleep,
// yield, crash declarations) happen inside the window; its return value is
// ignored. Free when no hook is registered; compiled out entirely under the
// salsa_nofailpoint tag.
func Inject(site Site, id int) {
	if Compiled && Armed.Load() != 0 {
		eval(site, id)
	}
}

// Fail evaluates a gate site and reports whether the hook asked the caller
// to simulate the site's failure. Free when no hook is registered; compiled
// out entirely (constant false) under the salsa_nofailpoint tag.
func Fail(site Site, id int) bool {
	if Compiled && Armed.Load() != 0 {
		return eval(site, id)
	}
	return false
}

func eval(site Site, id int) bool {
	if site < 0 || site >= NumSites {
		return false
	}
	failed := false
	if h := hooks[site].Load(); h != nil {
		failed = (*h)(site, id)
	}
	// Observer runs last: a kill or failure the hook just declared must be
	// visible to the rest of the system while the observer (typically a
	// schedule controller parking this goroutine) holds the caller inside
	// the window.
	if o := observer.Load(); o != nil {
		(*o)(site, id)
	}
	return failed
}

// Set registers h at site, replacing any previous hook. A nil h is Clear.
func Set(site Site, h Hook) {
	if site < 0 || site >= NumSites {
		panic(fmt.Sprintf("failpoint: Set on invalid site %d", site))
	}
	if h == nil {
		Clear(site)
		return
	}
	mu.Lock()
	defer mu.Unlock()
	if hooks[site].Swap(&h) == nil {
		Armed.Add(1)
	}
}

// Clear removes the hook at site, if any.
func Clear(site Site) {
	if site < 0 || site >= NumSites {
		return
	}
	mu.Lock()
	defer mu.Unlock()
	if hooks[site].Swap(nil) != nil {
		Armed.Add(-1)
	}
}

// Reset clears every hook and the kill function. Tests and the chaos
// harness call it between scenarios. The observer is deliberately NOT
// cleared: it belongs to the schedule controller, whose lifetime brackets
// whole runs, and a scenario's Reset must not tear down the controller
// that is driving it. Use SetObserver(nil) to remove it.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for i := range hooks {
		if hooks[i].Swap(nil) != nil {
			Armed.Add(-1)
		}
	}
	killFunc.Store(nil)
}

// SetObserver registers f as the global site-visit observer, replacing any
// previous one; nil unregisters. Registration arms the package (the
// disarmed fast path is unchanged — one atomic load). At most one observer
// exists at a time; the schedule controller serializes its runs around it.
func SetObserver(f Observer) {
	mu.Lock()
	defer mu.Unlock()
	var p *Observer
	if f != nil {
		p = &f
	}
	old := observer.Swap(p)
	switch {
	case old == nil && p != nil:
		Armed.Add(1)
	case old != nil && p == nil:
		Armed.Add(-1)
	}
}

// SetKillFunc registers the crash-declaration callback used by kill actions:
// it receives the consumer id acting at the site and returns whether the
// kill was granted (the harness refuses, e.g., to kill the last live
// consumer). A kill action whose callback declines does not simulate death.
// Pass nil to unregister.
func SetKillFunc(f func(id int) bool) {
	if f == nil {
		killFunc.Store(nil)
		return
	}
	killFunc.Store(&f)
}

// Kill invokes the registered kill function for id, reporting whether a
// crash was actually declared. With no function registered it reports false.
func Kill(id int) bool {
	if f := killFunc.Load(); f != nil {
		return (*f)(id)
	}
	return false
}
