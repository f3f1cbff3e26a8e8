package core

import (
	"testing"

	"salsa/internal/failpoint"
)

// These tests script consumer crashes inside the steal and consume windows
// through the failpoint sites, at the core layer where the interleaving is
// fully deterministic: one goroutine drives every pool, so the test reaches
// the exact instruction boundary the paper's crash model argues about.

// TestFailpointKillMidStealStrandedChunkRescued scripts the nastiest crash
// the membership layer must survive: a thief dies between winning the
// ownership CAS (Algorithm 5 line 116) and publishing its replacement node
// (line 131). The chunk is then owned by a dead id and reachable only
// through stale-snapshot nodes, which the §1.5.3 snapshot discipline would
// reject forever — the departed-owner rescue is the only way back. With the
// rescue reverted this test fails: the survivor's drain loop exhausts its
// iteration bound with the stranded chunk's tasks unreachable.
func TestFailpointKillMidStealStrandedChunkRescued(t *testing.T) {
	if !failpoint.Compiled {
		t.Skip("failpoints compiled out (salsa_nofailpoint)")
	}
	const chunkSize, total = 4, 29
	s := newFamily(t, chunkSize, 3)
	victim := mkPool(t, s, 0, 1)
	thief := mkPool(t, s, 1, 1)
	rescuer := mkPool(t, s, 2, 1)
	ps := prod(0)

	for i := 0; i < total; i++ {
		victim.ProduceForce(ps, &task{id: i})
	}

	// Crash the thief inside the post-CAS window, once: declaring it
	// departed first (as KillConsumer does) and then simulating the death
	// by making the gate report failure.
	defer failpoint.Reset()
	fired := 0
	failpoint.Set(failpoint.MembershipKillMidSteal, func(_ failpoint.Site, id int) bool {
		if id != thief.OwnerID() || fired > 0 {
			return false
		}
		fired++
		thief.Abandon()
		return true
	})

	// An emptiness probe is in flight when the crash happens; the rescue
	// steal must invalidate it like any other steal would.
	victim.SetIndicator(rescuer.OwnerID())

	csThief := cons(1)
	if got := thief.Steal(csThief, victim); got != nil {
		t.Fatalf("killed thief returned task %d from beyond the grave", got.id)
	}
	if fired != 1 {
		t.Fatalf("kill-mid-steal failpoint fired %d times, want 1", fired)
	}
	if got := csThief.Ops.Steals.Load(); got != 1 {
		t.Fatalf("thief won %d ownership CAS, want 1 (the crashed steal)", got)
	}
	// The stranded chunk's tasks are still visible — owned by a dead id,
	// but not lost yet. The rescue has to make that "yet" permanent.
	if got := victim.VisibleTasks(); got != total {
		t.Fatalf("%d tasks visible after the crash, want %d", got, total)
	}

	csRescue := cons(2)
	seen := make(map[int]int)
	for i := 0; len(seen) < total; i++ {
		if i > 100*total {
			t.Fatalf("drain stalled with %d/%d tasks recovered: the stranded chunk was never rescued", len(seen), total)
		}
		tk := rescuer.Consume(csRescue)
		if tk == nil {
			tk = rescuer.Steal(csRescue, victim)
		}
		if tk == nil {
			tk = rescuer.Steal(csRescue, thief)
		}
		if tk == nil {
			continue
		}
		if seen[tk.id] > 0 {
			t.Fatalf("task %d delivered twice", tk.id)
		}
		seen[tk.id]++
	}
	if got := csRescue.Ops.Steals.Load(); got == 0 {
		t.Fatal("rescuer never stole — the tasks did not come through the rescue path")
	}
	// The rescue went through a steal, so the pending emptiness probe must
	// have been invalidated — a probe that survived it could certify empty
	// while the stranded tasks were still in flight.
	if victim.CheckIndicator(rescuer.OwnerID()) {
		t.Fatal("victim's indicator survived the rescue steal")
	}

	// Quiescent aftermath: the drained system is stably empty, and the
	// abandoned pool's indicator slot, once raised, stays raised — the
	// checkEmpty protocol can certify emptiness across the dead consumer.
	for name, p := range map[string]*Pool[task]{"victim": victim, "thief": thief, "rescuer": rescuer} {
		p.SetIndicator(rescuer.OwnerID())
		if !p.IsEmpty() {
			t.Fatalf("%s pool not empty after full drain", name)
		}
		if !p.CheckIndicator(rescuer.OwnerID()) {
			t.Fatalf("%s pool's indicator slot did not stay raised over an emptiness scan", name)
		}
	}
}

// TestFailpointKillBeforeAnnounceIsLossFree crashes the owner just before
// the announce (line 90): nothing was claimed, so the crash forfeits
// nothing — a survivor recovers every task exactly once.
func TestFailpointKillBeforeAnnounceIsLossFree(t *testing.T) {
	if !failpoint.Compiled {
		t.Skip("failpoints compiled out (salsa_nofailpoint)")
	}
	const chunkSize, total, ownerTakes = 4, 23, 5
	s := newFamily(t, chunkSize, 2)
	owner := mkPool(t, s, 0, 1)
	survivor := mkPool(t, s, 1, 1)
	ps, csOwner, csSurv := prod(0), cons(0), cons(1)

	seen := make(map[int]int)
	for i := 0; i < total; i++ {
		owner.ProduceForce(ps, &task{id: i})
	}
	for i := 0; i < ownerTakes; i++ {
		tk := owner.Consume(csOwner)
		if tk == nil {
			t.Fatalf("owner Consume %d returned nil on a full pool", i)
		}
		seen[tk.id]++
	}

	// From here on the owner is dead: every take it attempts dies before
	// the announce. Its final Consume call must come up empty-handed.
	defer failpoint.Reset()
	failpoint.Set(failpoint.ConsumeBeforeAnnounce, func(_ failpoint.Site, id int) bool {
		return id == owner.OwnerID()
	})
	if tk := owner.Consume(csOwner); tk != nil {
		t.Fatalf("dying owner still returned task %d", tk.id)
	}
	owner.Abandon()

	drainInto(t, seen, survivor, owner, total)
	if len(seen) != total {
		t.Fatalf("recovered %d distinct tasks, want %d (pre-announce death is loss-free)", len(seen), total)
	}
	assertStablyEmpty(t, csSurv.ID, owner, survivor)
}

// TestFailpointKillAfterAnnounceForfeitsExactlyAnnouncedSlots crashes the
// owner between the announce and the take (the §1.5.3 window). Each firing
// publishes an index advance that is never backed by a returned task; per
// the crash model thieves must treat those slots as consumed, so the run
// loses exactly one task per firing — no more (nothing else may vanish) and
// no fewer (an announced slot is unrecoverable by design).
func TestFailpointKillAfterAnnounceForfeitsExactlyAnnouncedSlots(t *testing.T) {
	if !failpoint.Compiled {
		t.Skip("failpoints compiled out (salsa_nofailpoint)")
	}
	const chunkSize, total, ownerTakes = 4, 23, 5
	s := newFamily(t, chunkSize, 2)
	owner := mkPool(t, s, 0, 1)
	survivor := mkPool(t, s, 1, 1)
	ps, csOwner, csSurv := prod(0), cons(0), cons(1)

	seen := make(map[int]int)
	for i := 0; i < total; i++ {
		owner.ProduceForce(ps, &task{id: i})
	}
	for i := 0; i < ownerTakes; i++ {
		tk := owner.Consume(csOwner)
		if tk == nil {
			t.Fatalf("owner Consume %d returned nil on a full pool", i)
		}
		seen[tk.id]++
	}

	defer failpoint.Reset()
	fires := 0
	failpoint.Set(failpoint.ConsumeAfterAnnounce, func(_ failpoint.Site, id int) bool {
		if id != owner.OwnerID() {
			return false
		}
		fires++
		return true
	})
	// The dying Consume announces take after take, each one gated into a
	// simulated death; it returns nothing, leaving `fires` slots forfeit.
	if tk := owner.Consume(csOwner); tk != nil {
		t.Fatalf("dying owner still returned task %d", tk.id)
	}
	if fires == 0 {
		t.Fatal("consume.after-announce never fired")
	}
	owner.Abandon()

	want := total - ownerTakes - fires
	drainInto(t, seen, survivor, owner, ownerTakes+want)
	if got := len(seen); got != ownerTakes+want {
		t.Fatalf("recovered %d distinct tasks, want %d (%d announced slots forfeited)",
			got, ownerTakes+want, fires)
	}
	assertStablyEmpty(t, csSurv.ID, owner, survivor)
}

// TestRescueHonorsDepartedOwnerInFlightAnnounce reconstructs the
// asynchronous-kill double-take: consumer V steals chunk C from O and keeps
// consuming it; a stale node in O's list still references C (the
// two-referring-nodes window between Algorithm 5 lines 131 and 132, which a
// slow thief can observe long after it closes); V is killed mid-take with a
// slot announced only on its replacement node; then thief T rescues C
// through the stale node. The rescue must republish past V's in-flight
// announce — republishing at the stale node's frozen index would let a
// thief CAS the announced slot's still-live task while V's pending plain
// store also commits it, delivering the task twice. The announced slot
// belongs to V: thieves never touch it, V may still complete it.
func TestRescueHonorsDepartedOwnerInFlightAnnounce(t *testing.T) {
	if !failpoint.Compiled {
		t.Skip("requires failpoints (built with salsa_nofailpoint)")
	}
	const chunkSize = 8
	s := newFamily(t, chunkSize, 3)
	orig := mkPool(t, s, 0, 1)    // O: the chunk's first owner
	vic := mkPool(t, s, 1, 1)     // V: steals C, is killed mid-take
	rescuer := mkPool(t, s, 2, 1) // T: rescues C through the stale node
	ps := prod(0)

	tasks := make([]*task, chunkSize)
	for i := range tasks {
		tasks[i] = &task{id: i}
		orig.ProduceForce(ps, tasks[i])
	}
	// Locate C and O's node referencing it before the steal supersedes it.
	var stale *node[task]
	var ch *Chunk[task]
	for _, l := range orig.lists {
		for e := l.first(); e != nil; e = e.next.Load() {
			if n := e.node.Load(); n.chunk.Load() != nil {
				stale, ch = n, n.chunk.Load()
			}
		}
	}
	if stale == nil {
		t.Fatal("no listed chunk after producing")
	}

	// V steals C (taking slot 0) and consumes slots 1-3 on the fast path.
	csVic := cons(1)
	if got := vic.Steal(csVic, orig); got != tasks[0] {
		t.Fatalf("victim's steal returned %v, want task 0", got)
	}
	for i := 1; i <= 3; i++ {
		if got := vic.Consume(csVic); got != tasks[i] {
			t.Fatalf("victim Consume returned %v, want task %d", got, i)
		}
	}
	// Reconstruct the stale-node view a slow thief can hold: the steal
	// cleared O's node (line 132), but a thief that validated it under a
	// hazard before the clear still acts through it.
	if stale.chunk.Load() != nil {
		t.Fatal("victim's steal did not clear the superseded node")
	}
	stale.chunk.Store(ch)

	// V announces slot 4 and is killed before committing it: the announce
	// lives only on V's replacement node, in V's own steal list. Exactly
	// one announce: the first take dies after announcing, and every retry
	// Consume makes on the way out dies loss-free before announcing.
	defer failpoint.Reset()
	announced := false
	failpoint.Set(failpoint.ConsumeBeforeAnnounce, func(_ failpoint.Site, id int) bool {
		return id == vic.OwnerID() && announced
	})
	failpoint.Set(failpoint.ConsumeAfterAnnounce, func(_ failpoint.Site, id int) bool {
		if id != vic.OwnerID() || announced {
			return false
		}
		announced = true
		return true
	})
	if got := vic.Consume(csVic); got != nil {
		t.Fatalf("dying victim still returned task %d", got.id)
	}
	failpoint.Clear(failpoint.ConsumeBeforeAnnounce)
	failpoint.Clear(failpoint.ConsumeAfterAnnounce)
	vic.Abandon()

	// T rescues C through the stale node. The republished index must cover
	// V's announce: the first task T can reach is slot 5, never slot 4.
	csRes := cons(2)
	got := rescuer.Steal(csRes, orig)
	if got == nil {
		t.Fatal("rescue steal through the stale node found no task (republished at the frozen index?)")
	}
	if got == tasks[4] {
		t.Fatal("rescue steal delivered the victim's announced slot")
	}
	if got != tasks[5] {
		t.Fatalf("rescue steal returned task %d, want 5 (first slot past the announce)", got.id)
	}
	seen := map[int]int{got.id: 1}
	for i := 0; i < 100; i++ {
		tk := rescuer.Consume(csRes)
		if tk == nil {
			tk = rescuer.Steal(csRes, orig)
		}
		if tk == nil {
			tk = rescuer.Steal(csRes, vic)
		}
		if tk == nil {
			break
		}
		if tk == tasks[4] {
			t.Fatal("the victim's announced slot was delivered by a thief")
		}
		if seen[tk.id] > 0 {
			t.Fatalf("task %d delivered twice", tk.id)
		}
		seen[tk.id]++
	}
	if len(seen) != 3 { // slots 5..7
		t.Fatalf("rescuer recovered %d tasks, want 3", len(seen))
	}
	// The announced slot is still V's: its task pointer was never CASed, so
	// V's delayed commit (the plain store it was killed in front of) lands
	// on a live slot and the task is delivered exactly once — by V.
	if got := ch.tasks[4].p.Load(); got != tasks[4] {
		t.Fatalf("announced slot no longer holds its task (got %v)", got)
	}
}

// TestDepartedOwnerCommitsByCAS: once its id is departed, a still-running
// owner's takes must leave the plain-store fast path — its chunks are
// rescue-eligible, so every commit has to win a CAS a racing thief could
// contend. Covers both takeTask (Consume) and drainRun (ConsumeBatch).
func TestDepartedOwnerCommitsByCAS(t *testing.T) {
	const chunkSize, total = 4, 12
	s := newFamily(t, chunkSize, 2)
	p := mkPool(t, s, 0, 1)
	ps, cs := prod(0), cons(0)

	tasks := make([]*task, total)
	for i := range tasks {
		tasks[i] = &task{id: i}
		p.ProduceForce(ps, tasks[i])
	}
	if got := p.Consume(cs); got == nil {
		t.Fatal("Consume before departure returned nil")
	}
	if fast := cs.Ops.FastPath.Load(); fast != 1 {
		t.Fatalf("pre-departure take used FastPath %d times, want 1", fast)
	}

	p.Abandon() // the owner keeps running: KillConsumer is uncooperative

	fastBefore := cs.Ops.FastPath.Load()
	seen := make(map[int]int)
	dst := make([]*task, 3)
	if n := p.ConsumeBatch(cs, dst); n != len(dst) {
		t.Fatalf("departed ConsumeBatch returned %d, want %d", n, len(dst))
	}
	for _, tk := range dst {
		seen[tk.id]++
	}
	for {
		tk := p.Consume(cs)
		if tk == nil {
			break
		}
		if seen[tk.id] > 0 {
			t.Fatalf("task %d delivered twice", tk.id)
		}
		seen[tk.id]++
	}
	if len(seen) != total-1 {
		t.Fatalf("departed owner drained %d tasks, want %d", len(seen), total-1)
	}
	if fast := cs.Ops.FastPath.Load(); fast != fastBefore {
		t.Fatalf("departed owner still used the plain-store fast path (%d new takes)", fast-fastBefore)
	}
	if slow := cs.Ops.SlowPath.Load(); slow < int64(total-1) {
		t.Fatalf("SlowPath = %d, want ≥ %d (every departed take must CAS)", slow, total-1)
	}
}

// drainInto steals everything reachable from victim into seen via survivor,
// failing on duplicates, until seen holds want tasks or the iteration bound
// trips (which reports tasks lost beyond the scripted budget).
func drainInto(t *testing.T, seen map[int]int, survivor, victim *Pool[task], want int) {
	t.Helper()
	csSurv := cons(survivor.OwnerID())
	for i := 0; len(seen) < want; i++ {
		if i > 1000*(want+1) {
			t.Fatalf("drain stalled at %d/%d recovered tasks", len(seen), want)
		}
		tk := survivor.Consume(csSurv)
		if tk == nil {
			tk = survivor.Steal(csSurv, victim)
		}
		if tk == nil {
			continue
		}
		if seen[tk.id] > 0 {
			t.Fatalf("task %d delivered twice", tk.id)
		}
		seen[tk.id]++
	}
}

// assertStablyEmpty verifies the post-crash quiescent state: both pools
// scan empty and the abandoned pool's indicator slot, once raised, stays
// raised across emptiness scans — the property checkEmpty needs to certify
// a linearizable ⊥ over a dead consumer's pool.
func assertStablyEmpty(t *testing.T, proberID int, abandoned, live *Pool[task]) {
	t.Helper()
	for _, p := range []*Pool[task]{abandoned, live} {
		p.SetIndicator(proberID)
		if !p.IsEmpty() {
			t.Fatal("pool not empty after drain")
		}
		if !p.CheckIndicator(proberID) {
			t.Fatal("indicator slot did not stay raised on a quiescent pool")
		}
	}
	if !abandoned.abandoned.Load() {
		t.Fatal("abandoned pool lost its abandoned flag")
	}
}
