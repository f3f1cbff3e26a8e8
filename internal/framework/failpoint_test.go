package framework_test

import (
	"testing"

	"salsa/internal/failpoint"
	"salsa/internal/membership"
	"salsa/internal/scpool"
)

// These tests script real KillConsumer calls from inside the pool's
// synchronization windows — the framework-level counterpart of the core
// failpoint tests: the whole membership machinery (registry, epochs,
// abandonment, spare draining) runs while the victim is mid-operation.

// TestFailpointKillConsumerMidStealExactlyOnce kills a thief through the
// membership layer while it sits between the ownership CAS and its
// replacement-node publish. The thief had taken nothing, so the survivors
// must recover every task exactly once — including the chunk stranded under
// the dead thief's id — and then certify a linearizable empty that spans
// the abandoned pool.
func TestFailpointKillConsumerMidStealExactlyOnce(t *testing.T) {
	if !failpoint.Compiled {
		t.Skip("failpoints compiled out (salsa_nofailpoint)")
	}
	const total = 90
	fw := newElasticFW(t, 1, 3, 3, 4)
	pr := fw.Producer(0)

	want := make(map[*task]bool)
	for i := 0; i < total; i++ {
		tk := &task{seq: i}
		want[tk] = true
		pr.Put(tk)
	}

	defer failpoint.Reset()
	killed := -1
	failpoint.Set(failpoint.MembershipKillMidSteal, func(_ failpoint.Site, id int) bool {
		if killed >= 0 {
			return false
		}
		if err := fw.KillConsumer(id); err != nil {
			return false
		}
		killed = id
		return true
	})

	// The single producer routes everything to its access-list head
	// (consumer 1's pool under this placement), so consumer 0's first Get
	// goes straight to stealing — and dies in the window. The handle must
	// soft-fail from then on.
	thief := fw.Consumer(0)
	for {
		tk, ok := thief.Get()
		if !ok {
			break
		}
		if !want[tk] {
			t.Fatalf("task %d unknown or consumed twice", tk.seq)
		}
		delete(want, tk)
	}
	if killed != 0 {
		t.Fatalf("mid-steal kill hit consumer %d, want 0", killed)
	}
	if st := fw.Registry().State(killed); st != membership.Crashed {
		t.Fatalf("killed consumer state = %v, want Crashed", st)
	}
	if !thief.Departed() {
		t.Fatal("killed handle not flagged departed")
	}
	// The loop above exited through the soft-fail path: Get on a killed
	// handle reports empty instead of panicking the way a retired handle
	// does — the crash model's "the goroutine just stops" semantics.

	// Survivors drain everything, stranded chunk included; Get returning
	// !ok is checkEmpty's linearizable ⊥ over all pools, dead one included.
	for _, id := range []int{1, 2} {
		co := fw.Consumer(id)
		for {
			tk, ok := co.Get()
			if !ok {
				break
			}
			if !want[tk] {
				t.Fatalf("task %d unknown or consumed twice", tk.seq)
			}
			delete(want, tk)
		}
	}
	if len(want) != 0 {
		t.Fatalf("%d tasks lost after mid-steal kill (zero-loss crash)", len(want))
	}

	// The abandoned pool's empty-indicator slot stays raised once the
	// system is quiescent: emptiness scans must not disturb it, or
	// checkEmpty could never finish a round over the dead consumer's pool.
	pool := fw.Pool(killed)
	pool.SetIndicator(0)
	if !pool.IsEmpty() {
		t.Fatal("dead thief's pool still holds visible tasks")
	}
	if got := scpool.VisibleTasks[task](pool); got != 0 {
		t.Fatalf("dead thief's pool reports %d visible tasks", got)
	}
	if !pool.CheckIndicator(0) {
		t.Fatal("abandoned pool's indicator slot did not stay raised")
	}
}

// TestFailpointKillConsumerMidConsumeLosesOnlyAnnouncedSlot kills the owner
// through the membership layer inside the announce-to-take window. Exactly
// the one announced slot is forfeit (the paper's crash model); everything
// else must surface exactly once at the survivor.
func TestFailpointKillConsumerMidConsumeLosesOnlyAnnouncedSlot(t *testing.T) {
	if !failpoint.Compiled {
		t.Skip("failpoints compiled out (salsa_nofailpoint)")
	}
	const total = 60
	fw := newElasticFW(t, 1, 2, 2, 4)
	pr := fw.Producer(0)

	want := make(map[*task]bool)
	for i := 0; i < total; i++ {
		tk := &task{seq: i}
		want[tk] = true
		pr.Put(tk)
	}

	defer failpoint.Reset()
	killed := -1
	failpoint.Set(failpoint.ConsumeAfterAnnounce, func(_ failpoint.Site, id int) bool {
		if killed >= 0 {
			return false
		}
		if err := fw.KillConsumer(id); err != nil {
			return false
		}
		killed = id
		return true
	})

	// The victim keeps draining until its handle soft-fails: a killed
	// consumer's Get returns whatever its final in-flight pass found and
	// then reports empty forever.
	victim := fw.Consumer(0)
	for {
		tk, ok := victim.Get()
		if !ok {
			break
		}
		if !want[tk] {
			t.Fatalf("task %d unknown or consumed twice", tk.seq)
		}
		delete(want, tk)
	}
	if killed != 0 {
		t.Fatalf("mid-consume kill hit consumer %d, want 0", killed)
	}
	if !victim.Departed() {
		t.Fatal("killed handle not flagged departed")
	}

	survivor := fw.Consumer(1)
	for {
		tk, ok := survivor.Get()
		if !ok {
			break
		}
		if !want[tk] {
			t.Fatalf("task %d unknown or consumed twice", tk.seq)
		}
		delete(want, tk)
	}
	// The kill fired after an announce: that single slot is gone by
	// design, and nothing else may be.
	if len(want) != 1 {
		t.Fatalf("%d tasks missing after mid-consume kill, want exactly the announced slot (1)", len(want))
	}

	pool := fw.Pool(killed)
	pool.SetIndicator(survivor.ID())
	if !pool.IsEmpty() {
		t.Fatal("dead owner's pool still holds visible tasks")
	}
	if !pool.CheckIndicator(survivor.ID()) {
		t.Fatal("abandoned pool's indicator slot did not stay raised")
	}
}
