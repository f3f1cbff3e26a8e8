package failpoint

import (
	"sync/atomic"
	"testing"
	"time"
)

// needSites skips a test that drives the site registry: under
// salsa_nofailpoint Inject and Fail are constants and no hook ever runs.
func needSites(t *testing.T) {
	t.Helper()
	if !Compiled {
		t.Skip("failpoints compiled out (salsa_nofailpoint)")
	}
}

func TestSiteNamesRoundTrip(t *testing.T) {
	for s := Site(0); s < NumSites; s++ {
		name := s.String()
		got, err := ParseSite(name)
		if err != nil {
			t.Fatalf("ParseSite(%q): %v", name, err)
		}
		if got != s {
			t.Fatalf("ParseSite(%q) = %v, want %v", name, got, s)
		}
	}
	if _, err := ParseSite("no.such-site"); err == nil {
		t.Fatal("ParseSite accepted an unknown name")
	}
	if len(SiteNames()) != int(NumSites) {
		t.Fatalf("SiteNames() has %d entries, want %d", len(SiteNames()), NumSites)
	}
}

func TestSetClearArming(t *testing.T) {
	needSites(t)
	defer Reset()
	if Active() {
		t.Fatal("Active before any Set")
	}
	var hits atomic.Int32
	Set(StealAfterOwnerCAS, func(site Site, id int) bool {
		hits.Add(1)
		return true
	})
	if !Active() {
		t.Fatal("not Active after Set")
	}
	Inject(StealAfterOwnerCAS, 3)
	if !Fail(StealAfterOwnerCAS, 3) {
		t.Fatal("Fail did not report the hook's true")
	}
	// Unhooked sites stay free even while another site is armed.
	if Fail(ConsumeBeforeAnnounce, 0) {
		t.Fatal("unhooked site reported failure")
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("hook ran %d times, want 2", got)
	}
	Clear(StealAfterOwnerCAS)
	if Active() {
		t.Fatal("Active after Clear")
	}
	Inject(StealAfterOwnerCAS, 3)
	if got := hits.Load(); got != 2 {
		t.Fatalf("cleared hook still ran (%d hits)", got)
	}
}

func TestResetClearsEverything(t *testing.T) {
	Set(ProduceBeforePublish, func(Site, int) bool { return true })
	Set(ChunkpoolExhausted, func(Site, int) bool { return true })
	SetKillFunc(func(int) bool { return true })
	Reset()
	if Active() {
		t.Fatal("Active after Reset")
	}
	if Kill(1) {
		t.Fatal("kill func survived Reset")
	}
}

func TestKillFunc(t *testing.T) {
	defer Reset()
	if Kill(7) {
		t.Fatal("Kill with no registered func reported true")
	}
	var asked []int
	SetKillFunc(func(id int) bool {
		asked = append(asked, id)
		return id != 0
	})
	if Kill(0) {
		t.Fatal("kill func's refusal not propagated")
	}
	if !Kill(7) {
		t.Fatal("kill func's grant not propagated")
	}
	if len(asked) != 2 || asked[0] != 0 || asked[1] != 7 {
		t.Fatalf("kill func saw %v, want [0 7]", asked)
	}
}

// TestScheduleVocabulary holds the rows only failpoint's vocabulary can
// answer — the two membership-site swaps, the delay default, and the exact
// error texts; the grammar itself is tested once, in internal/seeded.
func TestScheduleVocabulary(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"membership.before-epoch-publish=kill#1", "membership.before-epoch-publish=fail#1"},
		{"membership.kill-mid-steal=fail@0.01#2", "membership.kill-mid-steal=kill@0.01#2"},
		{"membership.kill-mid-steal=kill@0.01#2", "membership.kill-mid-steal=kill@0.01#2"},
		{"produce.before-publish=delay", "produce.before-publish=delay:100µs"},
		{"checkempty.between-scans=yield, consume.after-announce=kill#1", "checkempty.between-scans=yield,consume.after-announce=kill#1"},
	} {
		s, err := ParseSchedule(1, tc.spec)
		if err != nil {
			t.Fatalf("ParseSchedule(%q): %v", tc.spec, err)
		}
		if got := s.Spec(); got != tc.want {
			t.Errorf("ParseSchedule(%q).Spec() = %q, want %q", tc.spec, got, tc.want)
		}
	}
	for _, tc := range []struct{ spec, want string }{
		{"steal.after-owner-cas=yield:5ms", `failpoint: rule "steal.after-owner-cas=yield:5ms": duration only valid for delay`},
		{"steal.after-owner-cas=explode", `failpoint: rule "steal.after-owner-cas=explode": failpoint: unknown action "explode" (want delay|yield|fail|kill)`},
		{"no.such-site=delay", `failpoint: unknown site "no.such-site"`},
		{"nonsense", `failpoint: rule "nonsense": want site=action[:delay][@rate][#count]`},
	} {
		if _, err := ParseSchedule(1, tc.spec); err == nil || err.Error() != tc.want {
			t.Errorf("ParseSchedule(%q) error = %v, want %s", tc.spec, err, tc.want)
		}
	}
}

func TestScheduleDeterministicFiring(t *testing.T) {
	needSites(t)
	defer Reset()
	run := func(seed uint64) []bool {
		s, err := ParseSchedule(seed, "chunkpool.exhausted=fail@0.3")
		if err != nil {
			t.Fatal(err)
		}
		s.Arm()
		defer s.Disarm()
		out := make([]bool, 200)
		for i := range out {
			out[i] = Fail(ChunkpoolExhausted, -1)
		}
		return out
	}
	a, b := run(42), run(42)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("visit %d differs between identical seeds", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("rate 0.3 fired %d/%d times — not probabilistic", fired, len(a))
	}
	c := run(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical firing sequences")
	}
}

func TestScheduleCountCap(t *testing.T) {
	needSites(t)
	defer Reset()
	s, err := ParseSchedule(7, "chunkpool.exhausted=fail#3")
	if err != nil {
		t.Fatal(err)
	}
	s.Arm()
	defer s.Disarm()
	fired := 0
	for i := 0; i < 100; i++ {
		if Fail(ChunkpoolExhausted, -1) {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("count-capped rule fired %d times, want 3", fired)
	}
	if got := s.TotalFired(); got != 3 {
		t.Fatalf("TotalFired = %d, want 3", got)
	}
}

func TestScheduleKillConsultsKillFunc(t *testing.T) {
	needSites(t)
	defer Reset()
	granted := atomic.Bool{}
	SetKillFunc(func(id int) bool { return granted.Load() })
	s, err := ParseSchedule(9, "membership.kill-mid-steal=kill#1")
	if err != nil {
		t.Fatal(err)
	}
	s.Arm()
	defer s.Disarm()
	// Declined kills neither fire nor consume the count budget.
	for i := 0; i < 5; i++ {
		if Fail(MembershipKillMidSteal, 2) {
			t.Fatal("kill fired while kill func declines")
		}
	}
	granted.Store(true)
	if !Fail(MembershipKillMidSteal, 2) {
		t.Fatal("kill did not fire once granted")
	}
	if Fail(MembershipKillMidSteal, 2) {
		t.Fatal("kill fired past its #1 budget")
	}
	if got := s.TotalFired(); got != 1 {
		t.Fatalf("TotalFired = %d, want 1", got)
	}
}

func TestMultipleRulesSameSite(t *testing.T) {
	needSites(t)
	defer Reset()
	// A delay rule that never gates plus a fail rule behind it: the site
	// should sleep then report failure.
	s, err := ParseSchedule(3, "chunkpool.exhausted=delay:1ms,chunkpool.exhausted=fail#1")
	if err != nil {
		t.Fatal(err)
	}
	s.Arm()
	defer s.Disarm()
	start := time.Now()
	if !Fail(ChunkpoolExhausted, -1) {
		t.Fatal("second rule's fail not reached after first rule's delay")
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("delay rule did not sleep")
	}
	if Fail(ChunkpoolExhausted, -1) {
		t.Fatal("fail#1 fired twice")
	}
	f := s.Fired()
	if f["chunkpool.exhausted=delay:1ms"] != 2 {
		t.Fatalf("delay rule fired %d, want 2 (unbudgeted, every visit)", f["chunkpool.exhausted=delay:1ms"])
	}
}

func TestDisarmStopsFiring(t *testing.T) {
	needSites(t)
	defer Reset()
	s, _ := ParseSchedule(5, "chunkpool.exhausted=fail")
	s.Arm()
	if !Fail(ChunkpoolExhausted, -1) {
		t.Fatal("armed schedule did not fire")
	}
	s.Disarm()
	if Active() {
		t.Fatal("still Active after Disarm")
	}
	if Fail(ChunkpoolExhausted, -1) {
		t.Fatal("disarmed schedule fired")
	}
}
