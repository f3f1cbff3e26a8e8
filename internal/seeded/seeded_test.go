package seeded_test

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"salsa/internal/failpoint"
	"salsa/internal/netchaos"
	"salsa/internal/seeded"
)

// schedule is what both vocabularies' ParseSchedule results share.
type schedule interface {
	Spec() string
	Rules() []*seeded.Rule
}

// vocabularies are the two real users of the grammar; S stands for a valid
// site name in the rows below ("delay" is an action in both).
var vocabularies = []struct {
	name, site string
	parse      func(seed uint64, spec string) (schedule, error)
}{
	{"failpoint", "steal.after-owner-cas", func(seed uint64, spec string) (schedule, error) {
		return failpoint.ParseSchedule(seed, spec)
	}},
	{"netchaos", "c2s", func(seed uint64, spec string) (schedule, error) {
		return netchaos.ParseSchedule(seed, spec)
	}},
}

// TestGrammar is the one table for the format itself — what parses, how it
// renders back, what is rejected and under which prefix — played against
// both vocabularies. Rows that need a vocabulary's own words (its defaults,
// its swaps, its "duration only valid for …") live in that package.
func TestGrammar(t *testing.T) {
	accept := []struct{ spec, want string }{
		{"", ""},
		{"  ", ""},
		{"S=delay:200us@0.2", "S=delay:200µs@0.2"},
		{"S=delay:5ms#3", "S=delay:5ms#3"},
		{"S=delay:5ms@0.25#3", "S=delay:5ms@0.25#3"},
		{"S=delay:1ms@1", "S=delay:1ms"},
		{" S = delay : 1ms @ 0.5 # 2 , S=delay:2ms,", "S=delay:1ms@0.5#2,S=delay:2ms"},
	}
	reject := []struct{ spec, want string }{
		{"S", `rule "S": want site=action[:delay][@rate][#count]`},
		{"S=explode", `unknown action "explode"`},
		{"nowhere=delay", `unknown site "nowhere"`},
		{"S=delay@2", `bad rate "2" (want (0,1])`},
		{"S=delay@0", `bad rate "0"`},
		{"S=delay@NaN", `bad rate "NaN"`},
		{"S=delay#0", `bad count "0"`},
		{"S=delay#many", `bad count "many"`},
		{"S=delay:banana", `bad duration "banana"`},
		{"S=delay:-1ms", `bad duration "-1ms"`},
	}
	for _, v := range vocabularies {
		in := func(s string) string { return strings.ReplaceAll(s, "S", v.site) }
		for _, tc := range accept {
			s, err := v.parse(1, in(tc.spec))
			if err != nil {
				t.Errorf("%s: Parse(%q): %v", v.name, in(tc.spec), err)
				continue
			}
			if got := s.Spec(); got != in(tc.want) {
				t.Errorf("%s: Parse(%q).Spec() = %q, want %q", v.name, in(tc.spec), got, in(tc.want))
			}
			for i, r := range s.Rules() {
				if r.Index != i {
					t.Errorf("%s: Parse(%q) rule %d has Index %d", v.name, in(tc.spec), i, r.Index)
				}
			}
		}
		for _, tc := range reject {
			_, err := v.parse(1, in(tc.spec))
			if err == nil {
				t.Errorf("%s: Parse(%q) accepted", v.name, in(tc.spec))
				continue
			}
			if msg := err.Error(); !strings.HasPrefix(msg, v.name+": ") || !strings.Contains(msg, in(tc.want)) {
				t.Errorf("%s: Parse(%q) error = %q, want prefix %q and %q", v.name, in(tc.spec), msg, v.name+": ", in(tc.want))
			}
		}
	}
}

// one parses a single-rule netchaos spec and returns its rule.
func one(t *testing.T, spec string) *seeded.Rule {
	t.Helper()
	s, err := netchaos.ParseSchedule(1, spec)
	if err != nil {
		t.Fatal(err)
	}
	return s.Rules()[0]
}

// TestFireRate: the coin's top 53 bits, read as a fraction, fire the rule
// exactly when they fall under the rate; rate 1 ignores the coin.
func TestFireRate(t *testing.T) {
	r := one(t, "c2s=reset@0.25")
	quarter := uint64(1) << 62 // top 53 bits read as exactly 0.25
	for _, tc := range []struct {
		coin uint64
		want bool
	}{{0, true}, {quarter - 1<<11, true}, {quarter, false}, {math.MaxUint64, false}} {
		if got := r.Fire(tc.coin); got != tc.want {
			t.Errorf("rate 0.25: Fire(%#x) = %v, want %v", tc.coin, got, tc.want)
		}
	}
	if r.Fired() != 2 {
		t.Errorf("Fired = %d, want 2", r.Fired())
	}
	if always := one(t, "c2s=reset"); !always.Fire(math.MaxUint64) {
		t.Error("rate 1 did not fire")
	}
}

// TestFireCountCapConcurrent: under contention exactly #count visits fire, a
// refunded slot can be won again, and visit ordinals are dense.
func TestFireCountCapConcurrent(t *testing.T) {
	r := one(t, "c2s=reset#5")
	hammer := func() int64 {
		var fired atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					r.Visit()
					if r.Fire(0) {
						fired.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		return fired.Load()
	}
	if got := hammer(); got != 5 || r.Fired() != 5 {
		t.Fatalf("#5 under 8 goroutines fired %d times (census %d), want 5", got, r.Fired())
	}
	r.Refund()
	r.Refund()
	if got := hammer(); got != 2 || r.Fired() != 5 {
		t.Fatalf("after 2 refunds fired %d more (census %d), want 2 and 5", got, r.Fired())
	}
	if v := r.Visit(); v != 2*8*500 {
		t.Fatalf("Visit = %d after %d visits", v, 2*8*500)
	}
}

// TestCensus: Fired keys by rule text, FiredByAction by action name and only
// for actions that fired, TotalFired sums.
func TestCensus(t *testing.T) {
	s, err := netchaos.ParseSchedule(1, "c2s=reset#1,s2c=reset,accept=blackhole")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Rules()[:2] {
		r.Fire(0)
		r.Fire(0)
	}
	if got := s.Fired(); got["c2s=reset#1"] != 1 || got["s2c=reset"] != 2 || got["accept=blackhole"] != 0 || len(got) != 3 {
		t.Errorf("Fired = %v", got)
	}
	if got := s.FiredByAction(); got["reset"] != 3 || len(got) != 1 {
		t.Errorf("FiredByAction = %v, want only reset:3", got)
	}
	if got := s.TotalFired(); got != 3 {
		t.Errorf("TotalFired = %d, want 3", got)
	}
}

// TestRNG: the stream is Mix over a gamma-stepped counter; Float64 stays in
// [0,1); Intn(n<=1) returns 0 without consuming a draw (recorded DST seeds
// depend on it); Expo is positive and finite.
func TestRNG(t *testing.T) {
	const gamma = 0x9e3779b97f4a7c15
	r := seeded.NewRNG(42)
	for i := uint64(0); i < 4; i++ {
		if got, want := r.Uint64(), seeded.Mix(42+i*gamma); got != want {
			t.Fatalf("draw %d = %#x, want Mix(seed+%d*gamma) = %#x", i, got, i, want)
		}
	}
	a, b := seeded.NewRNG(7), seeded.NewRNG(7)
	if a.Intn(1) != 0 || a.Intn(0) != 0 || a.Uint64() != b.Uint64() {
		t.Fatal("Intn(n<=1) consumed a draw")
	}
	for i := 0; i < 1000; i++ {
		if f := a.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
		if n := a.Intn(7); n < 0 || n >= 7 {
			t.Fatalf("Intn(7) = %d", n)
		}
		if e := a.Expo(); !(e > 0) || math.IsInf(e, 0) {
			t.Fatalf("Expo = %v", e)
		}
	}
}
