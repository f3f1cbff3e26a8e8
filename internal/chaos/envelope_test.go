package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"salsa/internal/flight"
)

// TestRoundSeedAndStallSet pins the two derivations old FAIL lines depend
// on: the round seed formula, and the math/rand draw order of the stall set.
func TestRoundSeedAndStallSet(t *testing.T) {
	if got := RoundSeed(1, 7, 2); got != 1_000_003+7*10_007+2 {
		t.Fatalf("RoundSeed(1, 7, 2) = %d", got)
	}
	// Same draws as the loop salsa-chaos and salsa-stress each used to carry.
	rng := rand.New(rand.NewSource(RoundSeed(1, 7, 2)))
	want := map[int]bool{}
	for ci := 0; ci < 8; ci++ {
		if rng.Float64() < 0.5 && len(want) < 7 {
			want[ci] = true
		}
	}
	got := StallSet(rand.New(rand.NewSource(RoundSeed(1, 7, 2))), 8, 0.5)
	if !reflect.DeepEqual(got, want) || len(got) == 0 {
		t.Fatalf("StallSet = %v, want %v (non-empty)", got, want)
	}
	if all := StallSet(rand.New(rand.NewSource(1)), 4, 1); len(all) != 3 {
		t.Fatalf("frac 1 stalled %d of 4 consumers, want 3 (one always runs)", len(all))
	}
}

// TestHarnessRun plays a three-row table through the envelope: -run selects
// by substring without moving seeds, a vacuous round re-rolls under the
// derived seed, a FAIL stops the run with exit 1 and leaves the FAIL line —
// base seed, round seed, every spec, error, replay command, summary — next
// to the flight dump path, and a filter that matches nothing exits 2.
func TestHarnessRun(t *testing.T) {
	dir := t.TempDir()
	table := []Scenario{
		{Name: "alpha"},
		{Name: "beta-vacuous", Specs: []Spec{{"prod", "s2c=reset#1"}, {"work", ""}}},
		{Name: "beta-broken", Specs: []Spec{{"schedule", "x=fail"}}},
	}
	var seen []string
	h := &Harness{Name: "test", Seed: 5, Rounds: 2, Filter: "beta", FlightDir: dir,
		Replay: func(c *Cell) string { return fmt.Sprintf("replay -run %s -seed 5 -rounds %d", c.Name, c.Round+1) }}
	code := h.Run(table, func(c *Cell) (string, error) {
		seen = append(seen, fmt.Sprintf("%s/r%d/%d", c.Name, c.Round, c.Seed))
		switch {
		case c.Name == "beta-vacuous" && c.Round == 0 && c.Seed == RoundSeed(5, 1, 0):
			return "", fmt.Errorf("first roll: %w", ErrVacuousRound)
		case c.Name == "beta-broken":
			return "lost=3", errors.New("lost 3 tasks")
		}
		return "lost=0", nil
	})
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	wantSeen := []string{
		fmt.Sprintf("beta-vacuous/r0/%d", RoundSeed(5, 1, 0)),
		fmt.Sprintf("beta-vacuous/r0/%d", RoundSeed(5, 1, 0)+1_000_000_007),
		fmt.Sprintf("beta-vacuous/r1/%d", RoundSeed(5, 1, 1)),
		fmt.Sprintf("beta-broken/r0/%d", RoundSeed(5, 2, 0)),
	}
	if !reflect.DeepEqual(seen, wantSeen) {
		t.Fatalf("cells run:\n got  %v\n want %v", seen, wantSeen)
	}
	line, err := os.ReadFile(filepath.Join(dir, "flight-test-beta-broken-r0.txt"))
	if err != nil {
		t.Fatal(err)
	}
	wantLine := fmt.Sprintf("FAIL harness=test scenario=beta-broken round=0 seed=5 round-seed=%d "+
		`schedule="x=fail" err="lost 3 tasks" replay="replay -run beta-broken -seed 5 -rounds 1" lost=3`+"\n", RoundSeed(5, 2, 0))
	if string(line) != wantLine {
		t.Fatalf("FAIL line:\n got  %s want %s", line, wantLine)
	}

	h.Filter = "gamma"
	if code := h.Run(table, func(*Cell) (string, error) { t.Fatal("ran a cell"); return "", nil }); code != 2 {
		t.Fatalf("no-match exit code %d, want 2", code)
	}
	h.Filter, h.KeepGoing, seen = "", true, nil
	if code := h.Run(table, func(c *Cell) (string, error) {
		seen = append(seen, c.Name)
		return "", errors.New("always")
	}); code != 1 || len(seen) != 6 {
		t.Fatalf("KeepGoing: exit %d after %d cells, want 1 after all 6", code, len(seen))
	}
}

// TestFlightGuard: an armed guard turns a verdict into one that names the
// dump it wrote and quotes the timeline; a nil guard passes errors through.
func TestFlightGuard(t *testing.T) {
	verdict := errors.New("verdict")
	var off *Flight
	off.Disarm()
	off.Pass()
	if off.Fail(verdict) != verdict || ArmFlight("", "test", 1, 1) != nil {
		t.Fatal("a guard with dumps off must be nil and inert")
	}
	if !flight.Compiled {
		t.Skip("flight recorder compiled out (salsa_noflight)")
	}
	path := FlightPath(t.TempDir(), "test", "scn", "r0")
	fl := ArmFlight(path, "test", 2, 2)
	defer fl.Disarm()
	flight.RecordControl(flight.KMemberJoin, 1, 2, 3)
	err := fl.Fail(verdict)
	if !errors.Is(err, verdict) || !strings.Contains(err.Error(), "flight dump: "+path+"\n") {
		t.Fatalf("Fail = %v, want the verdict wrapped with its dump path", err)
	}
	d, rerr := flight.ReadDumpFile(path)
	if rerr != nil || d.Meta.Reason != "test-fail" {
		t.Fatalf("ReadDumpFile(%s) = %+v, %v", path, d, rerr)
	}
	if fl.Fail(nil) != nil {
		t.Fatal("Fail(nil) must stay nil")
	}
}
