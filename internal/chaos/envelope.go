package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"salsa/internal/flight"
)

// This file is the round envelope every seeded harness CLI shares —
// salsa-chaos, salsa-chaos -cluster, salsa-loadgen, salsa-stress and
// salsa-server -smoke: how a round's seed derives from the base seed, which
// table rows -run selects, where a failing round's flight dump goes, when a
// vacuous round re-rolls, and what the FAIL / ok / PASS lines look like.
// The load drivers (RunRound, loadgen.Run, remote.RunCluster, RunSmoke)
// stay separate; each CLI is a scenario table, a Harness, and a function
// that runs one cell. DESIGN.md "Seeded determinism".

// RoundSeed derives the seed of round `round` of the scenario at table index
// si from the base seed. The index is the row's position in the full table,
// so -run filtering does not move seeds.
func RoundSeed(seed int64, si, round int) int64 {
	return seed*1_000_003 + int64(si)*10_007 + int64(round)
}

// ErrVacuousRound marks a round whose exactly-once verdict held but whose
// coverage assertion was never exercised: the seeded fault schedule happened
// to miss the window it aims at. Fault coins are deterministic per (seed,
// site, rule, visit), but visit counts depend on real TCP chunking and
// goroutine timing, so whether a reset lands on a committed ACK varies run
// to run. Reroll retries such a round under a derived seed; a genuine
// regression surfaces as duplicates, losses or a timeout, which are hard
// failures and never carry this sentinel.
var ErrVacuousRound = errors.New("fault schedule missed its target window")

// Reroll runs round under seed; a round that ends in ErrVacuousRound is
// re-rolled under seed+1_000_000_007, at most twice, each re-roll reported to
// logf as "attempt=<i> seed=<n>: <err>". It returns the seed of the last
// attempt with that attempt's error.
func Reroll(seed int64, logf func(format string, args ...any), round func(seed int64) error) (int64, error) {
	for attempt := 0; ; attempt++ {
		err := round(seed)
		if !errors.Is(err, ErrVacuousRound) || attempt >= 2 {
			return seed, err
		}
		logf("attempt=%d seed=%d: %v", attempt, seed, err)
		seed += 1_000_000_007
	}
}

// StallSet draws the consumers that sit a round out: each stalls with
// probability frac, and at least one always runs. It draws from math/rand
// in consumer order so FAIL lines printed before this helper existed still
// replay.
func StallSet(rng *rand.Rand, consumers int, frac float64) map[int]bool {
	stalled := map[int]bool{}
	for ci := 0; ci < consumers; ci++ {
		if rng.Float64() < frac && len(stalled) < consumers-1 {
			stalled[ci] = true
		}
	}
	return stalled
}

// FlightPath names a round's flight dump: flight-<harness>[-<scenario>]-<tag>.bin
// under dir, or "" when dir is empty (dumps off).
func FlightPath(dir, harness, scenario, tag string) string {
	if dir == "" {
		return ""
	}
	name := "flight-" + harness
	if scenario != "" {
		name += "-" + scenario
	}
	return filepath.Join(dir, name+"-"+tag+".bin")
}

// Flight is one round's hold on the process-global flight recorder. A nil
// *Flight (dumps off, or salsa_noflight) is valid and does nothing.
type Flight struct{ path, harness string }

// ArmFlight arms the recorder for one round, sized for every consumer and
// producer id the round can mint, and returns the guard that dumps it to
// path. The caller defers Disarm.
func ArmFlight(path, harness string, consumers, producers int) *Flight {
	if path == "" || !flight.Compiled {
		return nil
	}
	flight.Enable(flight.Options{Consumers: consumers, Producers: producers, RingSize: flight.DefaultRingSize})
	return &Flight{path, harness}
}

// Disarm releases the recorder.
func (f *Flight) Disarm() {
	if f != nil {
		flight.Reset()
	}
}

// Fail snapshots the rings into the dump file and folds the path and a
// timeline excerpt into the verdict, so the error ships with the black box
// that explains it (salsa-doctor reads the full dump).
func (f *Flight) Fail(err error) error {
	if f == nil || err == nil {
		return err
	}
	d, werr := flight.CaptureToFile(f.path, f.harness+"-fail", err.Error(), true)
	if werr != nil {
		return fmt.Errorf("%w (flight dump %s failed: %v)", err, f.path, werr)
	}
	return fmt.Errorf("%w\nflight dump: %s\n%s", err, f.path, flight.Excerpt(d, 40))
}

// Pass writes the dump of a round that passed (smoke tests, corpus capture).
func (f *Flight) Pass() {
	if f != nil {
		flight.CaptureToFile(f.path, f.harness+"-pass", "round passed", false)
	}
}

// Spec is one named schedule string of a scenario, printed on its lines.
type Spec struct{ Name, Text string }

// Scenario is a harness table row as the envelope sees it.
type Scenario struct {
	Name  string
	Specs []Spec
}

// Harness is one invocation of a seeded harness CLI: the flags all of them
// share.
type Harness struct {
	// Name is the harness ("chaos", "cluster", "loadgen", "stress",
	// "serve-smoke"); it appears on every line and in dump file names.
	Name string
	// Seed is the base seed (-seed), Rounds the rounds per scenario, Filter
	// the -run substring ("" selects every row).
	Seed   int64
	Rounds int
	Filter string
	// FlightDir receives flight dumps and FAIL-line artifacts ("" = off).
	FlightDir string
	// KeepGoing runs the remaining cells after a FAIL instead of stopping.
	KeepGoing bool
	// Replay renders the ready-to-paste command that re-runs a cell.
	Replay func(c *Cell) string
}

// Cell is one (scenario, round) of a harness run.
type Cell struct {
	Scenario
	Index, Round int
	// Seed is the round seed. A round function whose faults run under a
	// different seed stores it here, so the FAIL line names the seed used.
	Seed int64
	// FlightDump is where the round's flight dump goes ("" = off).
	FlightDump string
}

// Cell builds the cell for a scenario round under an explicit round seed.
func (h *Harness) Cell(sc Scenario, si, round int, seed int64) *Cell {
	return &Cell{Scenario: sc, Index: si, Round: round, Seed: seed,
		FlightDump: FlightPath(h.FlightDir, h.Name, sc.Name, fmt.Sprintf("r%d", round))}
}

// Run plays every selected row of the table for h.Rounds rounds and returns
// the process exit code: 0 after the PASS line, 1 after a FAIL, 2 when -run
// matched nothing. round runs one cell and returns its key=value summary.
func (h *Harness) Run(table []Scenario, round func(c *Cell) (summary string, err error)) int {
	start := time.Now()
	ran, failed := 0, 0
	for si, sc := range table {
		if !strings.Contains(sc.Name, h.Filter) {
			continue
		}
		ran++
		for r := 0; r < h.Rounds; r++ {
			if h.Do(h.Cell(sc, si, r, RoundSeed(h.Seed, si, r)), round) {
				continue
			}
			if failed++; !h.KeepGoing {
				return 1
			}
		}
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	switch {
	case ran == 0:
		fmt.Fprintf(os.Stderr, "%s: no scenario matches -run %q\n", h.Name, h.Filter)
		return 2
	case failed > 0:
		fmt.Printf("\nFAIL: %s: %d failed rounds in %d scenarios x %d rounds, %v elapsed\n", h.Name, failed, ran, h.Rounds, elapsed)
		return 1
	}
	fmt.Printf("\nPASS: %s: %d scenarios x %d rounds, %v elapsed\n", h.Name, ran, h.Rounds, elapsed)
	return 0
}

// Do runs one cell (re-rolling a vacuous round) and prints its verdict line:
//
//	ok   harness=<h> scenario=<s> round=<i> <summary>
//	FAIL harness=<h> scenario=<s> round=<i> seed=<base> round-seed=<n> <spec>="..." err="..." replay="..." <summary>
//
// A FAIL line carries everything needed to reproduce; with a FlightDir it is
// also written next to the flight dump (same name, .txt) so a CI artifact is
// self-contained. Reports whether the cell passed.
func (h *Harness) Do(c *Cell, round func(c *Cell) (summary string, err error)) bool {
	id := "harness=" + h.Name
	if c.Name != "" {
		id += " scenario=" + c.Name
	}
	id += fmt.Sprintf(" round=%d", c.Round)
	var summary string // becomes " key=value ..." or stays empty
	_, err := Reroll(c.Seed,
		func(format string, args ...any) { fmt.Printf("reroll "+id+" "+format+"\n", args...) },
		func(seed int64) (err error) {
			c.Seed = seed
			if summary, err = round(c); summary != "" {
				summary = " " + summary
			}
			return err
		})
	if err == nil {
		fmt.Println("ok   " + id + summary)
		return true
	}
	line := fmt.Sprintf("FAIL %s seed=%d round-seed=%d", id, h.Seed, c.Seed)
	for _, s := range c.Specs {
		line += fmt.Sprintf(" %s=%q", s.Name, s.Text)
	}
	line += fmt.Sprintf(" err=%q replay=%q", err.Error(), h.Replay(c)) + summary
	fmt.Println(line)
	if c.FlightDump != "" {
		path := strings.TrimSuffix(c.FlightDump, ".bin") + ".txt"
		os.MkdirAll(filepath.Dir(path), 0o755)
		if werr := os.WriteFile(path, []byte(line+"\n"), 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "%s: FAIL artifact %s: %v\n", h.Name, path, werr)
		}
	}
	return false
}
