// Command salsa-loadgen replays seeded traffic scenarios against the real
// pool and executor through the admission-control layer: open-loop Poisson
// bursts, diurnal ramps, thundering herds, Zipf producer hotspots,
// heavy-tailed task sizes, and priority-class floods (internal/loadgen's
// matrix). Every run ends in an exactly-once accounting verdict — each
// offered task delivered or measurably shed, never both, never neither —
// plus a p50/p99/p999 delivery-latency report and the admission census.
//
// The arrival schedule is a pure function of (scenario, seed): a FAIL line
// prints the scenario seed and a one-line replay invocation, and rerunning
// it rebuilds the byte-identical schedule (verify with -print-schedule).
// FAIL lines are machine-checkable (the shared chaos.Harness format; the
// scenario seed is round-seed, err names the flight dump it left):
//
//	FAIL harness=loadgen scenario=<name> round=0 seed=<base> round-seed=<s> err="..." replay="..."
//
// Usage:
//
//	salsa-loadgen [-seed n] [-scenario name] [-run substr] [-list]
//	              [-print-schedule] [-csv path] [-flight-dir dir]
//
// With no -scenario the whole matrix runs (`make soak` does this under
// -race) and per-scenario results land in -csv for CI artifacts.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"salsa/internal/chaos"
	"salsa/internal/loadgen"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "base seed; scenario seeds derive from it deterministically")
		one       = flag.String("scenario", "", "run exactly this scenario with -seed as its schedule seed (replay mode)")
		run       = flag.String("run", "", "only run matrix scenarios whose name contains this substring")
		list      = flag.Bool("list", false, "print the scenario matrix and exit")
		printSch  = flag.Bool("print-schedule", false, "with -scenario: print the canonical schedule log and exit (the replay witness)")
		csvPath   = flag.String("csv", "results/soak.csv", "per-scenario results CSV (empty = off)")
		flightDir = flag.String("flight-dir", "results", "directory for flight-recorder dumps on FAIL (empty = off)")
	)
	flag.Parse()

	if *list {
		for _, sc := range loadgen.Matrix() {
			fmt.Printf("%-20s P%d/C%d %-8s horizon=%-6v exec=%-5v %s\n",
				sc.Name, sc.Producers, sc.Consumers, sc.Shape.Kind, sc.Horizon, sc.UseExecutor, sc.Notes)
		}
		return
	}

	h := &chaos.Harness{Name: "loadgen", Seed: *seed, Rounds: 1, Filter: *run, FlightDir: *flightDir, KeepGoing: true,
		Replay: func(c *chaos.Cell) string {
			return fmt.Sprintf("go run ./cmd/salsa-loadgen -scenario %s -seed %d", c.Name, c.Seed)
		}}
	var rows []string
	runCell := func(c *chaos.Cell) (string, error) {
		sc, err := loadgen.ByName(c.Name)
		if err != nil {
			return "", err
		}
		// Dumps are named by scenario seed, not round: replay mode reuses
		// round 0 under any seed.
		c.FlightDump = chaos.FlightPath(*flightDir, h.Name, c.Name, fmt.Sprintf("seed%d", c.Seed))
		res := loadgen.Run(sc, uint64(c.Seed), loadgen.Options{FlightDump: c.FlightDump})
		verdict := "ok"
		if res.Verdict != nil {
			verdict = res.Verdict.Error()
		}
		rows = append(rows, fmt.Sprintf("%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%q",
			res.Scenario, res.Seed, res.Offered, res.Delivered, res.Shed, res.Late,
			res.QueueAdmits, res.Latency.P50().Nanoseconds(), res.Latency.P99().Nanoseconds(),
			res.Latency.P999().Nanoseconds(), res.Elapsed.Milliseconds(), verdict))
		return res.Summary(), res.Verdict
	}

	// Replay mode: one scenario, the seed used verbatim.
	if *one != "" {
		sc, err := loadgen.ByName(*one)
		if err != nil {
			fmt.Fprintf(os.Stderr, "salsa-loadgen: %v\n", err)
			os.Exit(2)
		}
		if *printSch {
			os.Stdout.Write(loadgen.BuildSchedule(sc, uint64(*seed)).Log())
			return
		}
		if !h.Do(h.Cell(chaos.Scenario{Name: sc.Name}, 0, 0, *seed), runCell) {
			os.Exit(1)
		}
		return
	}
	if *printSch {
		fmt.Fprintln(os.Stderr, "salsa-loadgen: -print-schedule requires -scenario")
		os.Exit(2)
	}

	// Matrix mode: per-scenario seeds derive from the base seed exactly as
	// salsa-chaos round seeds do (chaos.RoundSeed, round 0).
	var table []chaos.Scenario
	for _, sc := range loadgen.Matrix() {
		table = append(table, chaos.Scenario{Name: sc.Name})
	}
	code := h.Run(table, runCell)
	if *csvPath != "" && code != 2 {
		writeCSV(*csvPath, rows)
	}
	os.Exit(code)
}

func writeCSV(path string, rows []string) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "salsa-loadgen: %v\n", err)
			return
		}
	}
	body := "scenario,seed,offered,delivered,shed,late,queue_admits,p50_ns,p99_ns,p999_ns,elapsed_ms,verdict\n" +
		strings.Join(rows, "\n") + "\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "salsa-loadgen: csv %s: %v\n", path, err)
		return
	}
	fmt.Printf("results csv: %s\n", path)
}
