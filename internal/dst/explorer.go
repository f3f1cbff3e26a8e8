package dst

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"salsa/internal/backoff"
	"salsa/internal/failpoint"
	"salsa/internal/seeded"
	"salsa/internal/telemetry"
)

// Checker inspects the system after a schedule ran to completion and
// returns nil if every invariant held. It runs on the explorer goroutine
// with all scenario goroutines finished, so it may drain pools and walk
// state freely. Error messages must be deterministic (no map iteration,
// no addresses): they are part of the byte-identical output contract.
type Checker func(ctl *Controller) error

// Scenario is one reproducible concurrency situation over the real pool
// code. Build constructs a FRESH instance every call: it allocates pools,
// produces the initial tasks, registers failpoint hooks, spawns the actors
// on ctl, and returns the invariant checker. The explorer resets failpoint
// hooks and backoff test defaults after every run, so Build may set both
// without cleanup.
type Scenario struct {
	Name string
	Doc  string
	// Steps is the scenario's per-schedule strategy budget; 0 uses the
	// explorer default.
	Steps int
	Build func(ctl *Controller) Checker
}

// Options configures an exploration.
type Options struct {
	// Strategy is "random", "pct", or "dfs".
	Strategy string
	// Seed is the master seed; schedule i runs with mix(Seed, i).
	Seed uint64
	// Schedules bounds how many schedules are executed.
	Schedules int
	// MaxSteps bounds the strategy's decisions per schedule (the
	// deterministic lowest-id tail finishes the run beyond it).
	MaxSteps int
	// PCTDepth is the PCT d parameter (change points + 1).
	PCTDepth int
	// DFSDepth bounds the exhaustive search's decision tree depth.
	DFSDepth int
	// ShrinkBudget bounds the replays spent minimizing a failure.
	ShrinkBudget int
	// Log, when non-nil, receives one line per schedule plus failure
	// reports — deterministic byte-for-byte at fixed options.
	Log io.Writer
}

func (o Options) withDefaults() Options {
	if o.Strategy == "" {
		o.Strategy = "random"
	}
	if o.Schedules <= 0 {
		o.Schedules = 200
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 500
	}
	if o.PCTDepth <= 0 {
		o.PCTDepth = 3
	}
	if o.DFSDepth <= 0 {
		o.DFSDepth = 12
	}
	if o.ShrinkBudget <= 0 {
		o.ShrinkBudget = 400
	}
	return o
}

// Failure describes one failing schedule, minimized.
type Failure struct {
	Scenario string
	Strategy string
	Seed     uint64
	Schedule int    // index of the failing schedule within the exploration
	Err      string // the checker error or panic
	// Choices is the MINIMIZED goroutine-id choice list; replaying it
	// (ReplayStrategy) reproduces MinErr with trace MinTrace.
	Choices  []int
	MinTrace []Step
	MinErr   string
}

// ReplayArg renders the minimized choice list as the -replay flag value.
func (f *Failure) ReplayArg() string {
	parts := make([]string, len(f.Choices))
	for i, c := range f.Choices {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, ",")
}

// Report is the outcome of one exploration.
type Report struct {
	Scenario  string
	Strategy  string
	Seed      uint64
	Schedules int  // executed
	Steps     int  // total scheduler decisions
	Parks     int  // backoff would-sleeps from parking backoffs, summed
	Capped    int  // backoff would-sleeps capped by YieldOnly, summed
	Exhausted bool // DFS only: the bounded tree was fully enumerated
	Failure   *Failure
}

func mix(seed uint64, i int) uint64 {
	return seeded.Mix(seed ^ (uint64(i)+1)*0x9E3779B97F4A7C15)
}

// runOne executes a single schedule of sc under the given strategy and
// returns the controller (for its recorded schedule) and the verdict.
func runOne(sc Scenario, strat Strategy, maxSteps int) (*Controller, error) {
	if sc.Steps > 0 {
		maxSteps = sc.Steps
	}
	ctl := NewController(strat, maxSteps)
	check := sc.Build(ctl)
	ctl.Run()
	// A scenario may arm hooks and shrink the backoff phases; sweep both
	// so runs cannot leak configuration into each other. (Reset leaves
	// the controller's observer alone by design; Run already removed it.)
	failpoint.Reset()
	backoff.SetTestDefaults(0, 0)
	telemetry.DST.Schedules.Inc()
	telemetry.DST.Steps.Add(int64(ctl.Steps()))
	if p := ctl.Panics(); len(p) > 0 {
		return ctl, fmt.Errorf("panic: %s", strings.Join(p, "; "))
	}
	if check != nil {
		if err := check(ctl); err != nil {
			return ctl, err
		}
	}
	return ctl, nil
}

// Explore searches for a schedule of sc that breaks its checker. It is
// deterministic in (sc, opts): same inputs, same Report, same Log bytes.
func Explore(sc Scenario, opts Options) Report {
	opts = opts.withDefaults()
	rep := Report{Scenario: sc.Name, Strategy: opts.Strategy, Seed: opts.Seed}
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, format+"\n", args...)
		}
	}

	var dfsPrefix []int
	for i := 0; i < opts.Schedules; i++ {
		var strat Strategy
		switch opts.Strategy {
		case "pct":
			strat = NewPCT(mix(opts.Seed, i), opts.PCTDepth, opts.MaxSteps)
		case "dfs":
			strat = &dfsStrategy{prefix: dfsPrefix}
		default:
			strat = NewRandomWalk(mix(opts.Seed, i))
		}
		ctl, err := runOne(sc, strat, opts.MaxSteps)
		rep.Schedules++
		rep.Steps += ctl.Steps()
		rep.Parks += ctl.BackoffParks()
		rep.Capped += ctl.BackoffCapped()
		if err != nil {
			telemetry.DST.Failures.Inc()
			logf("FAIL scenario=%s strategy=%s seed=0x%x schedule=%d steps=%d err=%q",
				sc.Name, opts.Strategy, opts.Seed, i, ctl.Steps(), err)
			f := &Failure{
				Scenario: sc.Name, Strategy: opts.Strategy,
				Seed: opts.Seed, Schedule: i, Err: err.Error(),
			}
			f.Choices, f.MinTrace, f.MinErr = shrink(sc, ctl.Choices(), opts)
			rep.Failure = f
			logf("minimized to %d steps (err=%q):\n%sreplay: -scenario %s -replay %s",
				len(f.MinTrace), f.MinErr, FormatTrace(f.MinTrace), sc.Name, f.ReplayArg())
			return rep
		}
		logf("ok scenario=%s strategy=%s seed=0x%x schedule=%d steps=%d parks=%d capped=%d",
			sc.Name, opts.Strategy, opts.Seed, i, ctl.Steps(), ctl.BackoffParks(), ctl.BackoffCapped())
		if opts.Strategy == "dfs" {
			dfsPrefix = nextDFSPrefix(dfsPrefix, ctl.Widths(), opts.DFSDepth)
			if dfsPrefix == nil {
				rep.Exhausted = true
				logf("dfs exhausted bounded tree after %d schedules", rep.Schedules)
				break
			}
		}
	}
	return rep
}

// Replay runs sc once under a recorded choice list and returns the
// controller and verdict — the programmatic form of `salsa-dst -replay`.
func Replay(sc Scenario, choices []int, maxSteps int) (*Controller, error) {
	return runOne(sc, NewReplay(choices), maxSteps)
}

// shrink greedily minimizes a failing choice list: repeatedly try dropping
// a tail, then deleting progressively smaller chunks, keeping any candidate
// that still fails (any failure counts — a shrink that surfaces a different
// error for the same schedule family is still the same reproduction). Every
// candidate is a full deterministic replay of a fresh scenario instance.
func shrink(sc Scenario, choices []int, opts Options) ([]int, []Step, string) {
	budget := opts.ShrinkBudget
	fails := func(cand []int) (bool, error) {
		if budget <= 0 {
			return false, nil
		}
		budget--
		telemetry.DST.ShrinkRuns.Inc()
		_, err := Replay(sc, cand, opts.MaxSteps)
		return err != nil, err
	}

	best := append([]int(nil), choices...)
	// Tail truncation first: the recorded list includes the deterministic
	// drain tail, which is almost always re-derivable from nothing.
	for cut := len(best); cut >= 1; {
		if ok, _ := fails(best[:len(best)-cut]); ok {
			best = best[:len(best)-cut]
			if cut > len(best) {
				cut = len(best)
			}
			continue
		}
		cut /= 2
	}
	// Chunk deletion, halving the chunk size down to single choices.
	for size := (len(best) + 1) / 2; size >= 1; size /= 2 {
		for at := 0; at+size <= len(best); {
			cand := make([]int, 0, len(best)-size)
			cand = append(cand, best[:at]...)
			cand = append(cand, best[at+size:]...)
			if ok, _ := fails(cand); ok {
				best = cand
				continue // same offset, shorter list
			}
			at++
		}
	}
	// Final authoritative replay for the minimized trace and error.
	ctl, err := Replay(sc, best, opts.MaxSteps)
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	// Trim the trace to the strategy-driven prefix that matters: steps
	// beyond the choice list are the deterministic tail.
	trace := ctl.Trace()
	if len(best) > 0 && len(trace) > len(best) {
		trace = trace[:len(best)]
	}
	return best, trace, msg
}
