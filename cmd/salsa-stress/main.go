// Command salsa-stress is a long-running invariant checker for the pool
// implementations: it hammers a pool with concurrent producers and
// consumers — optionally stalling some consumers at random, the paper's
// robustness scenario (§1.1) — and verifies the paper's correctness
// invariants online:
//
//   - uniqueness: no task is ever returned twice (Lemma 12);
//   - completeness: after producers stop and the pool drains, every task
//     was returned exactly once (Claim 4);
//   - linearizable emptiness: a consumer that sees ⊥ after production
//     ended must be right — the final accounting catches violations.
//
// Usage:
//
//	salsa-stress [-algorithm name] [-producers p] [-consumers c]
//	             [-rounds r] [-tasks n] [-chunk s] [-stall frac] [-batch b]
//	             [-churn n] [-fail-rate f] [-schedule spec] [-chaos-seed n]
//	             [-metrics-addr a] [-trace-log f] [-snapshot-every d]
//
// With -batch > 1 the producers insert via PutBatch and the consumers drain
// via GetBatch, so the same invariants are checked against the batched API
// paths (including the batch fast path racing chunk steals).
//
// With -churn N the run exercises elastic membership: every N retrieved
// tasks a random running consumer is retired (its goroutine stopped, its
// pool abandoned with whatever backlog it held) and a fresh consumer is
// added in its place. The same zero-lost / zero-duplicate accounting runs
// at round end, so any task dropped or double-delivered across a
// membership epoch fails the round.
//
// With -fail-rate F the failpoint registry is armed with a default fault
// mix at per-visit probability F — simulated chunk-pool exhaustion,
// pre-announce consume failures, pre-CAS steal abandonment and checkEmpty
// yields; none of these may lose a task, so the strict accounting still
// applies. -schedule overrides the mix with an explicit failpoint spec
// (see cmd/salsa-chaos for scripted kill scenarios). -chaos-seed seeds the
// schedule's deterministic firing decisions independently of -seed.
//
// A failing round prints a machine-checkable line to stdout and exits 1
// (the shared chaos.Harness format; round-seed is that round's chaos seed):
//
//	FAIL harness=stress round=<i> seed=<n> round-seed=<n> schedule="..." err="..." replay="..."
//
// With -metrics-addr the process serves /metrics (Prometheus text format)
// and /metrics.json for the pool of the round currently running — a live
// view of the steal matrix and checkEmpty traffic while the invariants are
// being hammered. -trace-log appends raw JSONL telemetry events;
// -snapshot-every prints rate deltas to stderr.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"salsa"
	"salsa/internal/chaos"
	"salsa/internal/failpoint"
	"salsa/internal/telemetry"
)

func parseAlgorithm(s string) (salsa.Algorithm, error) {
	switch strings.ToLower(s) {
	case "salsa":
		return salsa.SALSA, nil
	case "salsa+cas", "salsacas":
		return salsa.SALSACAS, nil
	case "concbag":
		return salsa.ConcBag, nil
	case "ws-msq", "wsmsq":
		return salsa.WSMSQ, nil
	case "ws-lifo", "wslifo":
		return salsa.WSLIFO, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q", s)
	}
}

// defaultFaultMix is the -fail-rate fault set: timing and availability
// faults only, so zero-lost accounting stays strict. The %f placeholders
// take the per-visit rate.
const defaultFaultMix = "chunkpool.exhausted=fail@%g," +
	"consume.before-announce=fail@%g," +
	"steal.before-owner-cas=fail@%g," +
	"checkempty.between-scans=yield@%g"

func main() {
	var (
		algName   = flag.String("algorithm", "salsa", "salsa|salsa+cas|concbag|ws-msq|ws-lifo")
		producers = flag.Int("producers", 4, "producer goroutines")
		consumers = flag.Int("consumers", 4, "consumer goroutines")
		rounds    = flag.Int("rounds", 20, "independent pool lifecycles to run")
		tasks     = flag.Int("tasks", 50000, "tasks per producer per round")
		chunk     = flag.Int("chunk", 64, "chunk/block size")
		stall     = flag.Float64("stall", 0.25, "probability that a consumer stalls for a round")
		batch     = flag.Int("batch", 1, "tasks per API call (1 = single-task Put/Get)")
		churn     = flag.Int("churn", 0, "retire and re-add a random consumer every N retrieved tasks (0 = off)")
		seed      = flag.Int64("seed", 1, "rng seed for stall and churn schedules")

		failRate  = flag.Float64("fail-rate", 0, "arm the default failpoint mix at this per-visit probability (0 = off)")
		schedSpec = flag.String("schedule", "", "explicit failpoint schedule spec (overrides -fail-rate)")
		chaosSeed = flag.Int64("chaos-seed", 0, "seed for failpoint firing decisions (0 = derive from -seed)")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /metrics.json on this address during the run")
		traceLog    = flag.String("trace-log", "", "append JSONL telemetry events to this file")
		snapEvery   = flag.Duration("snapshot-every", 0, "print telemetry deltas to stderr at this interval")

		flightDir    = flag.String("flight-dir", "results", "directory for flight-recorder dumps on FAIL (empty = off)")
		flightAlways = flag.Bool("flight-always", false, "write a flight dump even for passing rounds (smoke/corpus capture)")
	)
	flag.Parse()
	alg, err := parseAlgorithm(*algName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "salsa-stress: %v\n", err)
		os.Exit(2)
	}
	rng := rand.New(rand.NewSource(*seed))
	if *chaosSeed == 0 {
		*chaosSeed = *seed
	}
	spec := *schedSpec
	if spec == "" && *failRate > 0 {
		if *failRate > 1 {
			fmt.Fprintf(os.Stderr, "salsa-stress: -fail-rate %g outside (0,1]\n", *failRate)
			os.Exit(2)
		}
		spec = fmt.Sprintf(defaultFaultMix, *failRate, *failRate, *failRate, *failRate)
	}
	if _, err := failpoint.ParseSchedule(0, spec); err != nil {
		fmt.Fprintf(os.Stderr, "salsa-stress: bad schedule: %v\n", err)
		os.Exit(2)
	}
	if spec != "" && alg != salsa.SALSA && alg != salsa.SALSACAS {
		// Failpoint sites live in the chunk-based substrates; other
		// algorithms would silently run fault-free.
		fmt.Fprintf(os.Stderr, "salsa-stress: -fail-rate/-schedule require -algorithm salsa or salsa+cas\n")
		os.Exit(2)
	}

	live := &chaos.Live{}
	obsMetrics := false
	var tracer salsa.Tracer
	if *metricsAddr != "" || *snapEvery > 0 {
		obsMetrics = true
	}
	if *metricsAddr != "" {
		srv, err := telemetry.Serve(*metricsAddr, telemetry.Handler(live, telemetry.HandlerOptions{PProf: true}))
		if err != nil {
			fmt.Fprintf(os.Stderr, "salsa-stress: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "# metrics on http://%s/metrics\n", srv.Addr())
	}
	if *traceLog != "" {
		f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "salsa-stress: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		obsMetrics = true
		tracer = telemetry.NewLogTracer(f)
	}
	if *snapEvery > 0 {
		stop := telemetry.StartDeltaLoop(os.Stderr, live, *snapEvery)
		defer stop()
	}

	// One unnamed scenario: -seed drives the stall and churn draws through
	// one math/rand stream across rounds, and round i's fault schedule runs
	// under chaos-seed+i (reported as the cell's round-seed), so a FAIL
	// replays by re-running the same command line.
	h := &chaos.Harness{Name: "stress", Seed: *seed, Rounds: *rounds, FlightDir: *flightDir,
		Replay: func(*chaos.Cell) string { return "go run ./cmd/salsa-stress " + strings.Join(os.Args[1:], " ") }}
	var totalSteals, totalFired int64
	code := h.Run([]chaos.Scenario{{Specs: []chaos.Spec{{Name: "schedule", Text: spec}}}}, func(c *chaos.Cell) (string, error) {
		stalled := chaos.StallSet(rng, *consumers, *stall)
		c.Seed = *chaosSeed + int64(c.Round)
		sched, err := failpoint.ParseSchedule(uint64(c.Seed), spec)
		if err != nil {
			return "", err
		}
		res, err := chaos.RunRound(chaos.Options{
			Algorithm:        alg,
			Producers:        *producers,
			Consumers:        *consumers,
			TasksPerProducer: *tasks,
			ChunkSize:        *chunk,
			Batch:            *batch,
			Churn:            *churn,
			Seed:             rng.Int63(),
			Stalled:          stalled,
			Schedule:         sched,
			Metrics:          obsMetrics,
			Tracer:           tracer,
			Live:             live,
			FlightDump:       c.FlightDump,
			FlightAlways:     *flightAlways,
		})
		totalSteals += res.Steals
		totalFired += sched.TotalFired()
		return fmt.Sprintf("tasks=%d steals=%d churn=%d fired=%d stalled=%v",
			*producers**tasks, res.Steals, res.ChurnCycles, sched.TotalFired(), keys(stalled)), err
	})
	if code != 0 {
		os.Exit(code)
	}
	fmt.Printf("%s: %d tasks total, %d steals, %d faults fired\n",
		alg, int64(*rounds)*int64(*producers)*int64(*tasks), totalSteals, totalFired)
}

func keys(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}
