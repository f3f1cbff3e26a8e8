// Command salsa-chaos runs a scripted fault matrix against the pool: each
// scenario arms a seeded failpoint schedule (delays, simulated chunk-pool
// exhaustion, consumers crashed inside their own synchronization windows)
// and drives the shared stress verifier, which checks zero-duplicate /
// zero-lost accounting with an explicit budget for scripted crashes.
//
// Every firing decision is a pure function of the seed, so a failure is
// replayable: the FAIL line prints the base seed, the round seed, the exact
// schedule spec and a ready-to-paste replay command that reproduces the
// same fault pattern (up to goroutine interleaving — which is what the
// faults are there to shake out). Exit status is non-zero on any failed
// round and the FAIL line is machine-checkable (one format for every seeded
// harness, printed by chaos.Harness — DESIGN.md "Seeded determinism"):
//
//	FAIL harness=chaos scenario=<name> round=<i> seed=<base> round-seed=<s> schedule="..." err="..." replay="..."
//
// With -cluster the binary instead runs the cluster fault matrix: two
// real shard servers on loopback TCP with every client path routed
// through a netchaos fault proxy (latency, mid-frame resets, one-way
// partitions, slow drips, blackholed accepts), producer failover with
// idempotent retry, worker redial/failover, and mid-round drain/quiesce
// handoffs — all verified with the same exactly-once ledger. Cluster
// FAIL lines (harness=cluster) print every proxy's schedule spec as
// prod="..." work="..." handoff="...", and every FAIL line is also written
// next to its flight dump (<flight-dir>/flight-<harness>-<scenario>-r<i>.txt)
// so CI uploads carry the replay recipe.
//
// Usage:
//
//	salsa-chaos [-seed n] [-rounds r] [-producers p] [-consumers c]
//	            [-tasks n] [-chunk s] [-stall frac] [-run substr] [-list]
//	            [-cluster]
//
// The matrix is intentionally small enough to run under -race in CI
// (`make chaos`, `make cluster-chaos`); raise -rounds or -tasks for
// longer soak runs.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"salsa"
	"salsa/internal/chaos"
	"salsa/internal/failpoint"
	"salsa/internal/remote"
)

// scenario is one cell of the fault matrix.
type scenario struct {
	name string
	// spec is the failpoint schedule (see failpoint.ParseSchedule).
	spec string
	// churn retires+re-adds a consumer every n retrieved tasks (0 = off).
	churn int
	// batch switches the round to the batched API when > 1.
	batch int
}

// matrix is the scripted fault matrix. Sites that simulate task-affecting
// faults carry #count caps so the crash/loss budget stays small and the
// round stays meaningful; timing faults (delay/yield) run uncapped.
var matrix = []scenario{
	{name: "baseline", spec: ""},
	{name: "produce-delay", spec: "produce.before-publish=delay:50us@0.02"},
	{name: "chunk-exhaustion", spec: "chunkpool.exhausted=fail@0.2"},
	{name: "consume-windows", spec: "consume.before-announce=fail@0.02,consume.after-announce=delay:50us@0.05"},
	{name: "lost-slot", spec: "consume.after-announce=fail@0.001#8"},
	{name: "steal-windows", spec: "steal.before-owner-cas=fail@0.2,steal.after-owner-cas=delay:100us@0.5"},
	{name: "checkempty-squeeze", spec: "checkempty.between-scans=delay:200us@0.5"},
	{name: "kill-mid-steal", spec: "membership.kill-mid-steal=kill@0.2#2"},
	{name: "kill-mid-consume", spec: "consume.before-announce=kill@0.001#2"},
	{name: "epoch-stall", spec: "membership.before-epoch-publish=delay:500us", churn: 400},
	{name: "churn-under-fire", spec: "steal.after-owner-cas=delay:50us@0.2,chunkpool.exhausted=fail@0.1", churn: 500},
	{name: "batch-kill-mid-steal", spec: "membership.kill-mid-steal=kill@0.2#2", batch: 8},
	{name: "everything", spec: "chunkpool.exhausted=fail@0.05,consume.before-announce=fail@0.01," +
		"steal.before-owner-cas=fail@0.02,checkempty.between-scans=yield@0.5," +
		"membership.kill-mid-steal=kill@0.1#2", churn: 600, batch: 4},
}

// clusterMatrix is the cluster fault matrix (run with -cluster). Fault
// scoping is deliberate: producer-path and handoff-path faults of any
// kind stay inside the exactly-once envelope (idempotent PUT_BATCH
// retry), while worker-path faults that can destroy a committed TASKS
// delivery carry a #count cap, from which RunCluster derives the round's
// loss budget — retrieval is at-most-once past the shard's commit
// (DESIGN.md §14). That includes worker-path c2s resets: the proxy may
// deliver the full GET_BATCH request in its pre-cut prefix, so the
// shard commits a batch onto a connection that is already dead. A
// dripped TASKS frame can outlive the worker's lease, so its tasks are
// delivered-but-dead.
var clusterMatrix = []remote.ClusterScenario{
	{Name: "baseline"},
	{Name: "wire-jitter",
		ProdSpec: "c2s=delay:300us@0.1,s2c=delay:300us@0.1",
		WorkSpec: "c2s=delay:300us@0.1,s2c=delay:300us@0.1"},
	{Name: "ack-loss-retry",
		ProdSpec:    "s2c=reset@0.04#6",
		AssertDedup: true},
	{Name: "retry-storm",
		ProdSpec:    "c2s=reset@0.02#4,s2c=reset@0.04#6",
		AssertDedup: true},
	{Name: "partition-oneway",
		ProdSpec: "c2s=blackhole@0.05#2"},
	{Name: "slow-drip-lease",
		WorkSpec: "s2c=drip:40ms@0.03#3"},
	{Name: "worker-blackhole-rejoin",
		WorkSpec: "s2c=blackhole@0.02#2"},
	{Name: "worker-ack-loss",
		WorkSpec: "s2c=reset@0.02#2"},
	{Name: "quiesce-handoff",
		Quiesce: true, WorkersShard1: true, AssertHandoff: true},
	{Name: "partition-during-quiesce",
		ProdSpec: "c2s=blackhole@0.03#2",
		Quiesce:  true, WorkersAfterQuiesce: 2},
	{Name: "shard-kill-mid-handoff",
		HandoffSpec: "s2c=reset@0.3#3,c2s=reset@0.2#2",
		Quiesce:     true, WorkersShard1: true, AssertHandoff: true},
	{Name: "everything",
		ProdSpec:    "c2s=delay:200us@0.1,s2c=reset@0.02#4",
		WorkSpec:    "c2s=delay:200us@0.1,c2s=reset@0.01#2",
		HandoffSpec: "s2c=reset@0.25#2",
		Quiesce:     true, WorkersAfterQuiesce: 1},
}

// runCluster executes the cluster matrix and returns the process exit code.
func runCluster(h *chaos.Harness, tasks int, list bool) int {
	if list {
		for _, sc := range clusterMatrix {
			budget, err := remote.ClusterOptions{Scenario: sc}.LossBudget()
			if err != nil {
				fmt.Fprintf(os.Stderr, "salsa-chaos: %s: %v\n", sc.Name, err)
				return 2
			}
			fmt.Printf("%-26s quiesce=%-5v budget=%-4d prod=%q work=%q handoff=%q\n",
				sc.Name, sc.Quiesce, budget, sc.ProdSpec, sc.WorkSpec, sc.HandoffSpec)
		}
		return 0
	}
	table := make([]chaos.Scenario, len(clusterMatrix))
	for i, sc := range clusterMatrix {
		table[i] = chaos.Scenario{Name: sc.Name, Specs: []chaos.Spec{
			{Name: "prod", Text: sc.ProdSpec}, {Name: "work", Text: sc.WorkSpec}, {Name: "handoff", Text: sc.HandoffSpec}}}
	}
	return h.Run(table, func(c *chaos.Cell) (string, error) {
		res, err := remote.RunCluster(remote.ClusterOptions{
			Scenario:    clusterMatrix[c.Index],
			Seed:        c.Seed,
			PerProducer: tasks,
			FlightDump:  c.FlightDump,
		})
		return fmt.Sprintf("delivered=%d dups=%d lost=%d dedup-hits=%d reconnects=%d handoff=%d faults=%d",
			res.Delivered, res.Dups, res.Lost, res.DedupHits, res.Reconnects, res.HandoffTasks, res.TotalFaults), err
	})
}

func main() {
	var (
		seed      = flag.Int64("seed", 1, "base seed; round seeds derive from it deterministically")
		rounds    = flag.Int("rounds", 3, "rounds per scenario")
		producers = flag.Int("producers", 4, "producer goroutines")
		consumers = flag.Int("consumers", 4, "consumer goroutines")
		tasks     = flag.Int("tasks", 20000, "tasks per producer per round")
		chunk     = flag.Int("chunk", 64, "chunk size")
		stall     = flag.Float64("stall", 0.25, "probability that a consumer stalls for a round")
		run       = flag.String("run", "", "only run scenarios whose name contains this substring")
		list      = flag.Bool("list", false, "print the scenario matrix and exit")
		flightDir = flag.String("flight-dir", "results", "directory for flight-recorder dumps on FAIL (empty = off)")
		cluster   = flag.Bool("cluster", false, "run the cluster fault matrix (two TCP shards behind netchaos proxies) instead of the in-process pool matrix")
	)
	flag.Parse()

	name, cmd := "chaos", "go run ./cmd/salsa-chaos"
	if *cluster {
		name, cmd = "cluster", cmd+" -cluster"
	}
	h := &chaos.Harness{Name: name, Seed: *seed, Rounds: *rounds, Filter: *run, FlightDir: *flightDir,
		Replay: func(c *chaos.Cell) string {
			return fmt.Sprintf("%s -run %s -seed %d -rounds %d", cmd, c.Name, *seed, c.Round+1)
		}}
	if *cluster {
		ctasks := *tasks
		if ctasks == 20000 { // the pool-matrix default is too heavy for a TCP round under -race
			ctasks = 2500
		}
		os.Exit(runCluster(h, ctasks, *list))
	}

	if *list {
		for _, sc := range matrix {
			fmt.Printf("%-22s churn=%-4d batch=%-2d %s\n", sc.name, sc.churn, sc.batch, sc.spec)
		}
		return
	}
	table := make([]chaos.Scenario, len(matrix))
	for i, sc := range matrix {
		table[i] = chaos.Scenario{Name: sc.name, Specs: []chaos.Spec{{Name: "schedule", Text: sc.spec}}}
	}
	os.Exit(h.Run(table, func(c *chaos.Cell) (string, error) {
		sc := matrix[c.Index]
		sched, err := failpoint.ParseSchedule(uint64(c.Seed), sc.spec)
		if err != nil {
			return "", err
		}
		res, err := chaos.RunRound(chaos.Options{
			Algorithm:        salsa.SALSA,
			Producers:        *producers,
			Consumers:        *consumers,
			TasksPerProducer: *tasks,
			ChunkSize:        *chunk,
			Batch:            sc.batch,
			Churn:            sc.churn,
			Seed:             c.Seed,
			Stalled:          chaos.StallSet(rand.New(rand.NewSource(c.Seed)), *consumers, *stall),
			Schedule:         sched,
			FlightDump:       c.FlightDump,
		})
		return fmt.Sprintf("steals=%d kills=%d lost=%d churn=%d fired=%d",
			res.Steals, res.Kills, res.Lost, res.ChurnCycles, sched.TotalFired()), err
	}))
}
