package chaos

import (
	"testing"

	"salsa"
	"salsa/internal/failpoint"
)

func round(t *testing.T, o Options) Result {
	t.Helper()
	res, err := RunRound(o)
	if err != nil {
		t.Fatalf("round failed: %v", err)
	}
	return res
}

func TestRunRoundDetectsNoViolations(t *testing.T) {
	for _, alg := range []salsa.Algorithm{salsa.SALSA, salsa.WSMSQ} {
		round(t, Options{Algorithm: alg, Producers: 2, Consumers: 2,
			TasksPerProducer: 2000, ChunkSize: 32, Seed: 1})
	}
}

func TestRunRoundWithStalledConsumer(t *testing.T) {
	round(t, Options{Algorithm: salsa.SALSA, Producers: 2, Consumers: 3,
		TasksPerProducer: 3000, ChunkSize: 16, Seed: 1, Stalled: map[int]bool{0: true}})
}

func TestRunRoundBatched(t *testing.T) {
	for _, alg := range []salsa.Algorithm{salsa.SALSA, salsa.SALSACAS, salsa.WSMSQ} {
		round(t, Options{Algorithm: alg, Producers: 2, Consumers: 3,
			TasksPerProducer: 3000, ChunkSize: 16, Batch: 32, Seed: 1,
			Stalled: map[int]bool{0: true}})
	}
}

// churnRound runs one round with churn enabled; the churner guarantees at
// least one retire+re-add cycle even when the round drains before the first
// pacing threshold, so a zero cycle count is a real failure.
func churnRound(t *testing.T, alg salsa.Algorithm, batch int) {
	t.Helper()
	res := round(t, Options{Algorithm: alg, Producers: 2, Consumers: 3,
		TasksPerProducer: 30000, ChunkSize: 16, Batch: batch, Churn: 150, Seed: 7})
	if res.ChurnCycles == 0 {
		t.Errorf("%v: churn round performed no membership cycles", alg)
	}
}

func TestRunRoundWithChurn(t *testing.T) {
	for _, alg := range []salsa.Algorithm{salsa.SALSA, salsa.SALSACAS, salsa.WSMSQ} {
		churnRound(t, alg, 1)
	}
}

func TestRunRoundChurnBatched(t *testing.T) {
	churnRound(t, salsa.SALSA, 16)
}

// TestRunRoundLosslessFaultMix arms availability and timing faults that by
// construction may not lose a single task; the round's strict accounting
// must still hold while faults demonstrably fire.
func TestRunRoundLosslessFaultMix(t *testing.T) {
	if !failpoint.Compiled {
		t.Skip("failpoints compiled out (salsa_nofailpoint)")
	}
	sched, err := failpoint.ParseSchedule(42,
		"chunkpool.exhausted=fail@0.2,consume.before-announce=fail@0.05,"+
			"steal.before-owner-cas=fail@0.2,checkempty.between-scans=yield@0.5")
	if err != nil {
		t.Fatal(err)
	}
	res := round(t, Options{Algorithm: salsa.SALSA, Producers: 2, Consumers: 3,
		TasksPerProducer: 5000, ChunkSize: 16, Seed: 3, Stalled: map[int]bool{0: true},
		Schedule: sched})
	if res.Lost != 0 {
		t.Fatalf("lossless fault mix lost %d tasks", res.Lost)
	}
	if sched.TotalFired() == 0 {
		t.Fatal("no faults fired — the schedule was not exercised")
	}
}

// TestRunRoundKillMidSteal crashes thieves between their ownership CAS and
// the steal-list publish — the window that strands a chunk under a dead
// owner id. The departed-owner rescue must reclaim it: zero lost (a thief
// dies outside any announce), zero duplicates.
func TestRunRoundKillMidSteal(t *testing.T) {
	sched, err := failpoint.ParseSchedule(7, "membership.kill-mid-steal=kill@0.5#2")
	if err != nil {
		t.Fatal(err)
	}
	res := round(t, Options{Algorithm: salsa.SALSA, Producers: 2, Consumers: 3,
		TasksPerProducer: 8000, ChunkSize: 16, Seed: 5, Stalled: map[int]bool{0: true},
		Schedule: sched})
	if res.Kills == 0 {
		t.Skip("schedule did not kill (few steals this interleaving); seed covers it in the chaos matrix")
	}
	if res.Lost != 0 {
		t.Fatalf("kill-mid-steal lost %d tasks; the stranded chunk was not rescued", res.Lost)
	}
}

// TestRunRoundBudgetedLoss scripts post-announce failures, each of which
// abandons exactly the announced slot; the round must pass with Lost within
// the budget rather than demanding perfection from a scripted crash.
func TestRunRoundBudgetedLoss(t *testing.T) {
	sched, err := failpoint.ParseSchedule(11, "consume.after-announce=fail@0.01#4")
	if err != nil {
		t.Fatal(err)
	}
	res := round(t, Options{Algorithm: salsa.SALSA, Producers: 2, Consumers: 2,
		TasksPerProducer: 5000, ChunkSize: 16, Seed: 9, Schedule: sched})
	if res.Lost > 4 {
		t.Fatalf("lost %d tasks, budget was 4", res.Lost)
	}
}
