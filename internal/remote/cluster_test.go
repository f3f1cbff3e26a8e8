package remote

import (
	"testing"
	"time"

	"salsa/internal/chaos"
)

// clusterRound runs one small RunCluster round sized for tier-1 CI.
// A round that verified exactly-once but whose seeded faults missed the
// coverage window the scenario asserts on (chaos.ErrVacuousRound — fault
// placement depends on real TCP chunking) re-rolls with a derived seed;
// hard failures fail immediately.
func clusterRound(t *testing.T, sc ClusterScenario, seed int64) (res ClusterResult) {
	t.Helper()
	seed, err := chaos.Reroll(seed, t.Logf, func(seed int64) (err error) {
		res, err = RunCluster(ClusterOptions{
			Scenario:    sc,
			Seed:        seed,
			Producers:   2,
			PerProducer: 1200,
			Batch:       64,
			Timeout:     60 * time.Second,
			Logf:        t.Logf,
		})
		return err
	})
	if err != nil {
		t.Fatalf("scenario %s seed %d: %v\nspecs: %v\nfaults: %v", sc.Name, seed, err, res.Specs, res.Faults)
	}
	return res
}

// TestLossBudget: the derived budget counts every capped worker-path loss
// rule once per worker proxy and batch, ignores delays, and refuses a loss
// rule without a #count.
func TestLossBudget(t *testing.T) {
	budget := func(spec string) (int64, error) {
		return ClusterOptions{Scenario: ClusterScenario{WorkSpec: spec}, Batch: 64}.LossBudget()
	}
	for spec, want := range map[string]int64{
		"":                  0,
		"c2s=delay:1ms@0.5": 0,
		"s2c=reset@0.02#2":  2 * 64 * 2,
		"s2c=drip:40ms@0.03#3,c2s=delay:1ms,accept=blackhole#1": 4 * 64 * 2,
	} {
		if got, err := budget(spec); err != nil || got != want {
			t.Errorf("LossBudget(%q) = %d, %v; want %d", spec, got, err, want)
		}
	}
	for _, spec := range []string{"s2c=reset@0.02", "c2s=blackhole", "c2s=delay:1ms,s2c=drip:1ms"} {
		if _, err := budget(spec); err == nil {
			t.Errorf("LossBudget(%q) accepted an uncapped loss rule", spec)
		}
	}
}

// TestClusterBaseline: the full harness with no faults armed must
// deliver exactly once — the control arm every fault scenario implies.
func TestClusterBaseline(t *testing.T) {
	res := clusterRound(t, ClusterScenario{Name: "baseline"}, 1)
	if res.Dups != 0 || res.Lost != 0 {
		t.Fatalf("baseline round: dups=%d lost=%d", res.Dups, res.Lost)
	}
}

// TestClusterAckLossRetry: producer-path resets force lost-ACK retries;
// the dedup window must keep the round exactly-once and the replays must
// be observable.
func TestClusterAckLossRetry(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster fault round")
	}
	res := clusterRound(t, ClusterScenario{
		Name:        "ack-loss-retry",
		ProdSpec:    "s2c=reset@0.04#6",
		AssertDedup: true,
	}, 7)
	// A dedup replay needs at least one reset to have fired, and both
	// prod proxies' censuses must reach the caller.
	var byProxy int64
	for _, actions := range res.Faults {
		byProxy += actions["reset"]
	}
	if res.TotalFaults < 1 || res.TotalFaults != byProxy {
		t.Fatalf("TotalFaults = %d, per-proxy resets sum to %d (faults %v)", res.TotalFaults, byProxy, res.Faults)
	}
}

// TestClusterQuiesceHandoff: mid-round drain of shard 0 into shard 1
// with all workers on shard 1 — shard 0's tasks can only arrive through
// the handoff, and the round must still be exactly-once.
func TestClusterQuiesceHandoff(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster fault round")
	}
	res := clusterRound(t, ClusterScenario{
		Name:          "quiesce-handoff",
		Quiesce:       true,
		WorkersShard1: true,
		AssertHandoff: true,
	}, 3)
	if !res.Quiesced || res.Moved < 1 {
		t.Fatalf("quiesced=%v moved=%d, want a completed handoff", res.Quiesced, res.Moved)
	}
}
