package salsa_test

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"salsa"
	"salsa/internal/backoff"
	"salsa/internal/chaos"
	"salsa/internal/loadgen"
)

// TestSoak drives the shared traffic-scenario matrix (internal/loadgen):
// seeded open-loop arrival processes — Poisson bursts, diurnal ramps,
// thundering herds, Zipf hotspots, heavy-tailed sizes, priority floods —
// replayed through the admission layer against the real pool and executor.
// Each scenario must end in an exactly-once accounting verdict: every
// offered task delivered or measurably shed, never both, never neither.
// Short mode runs the cheap pair; full mode runs the whole matrix (the
// same suite as `make soak`). A failure names the scenario seed and the
// salsa-loadgen replay line that rebuilds the identical schedule.
func TestSoak(t *testing.T) {
	scenarios := loadgen.Matrix()
	if testing.Short() {
		scenarios = loadgen.ShortMatrix()
	}
	const seed = 1
	for si, sc := range scenarios {
		sc := sc
		scSeed := uint64(chaos.RoundSeed(seed, si, 0))
		t.Run(sc.Name, func(t *testing.T) {
			res := loadgen.Run(sc, scSeed, loadgen.Options{})
			t.Log(res.Summary())
			if res.Verdict != nil {
				t.Fatalf("verdict: %v\nreplay: %s", res.Verdict, res.ReplayInvocation())
			}
			if res.Delivered+res.Shed != int64(res.Offered) {
				t.Fatalf("books don't balance: offered %d, delivered %d, shed %d",
					res.Offered, res.Delivered, res.Shed)
			}
		})
	}
}

// TestHerdShedNeverParks is the latency-assertion regression test for the
// shed policy: under the thundering-herd scenario, overload must surface
// as immediate typed sheds (TryPut's ErrSaturated converted by the
// admission layer), never as producer-side parking — and plain Get must
// keep its never-parks contract on the consumer side. The pause observer
// sees every backoff decision in the process; any would-sleep pause
// outside a YieldOnly loop means someone turned backpressure into a timed
// block, i.e. admission control was bypassed.
func TestHerdShedNeverParks(t *testing.T) {
	sc, err := loadgen.ByName("thundering-herd")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Admission.Policy != salsa.AdmitShed {
		t.Fatalf("thundering-herd must use the shed policy, got %v", sc.Admission.Policy)
	}

	var pauses, wouldPark atomic.Int64
	backoff.SetPauseObserver(func(info backoff.PauseInfo) {
		pauses.Add(1)
		if info.WouldSleep && !info.YieldOnly {
			wouldPark.Add(1)
		}
		// The observer replaces Pause's own waiting; keep the run live.
		runtime.Gosched()
	})
	defer backoff.SetPauseObserver(nil)

	res := loadgen.Run(sc, 99, loadgen.Options{})
	if res.Verdict != nil {
		t.Fatalf("verdict: %v\nreplay: %s", res.Verdict, res.ReplayInvocation())
	}
	if res.Shed == 0 {
		t.Fatal("the herd saturated nothing: ErrSaturated conversion untested")
	}
	if res.ShedBy["low/saturated"] == 0 {
		t.Fatalf("herd sheds must carry the saturated reason (the ErrSaturated conversion): %v", res.ShedBy)
	}
	if n := wouldPark.Load(); n != 0 {
		t.Fatalf("%d would-park pauses under the shed policy: a retry loop is blocking instead of shedding", n)
	}
	t.Logf("herd: %d sheds, %d deliveries, %d pauses (all yield-capped), p99=%v",
		res.Shed, res.Delivered, pauses.Load(), res.Latency.P99())
}

// TestShedErrorIsSaturated pins the contract the herd test relies on: a
// saturation shed matches both sentinels, a rate shed only ErrShed.
func TestShedErrorIsSaturated(t *testing.T) {
	sat := &salsa.ShedError{Class: salsa.ClassLow, Reason: salsa.ShedSaturated}
	if !errors.Is(sat, salsa.ErrShed) || !errors.Is(sat, salsa.ErrSaturated) {
		t.Fatal("saturation shed must match ErrShed and ErrSaturated")
	}
	rate := &salsa.ShedError{Class: salsa.ClassHigh, Reason: salsa.ShedRate}
	if !errors.Is(rate, salsa.ErrShed) || errors.Is(rate, salsa.ErrSaturated) {
		t.Fatal("rate shed must match ErrShed only")
	}
}
