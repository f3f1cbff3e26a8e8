package loadgen

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"salsa"
	"salsa/internal/flight"
)

// TestRunSteady: a small undersubscribed run delivers everything with an
// exactly-once verdict and no sheds.
func TestRunSteady(t *testing.T) {
	sc := Scenario{
		Name: "test-steady", Producers: 2, Consumers: 2,
		Horizon: 50 * time.Millisecond,
		Shape:   Shape{Kind: Poisson, Rate: 20_000},
		SizeMin: 32,
	}
	r := Run(sc, 1, Options{})
	if r.Verdict != nil {
		t.Fatalf("verdict: %v\nreplay: %s", r.Verdict, r.ReplayInvocation())
	}
	if r.Offered == 0 || r.Delivered != int64(r.Offered) || r.Shed != 0 {
		t.Fatalf("offered %d delivered %d shed %d", r.Offered, r.Delivered, r.Shed)
	}
	if r.Latency.Count != int64(r.Offered) {
		t.Fatalf("latency samples %d, want %d", r.Latency.Count, r.Offered)
	}
	if r.Telemetry.LoadgenOffered["low"] != int64(r.Offered) {
		t.Fatalf("LoadgenOffered = %v", r.Telemetry.LoadgenOffered)
	}
}

// TestRunSaturating: offered load far above a tiny pool's capacity still
// balances the books — delivered + shed == offered, sheds carry the
// saturated reason, and the verdict holds.
func TestRunSaturating(t *testing.T) {
	sc := Scenario{
		Name: "test-saturating", Producers: 2, Consumers: 1,
		ChunkSize: 8, InitialChunks: 1,
		Horizon: 60 * time.Millisecond,
		Shape:   Shape{Kind: Poisson, Rate: 150_000},
		SizeMin: 2_048,
	}
	r := Run(sc, 2, Options{})
	if r.Verdict != nil {
		t.Fatalf("verdict: %v\nreplay: %s", r.Verdict, r.ReplayInvocation())
	}
	if r.Delivered+r.Shed != int64(r.Offered) {
		t.Fatalf("delivered %d + shed %d != offered %d", r.Delivered, r.Shed, r.Offered)
	}
	if r.Shed == 0 {
		t.Fatal("150k/s against an 8-task-chunk pool shed nothing")
	}
	if r.ShedBy["low/saturated"] == 0 {
		t.Fatalf("no saturated sheds recorded: %v", r.ShedBy)
	}
}

// TestRunExecutorPath: the executor drive path (TrySubmitClass, closures
// on workers) produces the same exactly-once accounting.
func TestRunExecutorPath(t *testing.T) {
	sc := Scenario{
		Name: "test-executor", Producers: 2, Consumers: 2,
		Horizon:  50 * time.Millisecond,
		Shape:    Shape{Kind: Poisson, Rate: 15_000},
		SizeMin:  32,
		HighFrac: 0.5,
		Admission: salsa.AdmissionConfig{
			Rate:  1_000_000, // effectively unlimited
			Burst: 1 << 16,
		},
		UseExecutor: true,
	}
	r := Run(sc, 3, Options{})
	if r.Verdict != nil {
		t.Fatalf("verdict: %v\nreplay: %s", r.Verdict, r.ReplayInvocation())
	}
	if r.Delivered+r.Shed != int64(r.Offered) {
		t.Fatalf("delivered %d + shed %d != offered %d", r.Delivered, r.Shed, r.Offered)
	}
	if r.Admits["high"] == 0 || r.Admits["low"] == 0 {
		t.Fatalf("both classes should admit: %v", r.Admits)
	}
}

// TestRunFailNamesItsFlightDump forces a verdict failure (a loss budget of
// -1 rejects even a perfect round) and checks the black box: the verdict
// names the dump path it was given and the file opens as a flight dump.
// Run used to write the binary dump to loadgen-<scenario>-seed<N>.json,
// drop the write error and never mention the path.
func TestRunFailNamesItsFlightDump(t *testing.T) {
	if !flight.Compiled {
		t.Skip("flight recorder compiled out (salsa_noflight)")
	}
	sc := Scenario{
		Name: "test-forced-fail", Producers: 2, Consumers: 2,
		Horizon:    20 * time.Millisecond,
		Shape:      Shape{Kind: Poisson, Rate: 20_000},
		SizeMin:    32,
		LossBudget: -1,
	}
	dump := filepath.Join(t.TempDir(), "flight-loadgen-test-forced-fail-seed5.bin")
	r := Run(sc, 5, Options{FlightDump: dump})
	if r.Verdict == nil || !strings.Contains(r.Verdict.Error(), "exceeds crash budget -1") {
		t.Fatalf("verdict = %v, want the forced accounting failure", r.Verdict)
	}
	if !strings.Contains(r.Verdict.Error(), "flight dump: "+dump+"\n") {
		t.Fatalf("verdict does not name its dump %s:\n%v", dump, r.Verdict)
	}
	d, err := flight.ReadDumpFile(dump)
	if err != nil {
		t.Fatalf("ReadDumpFile(%s): %v", dump, err)
	}
	if d.Meta.Reason != "loadgen-fail" || len(d.Rings) == 0 {
		t.Fatalf("dump reason %q with %d rings", d.Meta.Reason, len(d.Rings))
	}
}

// TestMatrixShapes: every matrix scenario builds a non-empty schedule and
// a sane report string; ByName finds each, and the short matrix is the
// cheap pair.
func TestMatrixShapes(t *testing.T) {
	m := Matrix()
	if len(m) < 8 {
		t.Fatalf("matrix has %d scenarios, want ≥ 8", len(m))
	}
	for _, sc := range m {
		s := BuildSchedule(sc, 1)
		if len(s.Arrivals) == 0 {
			t.Fatalf("%s: empty schedule", sc.Name)
		}
		if _, err := ByName(sc.Name); err != nil {
			t.Fatalf("ByName(%s): %v", sc.Name, err)
		}
	}
	if _, err := ByName("no-such"); err == nil {
		t.Fatal("ByName should fail for unknown scenarios")
	}
	if len(ShortMatrix()) != 2 {
		t.Fatalf("short matrix has %d scenarios, want 2", len(ShortMatrix()))
	}
}
