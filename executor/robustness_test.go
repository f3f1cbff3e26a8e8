package executor

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"salsa"
	"salsa/internal/failpoint"
	"salsa/internal/telemetry"
)

func TestPanicHandlerObservesRecoveredValue(t *testing.T) {
	var got atomic.Value
	e, err := New(Config{Workers: 1, PanicHandler: func(r any) { got.Store(r) }})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(func() { panic("boom") }); err != nil {
		t.Fatal(err)
	}
	var after atomic.Bool
	if err := e.Submit(func() { after.Store(true) }); err != nil {
		t.Fatal(err)
	}
	e.Shutdown(true)
	if !after.Load() {
		t.Fatal("worker died after a panicking task")
	}
	if r, _ := got.Load().(string); r != "boom" {
		t.Fatalf("handler saw %v, want \"boom\"", got.Load())
	}
	if e.Panics() != 1 {
		t.Fatalf("Panics = %d, want 1", e.Panics())
	}
}

func TestPanickingPanicHandlerDoesNotKillWorker(t *testing.T) {
	e, err := New(Config{Workers: 1, PanicHandler: func(any) { panic("handler boom") }})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(func() { panic("boom") }); err != nil {
		t.Fatal(err)
	}
	var after atomic.Bool
	if err := e.Submit(func() { after.Store(true) }); err != nil {
		t.Fatal(err)
	}
	e.Shutdown(true)
	if !after.Load() {
		t.Fatal("worker died when the panic handler itself panicked")
	}
}

func TestTelemetrySnapshotCountsTaskPanics(t *testing.T) {
	e, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.Submit(func() { panic(i) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Shutdown(true)
	snap := e.TelemetrySnapshot()
	if snap.TaskPanics != 3 {
		t.Fatalf("TaskPanics = %d, want 3", snap.TaskPanics)
	}
	var sb strings.Builder
	telemetry.WritePrometheus(&sb, snap)
	if !strings.Contains(sb.String(), "salsa_task_panics_total 3") {
		t.Fatal("salsa_task_panics_total not exposed")
	}
}

// TestTrySubmitSaturation drives the executor's typed backpressure through
// the whole stack with a simulated chunk-pool exhaustion: every Produce
// fails, so TrySubmit must surface salsa.ErrSaturated instead of silently
// force-expanding like Submit does.
func TestTrySubmitSaturation(t *testing.T) {
	if !failpoint.Compiled {
		t.Skip("failpoints compiled out (salsa_nofailpoint)")
	}
	e, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown(false)

	defer failpoint.Reset()
	failpoint.Set(failpoint.ChunkpoolExhausted, func(failpoint.Site, int) bool { return true })

	err = e.TrySubmit(func() {})
	if !errors.Is(err, salsa.ErrSaturated) {
		t.Fatalf("TrySubmit under exhaustion = %v, want ErrSaturated", err)
	}

	failpoint.Reset()
	var ran atomic.Bool
	if err := e.TrySubmit(func() { ran.Store(true) }); err != nil {
		t.Fatalf("TrySubmit after pressure lifted: %v", err)
	}
	e.Shutdown(true)
	if !ran.Load() {
		t.Fatal("accepted task never ran")
	}
}

func TestSubmitContextCancellation(t *testing.T) {
	if !failpoint.Compiled {
		t.Skip("failpoints compiled out (salsa_nofailpoint)")
	}
	e, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown(false)

	defer failpoint.Reset()
	failpoint.Set(failpoint.ChunkpoolExhausted, func(failpoint.Site, int) bool { return true })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = e.SubmitContext(ctx, func() {})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SubmitContext under permanent saturation = %v, want DeadlineExceeded", err)
	}

	failpoint.Reset()
	var ran atomic.Bool
	if err := e.SubmitContext(context.Background(), func() { ran.Store(true) }); err != nil {
		t.Fatalf("SubmitContext after pressure lifted: %v", err)
	}
	e.Shutdown(true)
	if !ran.Load() {
		t.Fatal("accepted task never ran")
	}
}

// TestTrySubmitBatchSaturation is the batched face of the same contract:
// under exhaustion the whole run is refused with n = 0 and ErrSaturated
// (the caller keeps every task); with pressure lifted the run is accepted
// whole and executes.
func TestTrySubmitBatchSaturation(t *testing.T) {
	if !failpoint.Compiled {
		t.Skip("failpoints compiled out (salsa_nofailpoint)")
	}
	e, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown(false)

	defer failpoint.Reset()
	failpoint.Set(failpoint.ChunkpoolExhausted, func(failpoint.Site, int) bool { return true })

	var ran atomic.Int64
	batch := []Task{
		func() { ran.Add(1) },
		func() { ran.Add(1) },
		func() { ran.Add(1) },
	}
	n, err := e.TrySubmitBatch(batch)
	if n != 0 || !errors.Is(err, salsa.ErrSaturated) {
		t.Fatalf("TrySubmitBatch under exhaustion = (%d, %v), want (0, ErrSaturated)", n, err)
	}

	failpoint.Reset()
	n, err = e.TrySubmitBatch(batch)
	if n != len(batch) || err != nil {
		t.Fatalf("TrySubmitBatch after pressure lifted = (%d, %v), want (%d, nil)", n, err, len(batch))
	}
	if n, err := e.TrySubmitBatch(nil); n != 0 || err != nil {
		t.Fatalf("TrySubmitBatch(nil) = (%d, %v), want (0, nil)", n, err)
	}
	if _, err := e.TrySubmitBatch([]Task{func() {}, nil}); err == nil {
		t.Fatal("TrySubmitBatch accepted a nil task")
	}
	e.Shutdown(true)
	if ran.Load() != int64(len(batch)) {
		t.Fatalf("ran %d of %d accepted tasks", ran.Load(), len(batch))
	}
	if _, err := e.TrySubmitBatch(batch); err != ErrShutdown {
		t.Fatalf("TrySubmitBatch after shutdown = %v, want ErrShutdown", err)
	}
}
