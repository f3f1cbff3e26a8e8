// Package stats provides cheap single-writer operation counters for the
// pool implementations and the benchmark harness.
//
// The paper's Figure 1.5(b) reports "CAS operations per task retrieval";
// reproducing it requires counting synchronization operations without
// perturbing the very fast paths being measured. Every producer and consumer
// handle therefore owns its own Ops block, updated only by the goroutine
// that owns the handle. Increments are implemented as an atomic load
// followed by an atomic store — not an atomic read-modify-write — which is
// race-detector-clean and keeps the SALSA fast path free of RMW
// instructions even while instrumented. Aggregation sums the per-handle
// blocks.
package stats

import (
	"salsa/internal/atomicx"
)

// Counter is a single-writer event counter. Inc, Add, Store and direct V
// writes must only come from the owning goroutine; Load (or V.Load) may be
// called from anywhere.
//
// The counter word is padded to a cache line so that counters owned by
// different goroutines never false-share: a hot writer invalidating its
// line must not stall an unrelated writer (or a metrics reader) that
// happens to sit on the same 64 bytes. The cost is memory only — an Ops
// block grows to a few KB per handle, and handles are per-thread.
type Counter struct {
	// V is the counter word, deliberately exported: the pool's hot paths
	// are generic, and the compiler does not inline cross-package calls
	// into imported generic instantiations, so even a trivial c.Inc()
	// there costs a real CALL (measured ~2 ns each, several per
	// operation). Hot sites instead spell the single-writer increment
	// directly — c.V.Store(c.V.Load() + 1) — which compiles to the
	// sync/atomic intrinsics (or plain ops under salsa_relaxed; the word
	// is an atomicx.RlxI64 because a single-writer counter needs
	// single-copy atomicity but no ordering, DESIGN.md §12). Everyone
	// else should use the methods.
	V atomicx.RlxI64
	_ [56]byte
}

// Inc adds one to the counter.
//
// Visibility guarantee, precisely: the counter is single-writer. Inc is an
// atomic load followed by an atomic store of the same word — deliberately
// not an atomic read-modify-write — which is only sound because no other
// goroutine ever writes the counter. Concurrent readers calling Load may lag
// (an increment published on one core takes time to become visible on
// another, so a reader can observe any earlier value) but can never observe
// a torn or out-of-thin-air value, and the sequence of values a single
// reader observes is monotonically non-decreasing. This keeps the SALSA
// fast path free of RMW instructions even while instrumented, and is
// race-detector-clean.
func (c *Counter) Inc() { c.V.Store(c.V.Load() + 1) }

// Add adds n to the counter. Single-writer; same visibility guarantee as
// Inc.
func (c *Counter) Add(n int64) { c.V.Store(c.V.Load() + n) }

// Store overwrites the counter with v. Single-writer: only the owning
// goroutine may call it. Intended for resetting counters between snapshot
// windows (delta reporting); readers racing a Store observe either the old
// or the new value, never a mixture.
func (c *Counter) Store(v int64) { c.V.Store(v) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.V.Load() }

// Ops is the per-handle operation census. Fields count events in the pool
// code paths exercised by that handle.
type Ops struct {
	// Puts and Gets count completed operations; GetsEmpty counts Get
	// calls that returned ⊥ after a successful checkEmpty.
	Puts      Counter
	Gets      Counter
	GetsEmpty Counter

	// CAS counts every compare-and-swap attempt issued by this handle in
	// produce/consume/steal paths (successful or failed). FailedCAS
	// counts the failed subset, the paper's contention signal.
	CAS       Counter
	FailedCAS Counter

	// FastPath counts task retrievals completed on the CAS-free owner
	// fast path (SALSA lines 90–94); SlowPath counts retrievals that
	// needed the stolen-chunk CAS path.
	FastPath Counter
	SlowPath Counter

	// Steals counts successful chunk (or task, for single-task
	// algorithms) steals; StealAttempts counts steal() invocations.
	// ReclaimedChunks counts the membership-driven subset of Steals:
	// chunks this handle stole out of an abandoned pool (owner retired
	// or crashed), reclaiming its orphaned tasks for the survivors.
	Steals          Counter
	StealAttempts   Counter
	ReclaimedChunks Counter

	// RescueSteals counts the steals that went through the departed-owner
	// rescue path (DESIGN.md §9): the ownership CAS was won against a
	// dead consumer's id via a fresh-read expected word. RescueRescans
	// counts the post-CAS announce re-scans that actually advanced the
	// republished index past the stale node's — each one is an in-flight
	// announce of the dead owner honored instead of re-exposed.
	RescueSteals  Counter
	RescueRescans Counter

	// ChunkAllocs counts fresh chunk allocations; ChunkReuses counts
	// chunks recycled through a chunk pool. ProduceFull counts produce()
	// failures due to an exhausted chunk pool (the producer-based
	// balancing trigger). ForcePuts counts produceForce *calls*;
	// ForceExpands counts the subset where force actually mattered — a
	// fresh chunk had to be allocated because the pool had no spare. A
	// forced call that lands in the producer's current chunk or grabs a
	// spare off the chunk pool expands nothing and must not read as
	// balancing pressure.
	ChunkAllocs  Counter
	ChunkReuses  Counter
	ProduceFull  Counter
	ForcePuts    Counter
	ForceExpands Counter

	// Parks counts the times a blocking retrieval (GetWait/GetContext and
	// the executor's worker loop) escalated past spinning and yielding
	// into a timed sleep — the bounded-backoff pressure signal. A high
	// park rate means consumers are outrunning producers. Plain Get and
	// GetBatch never park: their retries cap at the yield phase.
	Parks Counter

	// SaturatedPuts counts TryPut/TryPutBatch calls (or batch suffixes)
	// rejected with ErrSaturated because every pool on the access list
	// refused the insert — the typed backpressure signal, as opposed to
	// ForcePuts' silent expansion.
	SaturatedPuts Counter

	// PutBatches and GetBatches count batch API calls with a non-empty
	// argument — PutBatch and TryPutBatch, GetBatch and TryGetBatch —
	// whether or not the call moved a task.
	// BatchFastPath counts tasks retrieved inside a batched CAS-free
	// owner run — the amortized subset of FastPath.
	PutBatches    Counter
	GetBatches    Counter
	BatchFastPath Counter

	// RemoteTransfers counts task transfers whose chunk home node
	// differs from the accessing thread's node (NUMA traffic proxy);
	// LocalTransfers counts same-node transfers.
	RemoteTransfers Counter
	LocalTransfers  Counter

	// PutLatency, GetLatency and StealLatency are single-writer latency
	// histograms for this handle's operations. They are populated only
	// when the framework's latency sampling is enabled (telemetry); the
	// fast paths otherwise never touch them, so the zero-valued
	// histograms cost only their memory.
	PutLatency   Histogram
	GetLatency   Histogram
	StealLatency Histogram

	// PutBatchSize and GetBatchSize record the task-count distribution
	// of batch operations (the histogram's value unit is tasks, not
	// nanoseconds; power-of-two buckets). Always populated by the batch
	// API — the per-call cost is one histogram observe, already amortized
	// over the batch.
	PutBatchSize Histogram
	GetBatchSize Histogram

	// pad keeps separately owned Ops blocks on distinct cache lines when
	// they are allocated contiguously by the harness.
	_ [64]byte
}

// Snapshot is a plain-value copy of an Ops census, safe to pass around.
type Snapshot struct {
	Puts, Gets, GetsEmpty                 int64
	CAS, FailedCAS                        int64
	FastPath, SlowPath                    int64
	Steals, StealAttempts                 int64
	ReclaimedChunks                       int64
	RescueSteals, RescueRescans           int64
	ChunkAllocs, ChunkReuses              int64
	ProduceFull, ForcePuts, ForceExpands  int64
	RemoteTransfers, LocalTransfers       int64
	Parks, SaturatedPuts                  int64
	PutBatches, GetBatches, BatchFastPath int64

	// Latency histograms, populated only when latency sampling is on.
	// Percentile accessors: PutLatency.P50(), GetLatency.P99(), … — see
	// HistogramSnapshot.
	PutLatency, GetLatency, StealLatency HistogramSnapshot

	// Batch-size distributions (value unit: tasks per call).
	PutBatchSize, GetBatchSize HistogramSnapshot
}

// Snapshot returns a point-in-time copy of the counters.
func (o *Ops) Snapshot() Snapshot {
	return Snapshot{
		Puts: o.Puts.Load(), Gets: o.Gets.Load(), GetsEmpty: o.GetsEmpty.Load(),
		CAS: o.CAS.Load(), FailedCAS: o.FailedCAS.Load(),
		FastPath: o.FastPath.Load(), SlowPath: o.SlowPath.Load(),
		Steals: o.Steals.Load(), StealAttempts: o.StealAttempts.Load(),
		ReclaimedChunks: o.ReclaimedChunks.Load(),
		RescueSteals:    o.RescueSteals.Load(), RescueRescans: o.RescueRescans.Load(),
		ChunkAllocs: o.ChunkAllocs.Load(), ChunkReuses: o.ChunkReuses.Load(),
		ProduceFull: o.ProduceFull.Load(), ForcePuts: o.ForcePuts.Load(),
		ForceExpands:    o.ForceExpands.Load(),
		RemoteTransfers: o.RemoteTransfers.Load(), LocalTransfers: o.LocalTransfers.Load(),
		Parks: o.Parks.Load(), SaturatedPuts: o.SaturatedPuts.Load(),
		PutBatches: o.PutBatches.Load(), GetBatches: o.GetBatches.Load(),
		BatchFastPath: o.BatchFastPath.Load(),
		PutLatency:    o.PutLatency.Snapshot(),
		GetLatency:    o.GetLatency.Snapshot(),
		StealLatency:  o.StealLatency.Snapshot(),
		PutBatchSize:  o.PutBatchSize.Snapshot(),
		GetBatchSize:  o.GetBatchSize.Snapshot(),
	}
}

// Add accumulates s2 into s.
func (s *Snapshot) Add(s2 Snapshot) {
	s.Puts += s2.Puts
	s.Gets += s2.Gets
	s.GetsEmpty += s2.GetsEmpty
	s.CAS += s2.CAS
	s.FailedCAS += s2.FailedCAS
	s.FastPath += s2.FastPath
	s.SlowPath += s2.SlowPath
	s.Steals += s2.Steals
	s.StealAttempts += s2.StealAttempts
	s.ReclaimedChunks += s2.ReclaimedChunks
	s.RescueSteals += s2.RescueSteals
	s.RescueRescans += s2.RescueRescans
	s.ChunkAllocs += s2.ChunkAllocs
	s.ChunkReuses += s2.ChunkReuses
	s.ProduceFull += s2.ProduceFull
	s.ForcePuts += s2.ForcePuts
	s.ForceExpands += s2.ForceExpands
	s.RemoteTransfers += s2.RemoteTransfers
	s.LocalTransfers += s2.LocalTransfers
	s.Parks += s2.Parks
	s.SaturatedPuts += s2.SaturatedPuts
	s.PutBatches += s2.PutBatches
	s.GetBatches += s2.GetBatches
	s.BatchFastPath += s2.BatchFastPath
	s.PutLatency.Add(s2.PutLatency)
	s.GetLatency.Add(s2.GetLatency)
	s.StealLatency.Add(s2.StealLatency)
	s.PutBatchSize.Add(s2.PutBatchSize)
	s.GetBatchSize.Add(s2.GetBatchSize)
}

// Sum aggregates a set of snapshots.
func Sum(snaps ...Snapshot) Snapshot {
	var total Snapshot
	for _, s := range snaps {
		total.Add(s)
	}
	return total
}

// CASPerGet returns the average number of CAS attempts per retrieved task,
// the y-axis of the paper's Figure 1.5(b). Returns 0 when no task was
// retrieved.
func (s Snapshot) CASPerGet() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.CAS) / float64(s.Gets)
}

// AvgPutBatch returns the mean tasks offered per PutBatch/TryPutBatch call
// (0 when the batch API was not used).
func (s Snapshot) AvgPutBatch() float64 {
	if s.PutBatchSize.Count == 0 {
		return 0
	}
	return float64(s.PutBatchSize.SumNs) / float64(s.PutBatchSize.Count)
}

// AvgGetBatch returns the mean tasks-per-call of GetBatch (0 when the batch
// API was not used).
func (s Snapshot) AvgGetBatch() float64 {
	if s.GetBatchSize.Count == 0 {
		return 0
	}
	return float64(s.GetBatchSize.SumNs) / float64(s.GetBatchSize.Count)
}

// FastPathRatio returns the fraction of retrievals completed on the CAS-free
// fast path.
func (s Snapshot) FastPathRatio() float64 {
	total := s.FastPath + s.SlowPath
	if total == 0 {
		return 0
	}
	return float64(s.FastPath) / float64(total)
}
