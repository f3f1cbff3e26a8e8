package salsa_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"salsa"
)

// TestTelemetrySnapshotAggregation runs a contended pool with metrics on and
// checks that the snapshot's per-handle aggregation balances: every produced
// task is eventually retrieved, the steal matrix row sums stay within the
// census steal count, and the latency histograms hold one sample per
// successful operation.
func TestTelemetrySnapshotAggregation(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 5000
	)
	pool, err := salsa.New[int](salsa.Config{
		Producers: producers,
		Consumers: consumers,
		Metrics:   true,
	})
	if err != nil {
		t.Fatal(err)
	}

	var produced sync.WaitGroup
	for p := 0; p < producers; p++ {
		produced.Add(1)
		go func(p int) {
			defer produced.Done()
			h := pool.Producer(p)
			for i := 0; i < perProd; i++ {
				v := p*perProd + i
				h.Put(&v)
			}
		}(p)
	}
	var doneProducing atomic.Bool
	go func() { produced.Wait(); doneProducing.Store(true) }()

	var got atomic.Int64
	var consumed sync.WaitGroup
	for c := 0; c < consumers; c++ {
		consumed.Add(1)
		go func(c int) {
			defer consumed.Done()
			h := pool.Consumer(c)
			defer h.Close()
			for {
				finished := doneProducing.Load()
				if _, ok := h.Get(); ok {
					got.Add(1)
					continue
				}
				if finished {
					return
				}
			}
		}(c)
	}
	consumed.Wait()

	total := int64(producers * perProd)
	if got.Load() != total {
		t.Fatalf("consumed %d tasks, want %d", got.Load(), total)
	}

	snap := pool.TelemetrySnapshot()
	if snap.Producers != producers || snap.Consumers != consumers {
		t.Errorf("snapshot shape %d×%d, want %d×%d",
			snap.Producers, snap.Consumers, producers, consumers)
	}
	if snap.Ops.Puts != total {
		t.Errorf("Ops.Puts = %d, want %d", snap.Ops.Puts, total)
	}
	if snap.Ops.Gets != total {
		t.Errorf("Ops.Gets = %d, want %d", snap.Ops.Gets, total)
	}

	// Latency sampling is on: one histogram sample per successful op.
	if snap.Ops.PutLatency.Count != total {
		t.Errorf("PutLatency.Count = %d, want %d", snap.Ops.PutLatency.Count, total)
	}
	if snap.Ops.GetLatency.Count != total {
		t.Errorf("GetLatency.Count = %d, want %d", snap.Ops.GetLatency.Count, total)
	}
	if total > 0 && snap.Ops.GetLatency.P99() <= 0 {
		t.Error("GetLatency.P99 must be positive with samples recorded")
	}

	// The collector's steal matrix attributes a subset of the census
	// steals (it records successful chunk steals; the census counts task
	// acquisitions via stealing). Row sums must never exceed the census.
	if snap.StealMatrix == nil {
		t.Fatal("Metrics: true must attach a collector (StealMatrix nil)")
	}
	var matrixSteals int64
	for tID, row := range snap.StealMatrix {
		for _, n := range row {
			matrixSteals += n
		}
		matrixSteals += snap.UnattributedSteals[tID]
	}
	if matrixSteals > snap.Ops.Steals {
		t.Errorf("matrix steals %d exceed census steals %d", matrixSteals, snap.Ops.Steals)
	}
	if snap.CrossNodeSteals+snap.SameNodeSteals != matrixSteals {
		t.Errorf("cross %d + same %d != matrix total %d",
			snap.CrossNodeSteals, snap.SameNodeSteals, matrixSteals)
	}

	// The emptiness protocol ran at least once per consumer to conclude
	// the pool is drained before Get returned false.
	var ceRounds int64
	for _, n := range snap.CheckEmptyRounds {
		ceRounds += n
	}
	if ceRounds == 0 {
		t.Error("no checkEmpty rounds recorded despite consumers draining to empty")
	}

	// SALSA pools always expose chunk-pool occupancy gauges.
	if len(snap.ChunkSpares) != consumers {
		t.Errorf("ChunkSpares has %d entries, want %d", len(snap.ChunkSpares), consumers)
	}
}

// TestTelemetrySnapshotWithoutMetrics checks the zero-cost default: no
// collector, no latency samples, but the operation census still aggregates.
func TestTelemetrySnapshotWithoutMetrics(t *testing.T) {
	pool, err := salsa.New[int](salsa.Config{Producers: 1, Consumers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, c := pool.Producer(0), pool.Consumer(0)
	v := 7
	p.Put(&v)
	if _, ok := c.Get(); !ok {
		t.Fatal("Get failed after Put")
	}
	snap := pool.TelemetrySnapshot()
	if snap.Ops.Puts != 1 || snap.Ops.Gets != 1 {
		t.Errorf("census Puts/Gets = %d/%d, want 1/1", snap.Ops.Puts, snap.Ops.Gets)
	}
	if snap.StealMatrix != nil {
		t.Error("StealMatrix must be nil with Metrics off")
	}
	if snap.Ops.GetLatency.Count != 0 {
		t.Error("latency histograms must stay empty with Metrics off")
	}
}

// countingTracer checks user-supplied tracers compose with the collector.
type countingTracer struct {
	steals, transfers, ceRounds, fails, forces atomic.Int64
}

func (ct *countingTracer) OnSteal(salsa.StealEvent)                     { ct.steals.Add(1) }
func (ct *countingTracer) OnChunkTransfer(salsa.ChunkTransferEvent)     { ct.transfers.Add(1) }
func (ct *countingTracer) OnCheckEmptyRound(salsa.CheckEmptyRoundEvent) { ct.ceRounds.Add(1) }
func (ct *countingTracer) OnProduceFail(salsa.ProduceEvent)             { ct.fails.Add(1) }
func (ct *countingTracer) OnForcePut(salsa.ProduceEvent)                { ct.forces.Add(1) }

func TestCustomTracerComposesWithCollector(t *testing.T) {
	ct := &countingTracer{}
	pool, err := salsa.New[int](salsa.Config{
		Producers: 1,
		Consumers: 2,
		Metrics:   true,
		Tracer:    ct,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := pool.Producer(0)
	for i := 0; i < 1000; i++ {
		v := i
		p.Put(&v)
	}
	// The consumer farthest from the producer retrieves everything: the
	// tasks sit in the nearest consumer's pool (which one that is depends
	// on the host's topology), so the far one must steal at least once.
	access := pool.ProducerAccessList(0)
	h := pool.Consumer(access[len(access)-1])
	defer h.Close()
	n := 0
	for {
		if _, ok := h.Get(); ok {
			n++
			continue
		}
		break
	}
	if n != 1000 {
		t.Fatalf("consumer %d retrieved %d tasks, want 1000", h.ID(), n)
	}
	if ct.steals.Load() == 0 {
		t.Error("custom tracer saw no steal events despite cross-consumer drain")
	}
	if ct.ceRounds.Load() == 0 {
		t.Error("custom tracer saw no checkEmpty rounds despite draining to empty")
	}
	snap := pool.TelemetrySnapshot()
	var matrix int64
	for _, row := range snap.StealMatrix {
		for _, v := range row {
			matrix += v
		}
	}
	if matrix != ct.steals.Load() {
		t.Errorf("collector matrix total %d != custom tracer count %d",
			matrix, ct.steals.Load())
	}
}

// benchPutGet is the alloc-check harness for the telemetry acceptance
// criterion: enabling hooks must not add allocations to the Put/Get fast
// paths, and with metrics off the paths must remain allocation-free apart
// from the pool's own chunk amortization.
func benchPutGet(b *testing.B, cfg salsa.Config) {
	cfg.Producers, cfg.Consumers = 1, 1
	pool, err := salsa.New[int](cfg)
	if err != nil {
		b.Fatal(err)
	}
	p, c := pool.Producer(0), pool.Consumer(0)
	v := 42
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Put(&v)
		if _, ok := c.Get(); !ok {
			b.Fatal("empty after put")
		}
	}
}

func BenchmarkPutGet(b *testing.B) {
	benchPutGet(b, salsa.Config{})
}

func BenchmarkPutGetMetrics(b *testing.B) {
	benchPutGet(b, salsa.Config{Metrics: true})
}
