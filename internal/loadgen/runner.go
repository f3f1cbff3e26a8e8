package loadgen

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"salsa"
	"salsa/executor"
	"salsa/internal/backoff"
	"salsa/internal/chaos"
	"salsa/internal/stats"
)

// loadTask is the pool element: the arrival's ledger identity, its enqueue
// stamp (nanoseconds since run start) for the delivery-latency histogram,
// and its simulated size.
type loadTask struct {
	index int32
	size  int32
	at    int64
}

// lockedHist wraps the single-writer stats.Histogram for the runner's
// control-plane rates (tens of thousands of samples per run): delivery
// observers on many goroutines share it under a mutex rather than
// replicating the pool's per-owner histogram discipline.
type lockedHist struct {
	mu sync.Mutex
	h  stats.Histogram
}

func (l *lockedHist) observe(ns int64) {
	l.mu.Lock()
	l.h.Observe(ns)
	l.mu.Unlock()
}

func (l *lockedHist) snapshot() stats.HistogramSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.h.Snapshot()
}

// spinSink defeats dead-code elimination of the simulated work.
var spinSink atomic.Int64

func spin(n int32) {
	s := 0
	for i := int32(0); i < n; i++ {
		s += int(i)
	}
	spinSink.Store(int64(s))
}

// Options tunes a Run.
type Options struct {
	// FlightDump, when non-empty, arms the flight recorder for the run; a
	// failed verdict then names the dump it wrote to this path and carries
	// a timeline excerpt.
	FlightDump string
	// DrainTimeout bounds the post-horizon drain; defaults to 10s. A
	// run that cannot account for every task within it fails with a
	// drain-timeout verdict (the ledger then names the loss).
	DrainTimeout time.Duration
}

// Result is one scenario run's accounting and latency report.
type Result struct {
	Scenario string
	Seed     uint64

	// Offered is the schedule size; every offered task must end the run
	// either Delivered or Shed, exactly once (the ledger verdict).
	Offered   int
	Delivered int64
	Shed      int64
	// Late counts dispatches that ran more than 1ms behind schedule —
	// the open-loop generator's own health signal.
	Late int64

	// Admits / ShedBy / QueueAdmits are the admission layer's census
	// (ShedBy keyed "class/reason").
	Admits      map[string]int64
	ShedBy      map[string]int64
	QueueAdmits int64

	// Delivery latency (enqueue→dequeue) quantiles.
	Latency stats.HistogramSnapshot

	Elapsed time.Duration
	// Verdict is nil iff the exactly-once accounting held (and the run
	// drained in time).
	Verdict error

	// Telemetry is the end-of-run snapshot (pool + admission families,
	// plus the salsa_loadgen_* fields), ready for WritePrometheus.
	Telemetry salsa.TelemetrySnapshot
}

// Summary renders the accounting + latency fields the soak matrix prints on
// each scenario's verdict line.
func (r *Result) Summary() string {
	return fmt.Sprintf("seed=%d offered=%d delivered=%d shed=%d late=%d p50=%v p99=%v p999=%v elapsed=%v",
		r.Seed, r.Offered, r.Delivered, r.Shed, r.Late,
		r.Latency.P50(), r.Latency.P99(), r.Latency.P999(), r.Elapsed.Round(time.Millisecond))
}

// ReplayInvocation is the one-liner a FAIL prints: re-running it rebuilds
// the identical arrival schedule (the determinism contract).
func (r *Result) ReplayInvocation() string {
	return fmt.Sprintf("go run ./cmd/salsa-loadgen -scenario %s -seed %d", r.Scenario, r.Seed)
}

// dispatcher paces one producer's schedule slice open-loop: sleep toward
// each arrival's offset (sub-millisecond gaps busy-yield, matching the
// open-loop rule that a slow system must not slow the offered load), and
// count dispatches that slipped more than 1ms.
type dispatcher struct {
	start time.Time
	late  *atomic.Int64
}

func (d *dispatcher) waitUntil(at time.Duration) {
	for {
		el := time.Since(d.start)
		if el >= at {
			if el-at > time.Millisecond {
				d.late.Add(1)
			}
			return
		}
		if gap := at - el; gap > 2*time.Millisecond {
			time.Sleep(gap - time.Millisecond)
		} else {
			runtime.Gosched()
		}
	}
}

// Run replays the scenario's seeded schedule against the real pool (or
// executor) through the admission layer and returns the accounting
// verdict: offered = delivered + shed with zero duplicates, plus the
// delivery-latency quantiles and the admission census.
func Run(sc Scenario, seed uint64, opts Options) *Result {
	if opts.DrainTimeout == 0 {
		opts.DrainTimeout = 10 * time.Second
	}
	sched := BuildSchedule(sc, seed)
	res := &Result{
		Scenario: sc.Name,
		Seed:     seed,
		Offered:  len(sched.Arrivals),
	}
	fl := chaos.ArmFlight(opts.FlightDump, "loadgen", sc.Consumers, sc.Producers)
	defer fl.Disarm()

	ledger := chaos.NewLedger(1, max(len(sched.Arrivals), 1))
	var delivered, shed, late atomic.Int64
	hist := &lockedHist{}
	begin := time.Now()

	var snap salsa.TelemetrySnapshot
	var counters salsa.AdmissionCounters
	var verdict error
	if sc.UseExecutor {
		snap, counters, verdict = runExecutor(sc, sched, ledger, hist, &delivered, &shed, &late, begin, opts)
	} else {
		snap, counters, verdict = runPool(sc, sched, ledger, hist, &delivered, &shed, &late, begin, opts)
	}

	res.Elapsed = time.Since(begin)
	res.Delivered = delivered.Load()
	res.Shed = shed.Load()
	res.Late = late.Load()
	res.Latency = hist.snapshot()
	res.Admits = counters.Admits
	res.QueueAdmits = counters.QueueAdmits
	res.ShedBy = map[string]int64{}
	for class, reasons := range counters.Sheds {
		for reason, n := range reasons {
			res.ShedBy[class+"/"+reason] = n
		}
	}

	if verdict == nil && len(sched.Arrivals) > 0 {
		if err := ledger.Verify(sc.LossBudget); err != nil {
			verdict = fmt.Errorf("accounting: %w", err)
		}
	}
	res.Verdict = fl.Fail(verdict)

	// salsa_loadgen_* families: offered per class, and the generator's
	// lateness signal.
	snap.LoadgenOffered = map[string]int64{}
	for i := range sched.Arrivals {
		snap.LoadgenOffered[sched.Arrivals[i].Class.String()]++
	}
	snap.LoadgenLateArrivals = res.Late
	res.Telemetry = snap
	return res
}

// runPool drives raw pool producers/consumers through AdmittedProducer
// handles: one goroutine per producer replaying its schedule slice, one
// per consumer draining with a YieldOnly backoff (the plain-Get
// never-parks contract extends to the harness's own retry loop).
func runPool(sc Scenario, sched *Schedule, ledger *chaos.Ledger, hist *lockedHist,
	delivered, shed, late *atomic.Int64, begin time.Time, opts Options,
) (salsa.TelemetrySnapshot, salsa.AdmissionCounters, error) {
	pool, err := salsa.New[loadTask](salsa.Config{
		Producers:     sc.Producers,
		Consumers:     sc.Consumers,
		ChunkSize:     sc.ChunkSize,
		InitialChunks: sc.InitialChunks,
	})
	if err != nil {
		return salsa.TelemetrySnapshot{}, salsa.AdmissionCounters{}, err
	}
	adm, err := salsa.NewAdmission(pool, sc.Admission)
	if err != nil {
		return salsa.TelemetrySnapshot{}, salsa.AdmissionCounters{}, err
	}

	// Producer-major replay slices.
	perProd := make([][]*Arrival, sc.Producers)
	for i := range sched.Arrivals {
		a := &sched.Arrivals[i]
		perProd[a.Producer] = append(perProd[a.Producer], a)
	}

	var producersDone atomic.Bool
	var wg sync.WaitGroup
	for p := 0; p < sc.Producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			high := adm.Producer(p, salsa.ClassHigh)
			low := adm.Producer(p, salsa.ClassLow)
			mine := perProd[p]
			tasks := make([]loadTask, len(mine)) // slab: stable pointers
			d := dispatcher{start: begin, late: late}
			for i, a := range mine {
				d.waitUntil(a.At)
				t := &tasks[i]
				t.index = int32(a.Index)
				t.size = int32(a.Size)
				t.at = time.Since(begin).Nanoseconds()
				h := low
				if a.Class == salsa.ClassHigh {
					h = high
				}
				if err := h.Put(t); err != nil {
					// Measured shed: the task's exactly-once account.
					shed.Add(1)
					_ = ledger.Record(0, a.Index)
				}
			}
		}(p)
	}

	var cwg sync.WaitGroup
	deadline := begin.Add(sc.Horizon + opts.DrainTimeout)
	for c := 0; c < sc.Consumers; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			h := pool.Consumer(c)
			bo := backoff.Backoff{YieldOnly: true}
			for n := 0; ; {
				if t, ok := h.Get(); ok {
					spin(t.size)
					hist.observe(time.Since(begin).Nanoseconds() - t.at)
					delivered.Add(1)
					_ = ledger.Record(0, int(t.index))
					bo.Reset()
					if n++; n%64 == 0 {
						runtime.Gosched()
					}
					continue
				}
				if producersDone.Load() && ledger.Drained() {
					return
				}
				if time.Now().After(deadline) {
					return
				}
				bo.Pause()
			}
		}(c)
	}

	wg.Wait()
	producersDone.Store(true)
	cwg.Wait()

	var verdict error
	if !ledger.Drained() && time.Now().After(deadline) {
		verdict = fmt.Errorf("drain timeout after %v", opts.DrainTimeout)
	}
	return adm.TelemetrySnapshot(), adm.Counters(), verdict
}

// runExecutor drives the executor path: TrySubmitClass through the
// executor's own admission layer, delivery observed inside the task
// closures on worker goroutines.
func runExecutor(sc Scenario, sched *Schedule, ledger *chaos.Ledger, hist *lockedHist,
	delivered, shed, late *atomic.Int64, begin time.Time, opts Options,
) (salsa.TelemetrySnapshot, salsa.AdmissionCounters, error) {
	admCfg := sc.Admission
	ex, err := executor.New(executor.Config{
		Workers:     sc.Consumers,
		SubmitLanes: sc.Producers,
		ChunkSize:   sc.ChunkSize,
		Admission:   &admCfg,
	})
	if err != nil {
		return salsa.TelemetrySnapshot{}, salsa.AdmissionCounters{}, err
	}

	perProd := make([][]*Arrival, sc.Producers)
	for i := range sched.Arrivals {
		a := &sched.Arrivals[i]
		perProd[a.Producer] = append(perProd[a.Producer], a)
	}

	var wg sync.WaitGroup
	for p := 0; p < sc.Producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			d := dispatcher{start: begin, late: late}
			for _, a := range perProd[p] {
				d.waitUntil(a.At)
				index, size := a.Index, int32(a.Size)
				at := time.Since(begin).Nanoseconds()
				task := func() {
					spin(size)
					hist.observe(time.Since(begin).Nanoseconds() - at)
					delivered.Add(1)
					_ = ledger.Record(0, index)
				}
				if err := ex.TrySubmitClass(task, a.Class); err != nil {
					shed.Add(1)
					_ = ledger.Record(0, a.Index)
				}
			}
		}(p)
	}
	wg.Wait()

	deadline := begin.Add(sc.Horizon + opts.DrainTimeout)
	var bo backoff.Backoff
	bo.YieldOnly = true
	for !ledger.Drained() && time.Now().Before(deadline) {
		bo.Pause()
	}
	counters := ex.AdmissionCounters()
	snap := ex.TelemetrySnapshot()
	ex.Shutdown(true)

	var verdict error
	if !ledger.Drained() {
		verdict = fmt.Errorf("drain timeout after %v", opts.DrainTimeout)
	}
	return snap, counters, verdict
}
