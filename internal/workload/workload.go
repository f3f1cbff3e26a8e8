// Package workload implements the synthetic benchmark of the paper's
// evaluation (§1.6.2): producers loop inserting dummy items, consumers loop
// retrieving them, for a fixed duration, and the system's throughput is
// reported in thousands of tasks per millisecond together with the
// synchronization census (CAS per retrieval, steal rates, fast-path ratio,
// local/remote transfer split).
//
// Every figure of the evaluation is a parameter sweep over this harness;
// cmd/salsa-bench and the root bench_test.go drive it.
package workload

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"salsa"
	"salsa/internal/backoff"
	"salsa/internal/numasim"
	"salsa/internal/topology"
)

// Task is the dummy work item circulated by the benchmark.
type Task struct {
	Producer int
	Seq      int
	Payload  uint64
}

// slabSize is how many Tasks the producer loops allocate per allocator
// call. Tasks stay unique live pointers (the pool's contract); batching
// the allocation keeps the harness's allocator cost identical across API
// batch sizes, so the batch sweep measures synchronization, not malloc.
const slabSize = 64

// Config parameterises one benchmark run.
type Config struct {
	// Algorithm, thread counts and pool knobs, forwarded to salsa.New.
	Algorithm        salsa.Algorithm
	Producers        int
	Consumers        int
	ChunkSize        int
	NUMANodes        int
	CoresPerNode     int
	Placement        salsa.Placement
	Allocation       salsa.AllocationPolicy
	DisableBalancing bool
	StealOrder       salsa.StealOrder

	// Duration of the timed window. The paper ran 20 s per point; the
	// harness defaults to 300 ms, which is enough for the relative
	// shapes on a container.
	Duration time.Duration

	// Batch is the number of tasks moved per API call: producers insert
	// with PutBatch(batch tasks) and consumers drain with batch-sized
	// TryGetBatch/GetBatch calls. 0 or 1 selects the single-task API —
	// the pre-batching behaviour, measured identically.
	Batch int

	// Simulate attaches the NUMA interconnect simulator: every task
	// transfer is charged on the modelled machine (Figure 1.7 mode).
	Simulate bool
	// SimParams overrides the simulator constants (zero = defaults).
	SimParams numasim.Params

	// Pin binds worker goroutines to their placement cores when the OS
	// allows it.
	Pin bool

	// StalledConsumers lists consumer ids that never run — the paper's
	// robustness scenario of unexpected thread stalls.
	StalledConsumers []int

	// Metrics enables the pool's telemetry collector and latency
	// sampling (salsa.Config.Metrics): latency percentiles then appear
	// in the Result and figure CSVs, at the cost of two clock reads per
	// operation in the measured loop.
	Metrics bool
	// Tracer forwards raw telemetry events (salsa.Config.Tracer).
	Tracer salsa.Tracer
	// Observe, when set, is handed the live pool right before the
	// workers start — the hook salsa-bench/salsa-stress use to point a
	// metrics endpoint at whichever pool is currently running.
	Observe func(pool *salsa.Pool[Task])
}

func (c Config) withDefaults() Config {
	if c.Duration == 0 {
		c.Duration = 300 * time.Millisecond
	}
	if c.NUMANodes == 0 && c.CoresPerNode == 0 {
		// The paper's machine: 8 nodes × 4 cores.
		c.NUMANodes, c.CoresPerNode = 8, 4
	}
	return c
}

// Result reports a run's outcome.
type Result struct {
	Config   Config
	Elapsed  time.Duration
	Produced int64
	Consumed int64
	Stats    salsa.Stats
	SimStats numasim.Stats // zero unless Config.Simulate
}

// ThroughputKTasksPerMs returns consumed tasks per millisecond, in
// thousands — the y-axis unit of the paper's throughput figures
// ("1000 tasks/msec").
func (r Result) ThroughputKTasksPerMs() float64 {
	ms := float64(r.Elapsed) / float64(time.Millisecond)
	if ms == 0 {
		return 0
	}
	return float64(r.Consumed) / ms / 1000
}

// CASPerGet returns the average CAS attempts per retrieved task — the
// y-axis of Figure 1.5(b).
func (r Result) CASPerGet() float64 {
	if r.Consumed == 0 {
		return 0
	}
	return float64(r.Stats.CAS) / float64(r.Consumed)
}

// Run executes the timed produce/consume loop and returns the measurements.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()

	var machine *numasim.Machine
	poolCfg := salsa.Config{
		Algorithm:        cfg.Algorithm,
		Producers:        cfg.Producers,
		Consumers:        cfg.Consumers,
		ChunkSize:        cfg.ChunkSize,
		NUMANodes:        cfg.NUMANodes,
		CoresPerNode:     cfg.CoresPerNode,
		Placement:        cfg.Placement,
		Allocation:       cfg.Allocation,
		DisableBalancing: cfg.DisableBalancing,
		StealOrder:       cfg.StealOrder,
		// The paper's measured configuration omits the linearizable
		// emptiness protocol (§1.6.2); the pool is never empty for
		// long in these workloads anyway.
		NonLinearizableEmpty: true,
		Metrics:              cfg.Metrics,
		Tracer:               cfg.Tracer,
	}
	if cfg.Simulate {
		topo := topology.Synthetic(cfg.NUMANodes, cfg.CoresPerNode)
		machine = numasim.New(
			numasim.Adapter{Nodes: topo.NumNodes(), Distance: topo.Distance},
			cfg.SimParams,
		)
		// Charge one cache line per task transfer.
		poolCfg.OnAccess = func(from, home int) { machine.Access(from, home, 64) }
	}
	pool, err := salsa.New[Task](poolCfg)
	if err != nil {
		return Result{}, fmt.Errorf("workload: %w", err)
	}
	if cfg.Observe != nil {
		cfg.Observe(pool)
	}

	stalled := make(map[int]bool, len(cfg.StalledConsumers))
	for _, id := range cfg.StalledConsumers {
		if id < 0 || id >= cfg.Consumers {
			return Result{}, fmt.Errorf("workload: stalled consumer %d out of range", id)
		}
		stalled[id] = true
	}
	if len(stalled) == cfg.Consumers {
		return Result{}, fmt.Errorf("workload: all consumers stalled")
	}

	var (
		stop     atomic.Bool
		produced atomic.Int64
		consumed atomic.Int64
		wg       sync.WaitGroup
	)

	for pi := 0; pi < cfg.Producers; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			p := pool.Producer(pi)
			if cfg.Pin {
				p.Pin()
				defer p.Unpin()
			}
			n := 0
			// Tasks must be unique live pointers; they are carved out of
			// slabs of slabSize so the allocator cost per task is the
			// same in every mode and the sweep isolates the API cost.
			if b := cfg.Batch; b > 1 {
				buf := make([]*Task, b)
				var slab []Task
				for !stop.Load() {
					for i := range buf {
						if len(slab) == 0 {
							slab = make([]Task, slabSize)
						}
						t := &slab[0]
						slab = slab[1:]
						t.Producer, t.Seq = pi, n+i
						buf[i] = t
					}
					p.PutBatch(buf)
					n += b
					// Same yield cadence as the single-task loop:
					// roughly every 64 tasks.
					if n%64 < b {
						runtime.Gosched()
					}
				}
				produced.Add(int64(n))
				return
			}
			var slab []Task
			for !stop.Load() {
				if len(slab) == 0 {
					slab = make([]Task, slabSize)
				}
				t := &slab[0]
				slab = slab[1:]
				t.Producer, t.Seq = pi, n
				p.Put(t)
				n++
				// On hosts with fewer cores than threads the producer
				// loop (which never blocks) can starve consumers
				// between preemption points; yield periodically so
				// the measured regime matches the paper's
				// one-thread-per-core setup.
				if n%64 == 0 {
					runtime.Gosched()
				}
			}
			produced.Add(int64(n))
		}(pi)
	}
	for ci := 0; ci < cfg.Consumers; ci++ {
		if stalled[ci] {
			continue
		}
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := pool.Consumer(ci)
			if cfg.Pin {
				c.Pin()
				defer c.Unpin()
			}
			defer c.Close()
			n := 0
			// A fruitless pass means the producers are behind. On the
			// paper's machine an idle consumer spins on its own core; on
			// a host with fewer cores than threads it must back off —
			// otherwise the O(consumers×producers) steal scans of idle
			// consumers crowd out the very producers they are waiting
			// for and invert every throughput curve. The escalating
			// pause (rather than an unconditional Gosched) also bounds
			// idle CPU when the stop flag is the only thing left to
			// observe.
			var bo backoff.Backoff
			if b := cfg.Batch; b > 1 {
				buf := make([]*Task, b)
				for !stop.Load() {
					if got := c.TryGetBatch(buf); got > 0 {
						n += got
						bo.Reset()
						continue
					}
					bo.Pause()
				}
				consumed.Add(int64(n))
				return
			}
			for !stop.Load() {
				if _, ok := c.TryGet(); ok {
					n++
					bo.Reset()
					continue
				}
				bo.Pause()
			}
			consumed.Add(int64(n))
		}(ci)
	}

	start := time.Now()
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	res := Result{
		Config:   cfg,
		Elapsed:  elapsed,
		Produced: produced.Load(),
		Consumed: consumed.Load(),
		Stats:    pool.Stats(),
	}
	if machine != nil {
		res.SimStats = machine.Stats()
	}
	return res, nil
}

// RunFixed pushes exactly tasksPerProducer tasks through the pool and
// drains it completely — the deterministic-op-count mode used by the
// testing.B benchmarks (ns per task) and by correctness stress runs. It
// returns the wall time of the produce+consume phase.
func RunFixed(cfg Config, tasksPerProducer int) (Result, error) {
	cfg = cfg.withDefaults()
	poolCfg := salsa.Config{
		Algorithm:        cfg.Algorithm,
		Producers:        cfg.Producers,
		Consumers:        cfg.Consumers,
		ChunkSize:        cfg.ChunkSize,
		NUMANodes:        cfg.NUMANodes,
		CoresPerNode:     cfg.CoresPerNode,
		Placement:        cfg.Placement,
		Allocation:       cfg.Allocation,
		DisableBalancing: cfg.DisableBalancing,
		StealOrder:       cfg.StealOrder,
		Metrics:          cfg.Metrics,
		Tracer:           cfg.Tracer,
	}
	pool, err := salsa.New[Task](poolCfg)
	if err != nil {
		return Result{}, fmt.Errorf("workload: %w", err)
	}
	if cfg.Observe != nil {
		cfg.Observe(pool)
	}
	total := int64(cfg.Producers) * int64(tasksPerProducer)

	var (
		consumed atomic.Int64
		done     atomic.Bool
		wg       sync.WaitGroup
	)
	start := time.Now()
	var pwg sync.WaitGroup
	for pi := 0; pi < cfg.Producers; pi++ {
		pwg.Add(1)
		go func(pi int) {
			defer pwg.Done()
			p := pool.Producer(pi)
			// Slab-allocated tasks, as in Run: unique pointers, equal
			// allocator cost per task across API batch sizes.
			var slab []Task
			next := func(i int) *Task {
				if len(slab) == 0 {
					slab = make([]Task, slabSize)
				}
				t := &slab[0]
				slab = slab[1:]
				t.Producer, t.Seq = pi, i
				return t
			}
			if b := cfg.Batch; b > 1 {
				buf := make([]*Task, 0, b)
				for i := 0; i < tasksPerProducer; i += len(buf) {
					buf = buf[:0]
					for j := i; j < tasksPerProducer && len(buf) < b; j++ {
						buf = append(buf, next(j))
					}
					p.PutBatch(buf)
				}
				return
			}
			for i := 0; i < tasksPerProducer; i++ {
				p.Put(next(i))
			}
		}(pi)
	}
	go func() { pwg.Wait(); done.Store(true) }()

	for ci := 0; ci < cfg.Consumers; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := pool.Consumer(ci)
			defer c.Close()
			var buf []*Task
			if cfg.Batch > 1 {
				buf = make([]*Task, cfg.Batch)
			}
			var bo backoff.Backoff
			for consumed.Load() < total {
				wasDone := done.Load()
				if buf != nil {
					if n := c.GetBatch(buf); n > 0 {
						consumed.Add(int64(n))
						bo.Reset()
						continue
					}
				} else if _, ok := c.Get(); ok {
					consumed.Add(1)
					bo.Reset()
					continue
				}
				if wasDone && consumed.Load() >= total {
					return
				}
				if wasDone {
					// Empty but tasks unaccounted: another consumer
					// holds them mid-flight; re-check.
					if consumed.Load() >= total {
						return
					}
				}
				// Observed empty with production still running: back off
				// instead of re-probing at once — same rationale as the
				// timed loop above; on hosts with fewer cores than
				// threads a spinning emptiness probe starves the very
				// producers it is waiting for, and under GOMAXPROCS=1 a
				// pure yield loop can run in lockstep with another
				// yielding waiter forever.
				bo.Pause()
			}
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)

	return Result{
		Config:   cfg,
		Elapsed:  elapsed,
		Produced: total,
		Consumed: consumed.Load(),
		Stats:    pool.Stats(),
	}, nil
}
