// Package chaos is the shared fault-injection stress harness behind
// cmd/salsa-stress and cmd/salsa-chaos. One RunRound is one pool lifecycle:
// producers insert a known task set, consumers (some optionally stalled,
// some churned in and out, some killed by failpoint schedules mid-operation)
// drain it, and the round ends with exactly-once accounting — every task
// returned once, none twice, with an explicit loss budget for scripted
// crashes (a consumer killed mid-Get may take its one announced slot with
// it; nothing else may go missing).
//
// Fault scripting rides on internal/failpoint: the caller passes a seeded
// Schedule and RunRound arms it for the duration of the round, registering
// the pool's KillConsumer as the schedule's kill function so `kill` rules
// crash real consumers from inside their own synchronization windows.
// Everything about a failure is reproducible from (seed, schedule spec),
// which is exactly what a failing round reports.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"salsa"
	"salsa/internal/failpoint"
	"salsa/internal/telemetry"
)

// Task is the verifier's task payload: the (producer, seq) identity the
// round's Ledger accounts for.
type Task struct {
	Producer int32
	Seq      int32
}

// Live tracks the pool of the currently running round so a metrics endpoint
// can watch a multi-round run (each round builds a fresh pool).
type Live struct {
	p atomic.Pointer[salsa.Pool[Task]]
}

// TelemetrySnapshot implements telemetry.SnapshotSource.
func (l *Live) TelemetrySnapshot() telemetry.Snapshot {
	if p := l.p.Load(); p != nil {
		return p.TelemetrySnapshot()
	}
	return telemetry.Snapshot{Algorithm: "idle"}
}

// Options configures one verification round.
type Options struct {
	Algorithm        salsa.Algorithm
	Producers        int
	Consumers        int
	TasksPerProducer int
	ChunkSize        int
	// Batch > 1 drives the batched API (PutBatch/GetBatch) instead of
	// single-task Put/Get.
	Batch int
	// Churn retires and re-adds a random running consumer every Churn
	// retrieved tasks (0 = off).
	Churn int
	// Seed drives the churn victim choice (the stall set is the caller's,
	// via Stalled).
	Seed int64
	// Stalled consumers never run — the paper's robustness scenario; their
	// pools fill and survivors must steal everything back.
	Stalled map[int]bool
	// Schedule, when non-nil, is armed for the round: its rules fire
	// inside the pool's synchronization windows, and kill rules crash real
	// consumers through the pool's KillConsumer.
	Schedule *failpoint.Schedule

	// Metrics/Tracer/Live forward the observability hookups.
	Metrics bool
	Tracer  salsa.Tracer
	Live    *Live

	// FlightDump, when non-empty, arms the flight recorder for the round
	// and writes a binary dump to this path whenever the round fails, so
	// the verdict ships with the black box that explains it. FlightAlways
	// additionally writes the dump when the round passes (smoke tests and
	// corpus capture). No-ops under the salsa_noflight build tag.
	FlightDump   string
	FlightAlways bool
}

// Result summarizes a passed round.
type Result struct {
	// Steals is the pool's successful-steal count; ChurnCycles counts
	// retire+re-add cycles; Kills counts consumers crashed by the
	// schedule; Lost is how many tasks went missing (always within the
	// kill budget, or the round would have failed).
	Steals      int64
	ChurnCycles int64
	Kills       int64
	Lost        int64
}

// killBudget bounds how many consumers a schedule may crash in one round:
// every kill consumes a never-reused consumer id, so the pool must be sized
// for the worst case up front.
func killBudget(s *failpoint.Schedule) int {
	if s == nil {
		return 0
	}
	budget := 0
	for _, r := range s.Rules() {
		if failpoint.Kind(r.Action) != failpoint.KindKill {
			continue
		}
		if r.Count > 0 {
			budget += r.Count
		} else {
			budget += 16 // unlimited rule: the harness caps it
		}
	}
	return budget
}

// RunRound executes one pool lifecycle under the configured faults and
// verifies exactly-once delivery. The returned error carries everything
// needed to reproduce: the caller already knows (seed, schedule).
func RunRound(o Options) (Result, error) {
	var res Result

	// Budget never-reused consumer ids for churn cycles and kills.
	maxConsumers := o.Consumers
	if o.Churn > 0 {
		budget := o.Producers*o.TasksPerProducer/o.Churn + 8
		if budget > 512 {
			budget = 512
		}
		maxConsumers += budget
	}
	kb := killBudget(o.Schedule)
	maxConsumers += kb + 2

	// Flight recorder: armed for the whole round, sized for every consumer
	// id the round can ever mint.
	fl := ArmFlight(o.FlightDump, "chaos", maxConsumers, o.Producers)
	defer fl.Disarm()

	pool, err := salsa.New[Task](salsa.Config{
		Algorithm:    o.Algorithm,
		Producers:    o.Producers,
		Consumers:    o.Consumers,
		MaxConsumers: maxConsumers,
		ChunkSize:    o.ChunkSize,
		Metrics:      o.Metrics,
		Tracer:       o.Tracer,
	})
	if err != nil {
		return res, err
	}
	if o.Live != nil {
		o.Live.p.Store(pool)
	}

	var kills atomic.Int64
	if o.Schedule != nil {
		defer failpoint.Reset()
		failpoint.SetKillFunc(func(id int) bool {
			// The budget keeps kills within the id headroom reserved
			// above; a declined kill refunds the rule's firing count.
			if kills.Load() >= int64(kb) {
				return false
			}
			if err := pool.KillConsumer(id); err != nil {
				return false // out of range, already departed, or last live
			}
			kills.Add(1)
			return true
		})
		o.Schedule.Arm()
	}

	all := make([][]*Task, o.Producers)
	for pi := range all {
		all[pi] = make([]*Task, o.TasksPerProducer)
		for i := range all[pi] {
			all[pi][i] = &Task{Producer: int32(pi), Seq: int32(i)}
		}
	}

	var done atomic.Bool
	var pwg sync.WaitGroup
	for pi := 0; pi < o.Producers; pi++ {
		pwg.Add(1)
		go func(pi int) {
			defer pwg.Done()
			p := pool.Producer(pi)
			if o.Batch > 1 {
				ts := all[pi]
				for len(ts) > 0 {
					n := o.Batch
					if n > len(ts) {
						n = len(ts)
					}
					p.PutBatch(ts[:n])
					ts = ts[n:]
				}
				return
			}
			for _, t := range all[pi] {
				p.Put(t)
			}
		}(pi)
	}
	go func() { pwg.Wait(); done.Store(true) }()

	ledger := NewLedger(o.Producers, o.TasksPerProducer)
	var cwg sync.WaitGroup

	// ctls tracks running consumer goroutines by id so the churner can
	// stop one before retiring it, and so killed workers can deregister.
	type workerCtl struct {
		stop chan struct{}
		done chan struct{}
	}
	var (
		ctlMu sync.Mutex
		ctls  = map[int]*workerCtl{}
	)
	drained := ledger.Drained

	var runConsumer func(c *salsa.Consumer[Task], ctl *workerCtl)
	// replaceKilled swaps a crashed worker for a fresh consumer so the
	// drain always has survivors; the dead id's backlog comes back through
	// the abandoned-pool steal path.
	replaceKilled := func(deadID int) {
		ctlMu.Lock()
		defer ctlMu.Unlock()
		delete(ctls, deadID)
		if drained() {
			return
		}
		co, err := pool.AddConsumer()
		if err != nil {
			return // id budget exhausted: remaining workers keep draining
		}
		nctl := &workerCtl{stop: make(chan struct{}), done: make(chan struct{})}
		ctls[co.ID()] = nctl
		cwg.Add(1)
		go runConsumer(co, nctl)
	}
	runConsumer = func(c *salsa.Consumer[Task], ctl *workerCtl) {
		defer cwg.Done()
		defer close(ctl.done)
		defer c.Close()
		retired := func() bool {
			select {
			case <-ctl.stop:
				return true
			default:
				return false
			}
		}
		record := func(t *Task) {
			// Identities come straight from the pool's own pointers, so
			// out-of-universe errors are impossible here.
			_ = ledger.Record(int(t.Producer), int(t.Seq))
		}
		if o.Batch > 1 {
			buf := make([]*Task, o.Batch)
			for {
				if retired() {
					return
				}
				wasDone := done.Load()
				if n := c.GetBatch(buf); n > 0 {
					for _, t := range buf[:n] {
						record(t)
					}
					continue
				}
				if c.Killed() {
					replaceKilled(c.ID())
					return
				}
				if wasDone {
					return
				}
			}
		}
		for {
			if retired() {
				return
			}
			wasDone := done.Load()
			if t, ok := c.Get(); ok {
				record(t)
				continue
			}
			if c.Killed() {
				replaceKilled(c.ID())
				return
			}
			if wasDone {
				return
			}
		}
	}
	for ci := 0; ci < o.Consumers; ci++ {
		if o.Stalled[ci] {
			continue
		}
		ctl := &workerCtl{stop: make(chan struct{}), done: make(chan struct{})}
		ctls[ci] = ctl
		cwg.Add(1)
		go runConsumer(pool.Consumer(ci), ctl)
	}

	// The churner retires a random running consumer every Churn retrieved
	// tasks and adds a fresh one, running through the post-production drain
	// (the interesting window) until the round completes.
	var churnCycles atomic.Int64
	var churnErr atomic.Pointer[error]
	if o.Churn > 0 {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			crng := rand.New(rand.NewSource(o.Seed))
			next := int64(o.Churn)
			for {
				if drained() && churnCycles.Load() > 0 {
					return
				}
				if !drained() && ledger.Delivered() < next {
					time.Sleep(20 * time.Microsecond)
					continue
				}
				next += int64(o.Churn)

				ctlMu.Lock()
				ids := make([]int, 0, len(ctls))
				for id := range ctls {
					ids = append(ids, id)
				}
				ctlMu.Unlock()
				if len(ids) < 2 {
					if drained() {
						return
					}
					continue // always leave one running consumer
				}
				sort.Ints(ids)
				victim := ids[crng.Intn(len(ids))]
				ctlMu.Lock()
				ctl := ctls[victim]
				delete(ctls, victim)
				ctlMu.Unlock()
				if ctl == nil {
					continue // lost a race with a kill's deregistration
				}

				close(ctl.stop)
				<-ctl.done
				if err := pool.RetireConsumer(victim); err != nil {
					// A schedule kill can beat the retire to the registry;
					// that is churn meeting chaos, not a bug.
					if pool.Consumer(victim).Killed() {
						churnCycles.Add(1)
						continue
					}
					err = fmt.Errorf("churn: RetireConsumer(%d): %w", victim, err)
					churnErr.Store(&err)
					return
				}
				co, err := pool.AddConsumer()
				if err != nil {
					return // id budget exhausted: stop churning, keep draining
				}
				nctl := &workerCtl{stop: make(chan struct{}), done: make(chan struct{})}
				ctlMu.Lock()
				ctls[co.ID()] = nctl
				ctlMu.Unlock()
				cwg.Add(1)
				go runConsumer(co, nctl)
				churnCycles.Add(1)
			}
		}()
	}
	cwg.Wait()
	if o.Schedule != nil {
		o.Schedule.Disarm()
	}
	res.Kills = kills.Load()
	res.ChurnCycles = churnCycles.Load()
	res.Steals = pool.Stats().Steals

	if e := churnErr.Load(); e != nil {
		return res, fl.Fail(*e)
	}
	// Loss budget: a consumer crashed mid-Get forfeits at most its one
	// announced slot, and a scripted post-announce failure forfeits the
	// slot it abandoned. Everything else must drain exactly once.
	budget := kills.Load()
	if o.Schedule != nil {
		for _, r := range o.Schedule.Rules() {
			if failpoint.Site(r.Site) == failpoint.ConsumeAfterAnnounce && failpoint.Kind(r.Action) == failpoint.KindFail {
				budget += r.Fired()
			}
		}
	}
	res.Lost = ledger.Lost()
	if err := ledger.Verify(budget); err != nil {
		return res, fl.Fail(err)
	}
	if o.FlightAlways {
		fl.Pass()
	}
	return res, nil
}
