package remote

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"salsa/internal/backoff"
	"salsa/internal/chaos"
	"salsa/internal/netchaos"
)

// ClusterScenario is one cell of the cluster fault matrix: which paths
// get which netchaos schedules, whether a quiesce handoff fires
// mid-round, and what the exactly-once verdict may tolerate.
//
// Fault scoping matters: producer-path and handoff-path faults of any
// kind are exactly-once-safe (the idempotent PUT_BATCH retry collapses
// lost-ACK ambiguity), but a worker-path fault that destroys an
// in-flight TASKS frame loses committed tasks — retrieval is
// at-most-once past the server's commit (DESIGN §14). The round's loss
// budget is derived from WorkSpec (ClusterOptions.LossBudget), so every
// worker-path loss rule must carry a #count cap.
type ClusterScenario struct {
	Name string
	// ProdSpec is armed on both producer-path proxies, WorkSpec on both
	// worker-path proxies, HandoffSpec on the quiesce handoff proxy
	// (netchaos schedule grammar, e.g. "s2c=reset@0.03#6").
	ProdSpec, WorkSpec, HandoffSpec string
	// Quiesce drains shard 0 into shard 1 (through the handoff proxy)
	// once a fifth of the task universe has been delivered.
	Quiesce bool
	// WorkersAfterQuiesce spawns that many extra workers aimed at the
	// draining shard after the handoff: they must be refused with
	// CodeDraining and fail over to the survivor.
	WorkersAfterQuiesce int
	// WorkersShard1 homes every worker on shard 1, so shard 0's tasks
	// can only surface through the quiesce handoff.
	WorkersShard1 bool
	// AssertDedup requires at least one dedup replay (the scenario's
	// faults must force a retry of a committed batch).
	AssertDedup bool
	// AssertHandoff requires the quiesce to succeed having moved >= 1
	// task, with the count visible in shard 0's telemetry.
	AssertHandoff bool
}

// ClusterOptions configures RunCluster.
type ClusterOptions struct {
	Scenario ClusterScenario
	// Seed makes the round replayable: every proxy fault decision and
	// every client backoff delay derives from it.
	Seed int64
	// Producers (default 3) each publish PerProducer (default 3000)
	// tasks in Batch-sized runs (default 128).
	Producers   int
	PerProducer int
	Batch       int
	// WorkersPerShard (default 2) workers home on each shard.
	WorkersPerShard int
	// AuthToken is the cluster shared secret (default "cluster-secret");
	// every client and the quiesce handoff carry it.
	AuthToken string
	// Timeout bounds the round. Default 90s.
	Timeout time.Duration
	// FlightDump, when non-empty, arms the flight recorder and writes
	// shard 0's black box there if the round fails.
	FlightDump string
	// Logf receives progress lines; nil silences them.
	Logf func(format string, args ...any)
}

// ClusterResult is the round's merged accounting: ledger verdict inputs,
// fault counts per proxy, and the replay specs.
type ClusterResult struct {
	Delivered, Dups, Lost int64
	// DedupHits, Reconnects, HandoffTasks are summed over both shards.
	DedupHits, Reconnects, HandoffTasks int64
	// Quiesced reports a successful handoff; Moved is its task count.
	Quiesced bool
	Moved    int64
	// Faults maps proxy name -> action -> fired count; TotalFaults sums it.
	Faults      map[string]map[string]int64
	TotalFaults int64
	// Specs maps proxy name -> the schedule spec it ran (replay artifact).
	Specs map[string]string
}

func (o *ClusterOptions) defaults() {
	if o.Producers <= 0 {
		o.Producers = 3
	}
	if o.PerProducer <= 0 {
		o.PerProducer = 3000
	}
	if o.Batch <= 0 {
		o.Batch = 128
	}
	if o.WorkersPerShard <= 0 {
		o.WorkersPerShard = 2
	}
	if o.AuthToken == "" {
		o.AuthToken = "cluster-secret"
	}
	if o.Timeout <= 0 {
		o.Timeout = 90 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// LossBudget is the task loss a round may tolerate, derived from the
// scenario's WorkSpec. Each firing of a worker-path loss rule (reset,
// blackhole, drip) can strand at most one committed Batch-sized TASKS
// delivery; a rule fires at most #count times per proxy, and WorkSpec is
// armed on both shards' worker-path proxies. A loss rule without a #count
// could lose without bound, so it is an error. Delays lose nothing, and
// producer-path and handoff-path faults are exactly-once-safe.
func (o ClusterOptions) LossBudget() (int64, error) {
	o.defaults()
	sched, err := netchaos.ParseSchedule(0, o.Scenario.WorkSpec)
	if err != nil {
		return 0, fmt.Errorf("cluster: work schedule %q: %w", o.Scenario.WorkSpec, err)
	}
	var firings int64
	for _, r := range sched.Rules() {
		switch netchaos.Action(r.Action) {
		case netchaos.ActionReset, netchaos.ActionBlackhole, netchaos.ActionDrip:
			if r.Count == 0 {
				return 0, fmt.Errorf("cluster: work rule %s has no #count, so its loss is unbounded", r)
			}
			firings += int64(r.Count)
		}
	}
	const workProxies = 2 // one per shard
	return firings * int64(o.Batch) * workProxies, nil
}

// RunCluster drives one cluster fault round: two real shard servers on
// loopback TCP, every client path routed through a netchaos fault proxy,
// a producer fleet with failover + idempotent retry, a worker fleet with
// redial/failover, and (per scenario) a mid-round quiesce handoff —
// verified with exactly-once ledger accounting under the scenario's
// budget. Every fault and backoff decision is a pure function of
// o.Seed, so a failing round replays.
func RunCluster(o ClusterOptions) (res ClusterResult, _ error) {
	o.defaults()
	sc := o.Scenario
	budget, err := o.LossBudget()
	if err != nil {
		return res, err
	}

	// Both shards share the process-global flight recorder, so each gets
	// a disjoint actor-id range: shard i records as ids
	// [i*flightStride, i*flightStride+258) — per-actor rings stay
	// single-writer. One stride covers the larger of the two handle
	// kinds (House+MaxWorkers+1 = 258 consumers vs Lanes+1 = 5
	// producers), so shard 1's producer range ends at stride+5.
	const flightStride = 1 + 256 + 1
	fl := chaos.ArmFlight(o.FlightDump, "cluster", 2*flightStride, flightStride+5)
	defer fl.Disarm()
	fail := func(err error) (ClusterResult, error) { return res, fl.Fail(err) }

	// Two shards. Worker budgets are lifetime (redials burn them), so
	// they are sized for heavy churn, and the lease is short so a
	// blackholed worker is declared dead quickly.
	mkServer := func(shard int) (*Server, error) {
		return NewServer("127.0.0.1:0", Options{
			Lanes: 4, House: 1, MaxWorkers: 256,
			ChunkSize:      256,
			LeaseTimeout:   700 * time.Millisecond,
			QuiesceTimeout: 20 * time.Second,
			AuthToken:      o.AuthToken,
			FlightBase:     shard * flightStride,
			Logf:           o.Logf,
		})
	}
	srv := make([]*Server, 2)
	for i := range srv {
		s, err := mkServer(i)
		if err != nil {
			return fail(fmt.Errorf("cluster: shard %d: %w", i, err))
		}
		defer s.Close()
		srv[i] = s
	}

	// Fault proxies: a producer-path and a worker-path proxy per shard
	// (so worker-path faults cannot leak onto the exactly-once producer
	// path) plus the handoff proxy in front of shard 1.
	res.Faults = map[string]map[string]int64{}
	res.Specs = map[string]string{}
	proxies := map[string]*netchaos.Proxy{}
	mkProxy := func(name, target, spec string, salt uint64) (*netchaos.Proxy, error) {
		sched, err := netchaos.ParseSchedule(uint64(o.Seed)^salt, spec)
		if err != nil {
			return nil, fmt.Errorf("cluster: %s schedule %q: %w", name, spec, err)
		}
		p, err := netchaos.Listen(target, sched)
		if err != nil {
			return nil, fmt.Errorf("cluster: %s proxy: %w", name, err)
		}
		proxies[name] = p
		res.Specs[name] = spec
		return p, nil
	}
	var prodProxy, workProxy [2]*netchaos.Proxy
	for i := 0; i < 2; i++ {
		var err error
		if prodProxy[i], err = mkProxy(fmt.Sprintf("prod%d", i), srv[i].Addr(), sc.ProdSpec, uint64(i+1)*0x9e37); err != nil {
			return fail(err)
		}
		if workProxy[i], err = mkProxy(fmt.Sprintf("work%d", i), srv[i].Addr(), sc.WorkSpec, uint64(i+1)*0x79b9); err != nil {
			return fail(err)
		}
	}
	handoffProxy, err := mkProxy("handoff", srv[1].Addr(), sc.HandoffSpec, 0x7f4a)
	if err != nil {
		return fail(err)
	}
	defer func() { // res is the named result: the census lands in what the caller sees
		for name, p := range proxies {
			res.Faults[name] = p.Faults()
			res.TotalFaults += p.TotalFaults()
			p.Close()
		}
	}()

	ledger := chaos.NewLedger(o.Producers, o.PerProducer)
	ctx, cancel := context.WithTimeout(context.Background(), o.Timeout)
	defer cancel()
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	done := func() bool {
		if ledger.Drained() {
			return true
		}
		select {
		case <-stop:
			return true
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}
	sleepUnlessDone := func(d time.Duration) {
		select {
		case <-stop:
		case <-ctx.Done():
		case <-time.After(d):
		}
	}
	errs := make(chan error, o.Producers+2*o.WorkersPerShard+sc.WorkersAfterQuiesce+4)
	var wg sync.WaitGroup

	// Workers: pull through the worker-path proxies, redial with seeded
	// backoff on any error, and fail over to the other shard on a typed
	// draining/capacity refusal. Deliveries land in the ledger.
	prodAddrs := []string{prodProxy[0].Addr(), prodProxy[1].Addr()}
	workAddrs := []string{workProxy[0].Addr(), workProxy[1].Addr()}
	runWorker := func(wi, home int) {
		defer wg.Done()
		bo := backoff.Expo{Max: 300 * time.Millisecond, Seed: uint64(o.Seed) ^ uint64(wi+1)*0xbf58476d1ce4e5b9}
		cur := home
		for !done() {
			w, err := DialWorker(workAddrs[cur], WorkerOptions{
				Token:       o.AuthToken,
				OpTimeout:   2 * time.Second,
				DialRetries: 1,
				BackoffSeed: uint64(o.Seed) ^ uint64(wi*2+cur+1),
			})
			if err != nil {
				if errors.Is(err, ErrDraining) || errors.Is(err, ErrCapacity) {
					cur = 1 - cur // the shard left the cluster: fail over
				}
				sleepUnlessDone(bo.Next())
				continue
			}
			bo.Reset()
			for !done() {
				bodies, gerr := w.GetBatch(o.Batch, 50*time.Millisecond)
				if gerr != nil {
					if errors.Is(gerr, ErrDraining) {
						cur = 1 - cur
					}
					break // redial (possibly on the other shard)
				}
				if rerr := recordBodies(ledger, bodies); rerr != nil {
					errs <- fmt.Errorf("cluster: worker %d: %w", wi, rerr)
					halt()
					return
				}
			}
			w.Close()
		}
	}
	for i := 0; i < 2*o.WorkersPerShard; i++ {
		home := i % 2
		if sc.WorkersShard1 {
			home = 1
		}
		wg.Add(1)
		go runWorker(i, home)
	}

	// Producers: one fleet member per producer id, routed through the
	// producer-path proxies with failover and idempotent retry. Bodies
	// carry the (producer, seq) ledger identity.
	var producersLeft atomic.Int64
	producersLeft.Store(int64(o.Producers))
	for pi := 0; pi < o.Producers; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			defer producersLeft.Add(-1)
			pr, err := DialProducer(prodAddrs, ProducerOptions{
				Home:        pi % 2,
				Token:       o.AuthToken,
				OpTimeout:   2 * time.Second,
				Retries:     3,
				DialRetries: 3,
				BackoffSeed: uint64(o.Seed) ^ uint64(pi+1)*0x94d049bb133111eb,
			})
			if err != nil {
				errs <- fmt.Errorf("cluster: producer %d: %w", pi, err)
				halt()
				return
			}
			defer pr.Close()
			if err := produceLedger(ctx, pr, pi, o.PerProducer, o.Batch); err != nil {
				errs <- fmt.Errorf("cluster: producer %d: %w", pi, err)
				halt()
			}
		}(pi)
	}

	// Quiesce controller: once a fifth of the universe has been
	// delivered (or the producers finish first), drain shard 0 into
	// shard 1 through the handoff proxy, retrying through injected
	// faults. Late workers then aim at the drained shard to exercise
	// the refusal/failover path.
	var quiesceMoved atomic.Int64
	var quiesced atomic.Bool
	if sc.Quiesce {
		wg.Add(1)
		go func() {
			defer wg.Done()
			trigger := ledger.Want() / 5
			for !done() && ledger.Delivered() < trigger && producersLeft.Load() > 0 {
				sleepUnlessDone(5 * time.Millisecond)
			}
			if ctx.Err() != nil {
				return
			}
			var qerr error
			for attempt := 0; attempt < 3; attempt++ {
				var m int64
				m, qerr = srv[0].Quiesce(handoffProxy.Addr())
				quiesceMoved.Add(m)
				if qerr == nil {
					quiesced.Store(true)
					break
				}
				if errors.Is(qerr, ErrDraining) { // already drained by a retry race
					quiesced.Store(true)
					qerr = nil
					break
				}
				o.Logf("cluster: quiesce attempt %d: %v", attempt, qerr)
			}
			if qerr != nil && sc.AssertHandoff {
				errs <- fmt.Errorf("cluster: quiesce never succeeded (%v): %w", qerr, chaos.ErrVacuousRound)
				halt()
				return
			}
			for i := 0; i < sc.WorkersAfterQuiesce; i++ {
				wg.Add(1)
				go runWorker(1000+i, 0) // aimed at the drained shard: must fail over
			}
		}()
	}

	// Progress monitor: end the round when the ledger drains, or — on
	// budgeted-loss rounds, where it never will — when the producers are
	// done and delivery has been flat for a grace window.
	wg.Add(1)
	go func() {
		defer wg.Done()
		last, lastAt := int64(-1), time.Now()
		for {
			if ledger.Drained() {
				halt()
				return
			}
			select {
			case <-stop:
				return
			case <-ctx.Done():
				halt()
				return
			case <-time.After(100 * time.Millisecond):
			}
			d := ledger.Delivered()
			if d != last {
				last, lastAt = d, time.Now()
				continue
			}
			if producersLeft.Load() == 0 && time.Since(lastAt) > 3*time.Second {
				halt()
				return
			}
		}
	}()

	wgDone := make(chan struct{})
	go func() { wg.Wait(); close(wgDone) }()
	var firstErr error
	select {
	case <-wgDone:
	case firstErr = <-errs:
		halt()
		<-wgDone
	}
	if firstErr == nil {
		select {
		case firstErr = <-errs:
		default:
		}
	}

	// Merge the per-shard wire counters and the fault census.
	for _, s := range srv {
		snap := s.TelemetrySnapshot()
		res.DedupHits += snap.RemoteDedupHits
		res.Reconnects += snap.RemoteReconnects
		res.HandoffTasks += snap.RemoteHandoffTasks
	}
	res.Delivered = ledger.Delivered()
	res.Dups = ledger.Dups()
	res.Lost = ledger.Lost()
	res.Quiesced = quiesced.Load()
	res.Moved = quiesceMoved.Load()

	if firstErr != nil {
		return fail(fmt.Errorf("cluster: %w", firstErr))
	}
	if err := ctx.Err(); err != nil && !ledger.Drained() {
		return fail(fmt.Errorf("cluster: round timed out: delivered %d of %d", ledger.Delivered(), ledger.Want()))
	}
	if err := ledger.Verify(budget); err != nil {
		return fail(fmt.Errorf("cluster: %s", err))
	}
	if sc.AssertDedup && res.DedupHits < 1 {
		return fail(fmt.Errorf("cluster: expected >= 1 dedup replay, got 0 (no retry of a committed batch was forced): %w", chaos.ErrVacuousRound))
	}
	if sc.AssertHandoff {
		if !res.Quiesced {
			return fail(fmt.Errorf("cluster: quiesce handoff never completed: %w", chaos.ErrVacuousRound))
		}
		if res.Moved < 1 || res.HandoffTasks < 1 {
			return fail(fmt.Errorf("cluster: quiesce moved %d tasks (telemetry %d), want >= 1: %w", res.Moved, res.HandoffTasks, chaos.ErrVacuousRound))
		}
	}
	o.Logf("cluster: PASS — delivered %d (dups %d, lost %d, budget %d), dedup hits %d, reconnects %d, handoff %d",
		res.Delivered, res.Dups, res.Lost, budget, res.DedupHits, res.Reconnects, res.HandoffTasks)
	return res, nil
}
