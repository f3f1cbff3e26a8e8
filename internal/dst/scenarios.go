package dst

import (
	"fmt"
	"sync/atomic"

	"salsa"
	"salsa/internal/backoff"
	"salsa/internal/core"
	"salsa/internal/failpoint"
	"salsa/internal/scpool"
)

// The scenario matrix: each entry is a small cast of goroutines over the
// real pool code, aimed at one of the algorithm's narrow windows. Checkers
// are conservation-based — every produced task is delivered exactly once or
// still visible exactly once — because that invariant is schedule-
// independent: it must hold on EVERY interleaving, so any strategy can
// explore freely and any violation is a real bug.

// recorder collects deliveries. Appends are serialized by the controller
// (exactly one scenario goroutine runs at a time).
type recorder struct {
	delivered []int
}

func (r *recorder) add(id int) { r.delivered = append(r.delivered, id) }

// conserve checks exactly-once delivery: no task id delivered twice, and
// delivered + visible accounts for every produced task.
func conserve(total int, delivered []int, visible int) error {
	seen := make([]bool, total)
	for _, id := range delivered {
		if id < 0 || id >= total {
			return fmt.Errorf("delivered unknown task %d", id)
		}
		if seen[id] {
			return fmt.Errorf("task %d delivered twice", id)
		}
		seen[id] = true
	}
	if len(delivered)+visible != total {
		return fmt.Errorf("conservation: %d delivered + %d visible != %d produced",
			len(delivered), visible, total)
	}
	return nil
}

// coreWorld is a family of raw core pools plus the produced task set —
// the scenario substrate for the pool-level races.
type coreWorld struct {
	pools []*core.Pool[int]
	tasks []*int
	rec   recorder
}

func newCoreWorld(chunkSize, consumers int) *coreWorld {
	s, err := core.NewShared[int](core.Options{ChunkSize: chunkSize, Consumers: consumers})
	if err != nil {
		panic(err)
	}
	w := &coreWorld{}
	for id := 0; id < consumers; id++ {
		p, err := s.NewPool(id, 0, 1)
		if err != nil {
			panic(err)
		}
		w.pools = append(w.pools, p)
	}
	return w
}

func (w *coreWorld) produce(pool, n int) {
	ps := &scpool.ProducerState{ID: 0, FID: 0}
	for i := 0; i < n; i++ {
		t := len(w.tasks)
		w.tasks = append(w.tasks, new(int))
		*w.tasks[t] = t
		w.pools[pool].ProduceForce(ps, w.tasks[t])
	}
}

func (w *coreWorld) visible() int {
	n := 0
	for _, p := range w.pools {
		n += p.VisibleTasks()
	}
	return n
}

func (w *coreWorld) check(*Controller) error {
	return conserve(len(w.tasks), w.rec.delivered, w.visible())
}

// cons returns a fresh consumer state for pool id.
func cons(id int) *scpool.ConsumerState { return &scpool.ConsumerState{ID: id, FID: id} }

// stealRace: the §1.5.3 two-consumer duel — the owner drains its chunk
// while a thief steals it; announced slots must fall to the single-CAS
// slow path, never be taken twice.
func stealRace() Scenario {
	return Scenario{
		Name: "steal-race",
		Doc:  "owner Consume vs one thief Steal over two small chunks (§1.5.3)",
		Build: func(ctl *Controller) Checker {
			w := newCoreWorld(4, 2)
			w.produce(0, 6)
			ctl.Spawn("owner", func() {
				cs := cons(0)
				for i := 0; i < 10; i++ {
					ctl.Yield("owner.loop")
					if t := w.pools[0].Consume(cs); t != nil {
						w.rec.add(*t)
					}
				}
			})
			ctl.Spawn("thief", func() {
				cs := cons(1)
				for i := 0; i < 10; i++ {
					ctl.Yield("thief.loop")
					if t := w.pools[1].Steal(cs, w.pools[0]); t != nil {
						w.rec.add(*t)
					}
					if t := w.pools[1].Consume(cs); t != nil {
						w.rec.add(*t)
					}
				}
			})
			return w.check
		},
	}
}

// stealRace3: the erratum's three-consumer variant — a second thief steals
// back the chunk the first thief just took, while the superseded node is
// still briefly referencing it. The owner-tag snapshot discipline
// (DESIGN.md §7) is what keeps this exactly-once.
func stealRace3() Scenario {
	return Scenario{
		Name: "steal-race-3",
		Doc:  "owner vs two thieves with steal-backs (erratum, DESIGN.md §7)",
		Build: func(ctl *Controller) Checker {
			w := newCoreWorld(4, 3)
			w.produce(0, 6)
			drain := func(self int, victims ...int) func() {
				return func() {
					cs := cons(self)
					for i := 0; i < 12; i++ {
						ctl.Yield(fmt.Sprintf("c%d.loop", self))
						if t := w.pools[self].Consume(cs); t != nil {
							w.rec.add(*t)
							continue
						}
						for _, v := range victims {
							if t := w.pools[self].Steal(cs, w.pools[v]); t != nil {
								w.rec.add(*t)
								break
							}
						}
					}
				}
			}
			ctl.Spawn("owner", drain(0))
			ctl.Spawn("thief1", drain(1, 0, 2))
			ctl.Spawn("thief2", drain(2, 1, 0))
			return w.check
		},
	}
}

// killMidSteal: a thief dies inside the two-CAS window (gate kill), leaving
// the chunk owned by a departed id; the survivor's rescue path must reclaim
// every task exactly once (DESIGN.md §9).
func killMidSteal() Scenario {
	return Scenario{
		Name: "kill-mid-steal",
		Doc:  "thief crashes between the ownership CAS and node publish; survivor rescues",
		Build: func(ctl *Controller) Checker {
			w := newCoreWorld(4, 3)
			w.produce(0, 6)
			var killed atomic.Bool
			failpoint.Set(failpoint.MembershipKillMidSteal, func(_ failpoint.Site, id int) bool {
				if id == 1 && !killed.Load() {
					killed.Store(true)
					w.pools[1].Abandon()
					return true
				}
				return false
			})
			ctl.Spawn("doomed", func() {
				cs := cons(1)
				for i := 0; i < 6 && !killed.Load(); i++ {
					ctl.Yield("doomed.loop")
					if t := w.pools[1].Steal(cs, w.pools[0]); t != nil {
						w.rec.add(*t)
					}
					if killed.Load() {
						return
					}
					if t := w.pools[1].Consume(cs); t != nil {
						w.rec.add(*t)
					}
				}
			})
			ctl.Spawn("owner", func() {
				cs := cons(0)
				for i := 0; i < 8; i++ {
					ctl.Yield("owner.loop")
					if t := w.pools[0].Consume(cs); t != nil {
						w.rec.add(*t)
					}
				}
			})
			ctl.Spawn("rescuer", func() {
				cs := cons(2)
				for i := 0; i < 14; i++ {
					ctl.Yield("rescuer.loop")
					if t := w.pools[2].Consume(cs); t != nil {
						w.rec.add(*t)
						continue
					}
					if t := w.pools[2].Steal(cs, w.pools[0]); t != nil {
						w.rec.add(*t)
						continue
					}
					if t := w.pools[2].Steal(cs, w.pools[1]); t != nil {
						w.rec.add(*t)
					}
				}
			})
			return w.check
		},
	}
}

// rescueAnnounce reconstructs the PR-4 review bug as a natural history: a
// thief T validates the original owner's node, then stalls; victim V steals
// the chunk through that same node and is declared crashed with one slot
// announced-but-uncommitted (the ConsumeBeforeCommit window); T resumes and
// rescues the chunk through the now-stale node. The rescue's re-scan of V's
// own lists must republish past V's announce — with the re-scan disabled
// (core.SetDebugDisableRescueRescan), T re-exposes the announced slot and
// the task is delivered twice. The thief is spawned first so the
// deterministic lowest-id tail drives it through the rescue, keeping the
// schedule prefix the explorer must find to ~9 decisions.
func rescueAnnounce() Scenario {
	return Scenario{
		Name: "rescue-announce",
		Doc:  "kill-mid-take vs rescue through a stale node (PR-4 review fix, DESIGN.md §9)",
		Build: func(ctl *Controller) Checker {
			w := newCoreWorld(4, 3)
			w.produce(0, 4)
			var killed atomic.Bool
			failpoint.Set(failpoint.ConsumeBeforeCommit, func(_ failpoint.Site, id int) bool {
				if id == 1 && !killed.Load() {
					killed.Store(true)
					w.pools[1].Abandon()
				}
				return false
			})
			ctl.Spawn("thief", func() {
				cs := cons(2)
				for i := 0; i < 12; i++ {
					ctl.Yield("thief.loop")
					if t := w.pools[2].Steal(cs, w.pools[0]); t != nil {
						w.rec.add(*t)
					}
					if t := w.pools[2].Consume(cs); t != nil {
						w.rec.add(*t)
						continue
					}
					if t := w.pools[2].Steal(cs, w.pools[1]); t != nil {
						w.rec.add(*t)
					}
				}
			})
			ctl.Spawn("victim", func() {
				cs := cons(1)
				if t := w.pools[1].Steal(cs, w.pools[0]); t != nil {
					w.rec.add(*t)
				}
				for i := 0; i < 3; i++ {
					ctl.Yield("victim.loop")
					if t := w.pools[1].Consume(cs); t != nil {
						w.rec.add(*t)
					}
				}
			})
			return w.check
		},
	}
}

// batchDrainSteal: ConsumeBatch's drainRun races a thief — the per-slot
// announce/re-check must drop the one announced slot to the single-task CAS
// path when the steal lands mid-run (DESIGN.md "Batching").
func batchDrainSteal() Scenario {
	return Scenario{
		Name: "batch-drain-steal",
		Doc:  "owner ConsumeBatch drain run vs thief steal (batched §1.5.3)",
		Build: func(ctl *Controller) Checker {
			w := newCoreWorld(8, 2)
			w.produce(0, 8)
			ctl.Spawn("owner", func() {
				cs := cons(0)
				buf := make([]*int, 3)
				for i := 0; i < 8; i++ {
					ctl.Yield("owner.loop")
					n := w.pools[0].ConsumeBatch(cs, buf)
					for _, t := range buf[:n] {
						w.rec.add(*t)
					}
				}
			})
			ctl.Spawn("thief", func() {
				cs := cons(1)
				buf := make([]*int, 3)
				for i := 0; i < 8; i++ {
					ctl.Yield("thief.loop")
					if t := w.pools[1].Steal(cs, w.pools[0]); t != nil {
						w.rec.add(*t)
					}
					n := w.pools[1].ConsumeBatch(cs, buf)
					for _, t := range buf[:n] {
						w.rec.add(*t)
					}
				}
			})
			return w.check
		},
	}
}

// frameworkWorld is a full public-API pool (framework + core) for the
// scenarios that need checkEmpty, membership, and the Get retry loop. The
// topology is pinned so schedules replay identically on any host.
type frameworkWorld struct {
	pool  *salsa.Pool[int]
	tasks []*int
	rec   recorder
	done  atomic.Bool
}

func newFrameworkWorld(producers, consumers, maxConsumers, chunkSize, total int) *frameworkWorld {
	p, err := salsa.New[int](salsa.Config{
		Producers:    producers,
		Consumers:    consumers,
		MaxConsumers: maxConsumers,
		ChunkSize:    chunkSize,
		NUMANodes:    1,
		CoresPerNode: 16,
	})
	if err != nil {
		panic(err)
	}
	w := &frameworkWorld{pool: p}
	for i := 0; i < total; i++ {
		w.tasks = append(w.tasks, new(int))
		*w.tasks[i] = i
	}
	return w
}

// checkDraining drains the remainder serially through consumer ci and then
// checks conservation: with all scenario goroutines finished, a serial Get
// loop against a linearizable-empty pool reaps exactly the leftovers.
func (w *frameworkWorld) checkDraining(ci int) Checker {
	return func(*Controller) error {
		c := w.pool.Consumer(ci)
		rest := 0
		for {
			t, ok := c.Get()
			if !ok {
				break
			}
			w.rec.add(*t)
			rest++
			if rest > len(w.tasks) {
				return fmt.Errorf("drained more tasks than produced")
			}
		}
		return conserve(len(w.tasks), w.rec.delivered, 0)
	}
}

// checkEmptyChurn: a consumer retires and another joins while the pool
// drains — the checkEmpty probe must survive membership epochs moving under
// it (indicator slot raised forever, epoch-pinned probes aborted) without
// losing or duplicating a task.
func checkEmptyChurn() Scenario {
	return Scenario{
		Name: "checkempty-churn",
		Doc:  "consumer retire/join races draining Gets and the checkEmpty probe",
		Build: func(ctl *Controller) Checker {
			const total = 10
			w := newFrameworkWorld(1, 2, 4, 4, total)
			prod := w.pool.Producer(0)
			cA := w.pool.Consumer(0)
			ctl.Spawn("producer", func() {
				for _, t := range w.tasks {
					ctl.Yield("producer.loop")
					prod.Put(t)
				}
				w.done.Store(true)
			})
			ctl.Spawn("drainer", func() {
				for i := 0; i < 40; i++ {
					ctl.Yield("drainer.loop")
					wasDone := w.done.Load()
					if t, ok := cA.Get(); ok {
						w.rec.add(*t)
					} else if wasDone {
						return
					}
				}
			})
			ctl.Spawn("churn", func() {
				ctl.Yield("churn.retire")
				if err := w.pool.RetireConsumer(1); err != nil {
					panic(err)
				}
				ctl.Yield("churn.join")
				if _, err := w.pool.AddConsumer(); err != nil {
					panic(err)
				}
			})
			return w.checkDraining(0)
		},
	}
}

// plainGetBackoff: the PR-4 review backoff fix as an invariant — the plain
// Get retry loop (YieldOnly) must never escalate to a timed sleep, no
// matter how often concurrent producers and takers refute its emptiness
// probes. The backoff phases are shrunk to one spin and one yield so a Get
// retried three times reaches the would-sleep boundary within a handful of
// scheduled steps; BackoffCapped() > 0 on a schedule proves the boundary
// was actually exercised.
func plainGetBackoff() Scenario {
	return Scenario{
		Name: "plain-get-backoff",
		Doc:  "plain Get must cap its backoff at yields (never park), even under probe churn",
		Build: func(ctl *Controller) Checker {
			backoff.SetTestDefaults(1, 1)
			const total = 8
			w := newFrameworkWorld(1, 2, 2, 4, total)
			prod := w.pool.Producer(0)
			drain := func(ci int) func() {
				c := w.pool.Consumer(ci)
				return func() {
					for i := 0; i < 30; i++ {
						ctl.Yield(fmt.Sprintf("c%d.loop", ci))
						wasDone := w.done.Load()
						if t, ok := c.Get(); ok {
							w.rec.add(*t)
						} else if wasDone {
							return
						}
					}
				}
			}
			ctl.Spawn("producer", func() {
				for _, t := range w.tasks {
					ctl.Yield("producer.loop")
					prod.Put(t)
				}
				w.done.Store(true)
			})
			ctl.Spawn("getterA", drain(0))
			ctl.Spawn("getterB", drain(1))
			inner := w.checkDraining(0)
			return func(ctl *Controller) error {
				if p := ctl.BackoffParks(); p > 0 {
					return fmt.Errorf("plain Get escalated to %d timed sleep(s); the retry loop must stay YieldOnly", p)
				}
				return inner(ctl)
			}
		},
	}
}

// Scenarios returns the full matrix in a fixed order.
func Scenarios() []Scenario {
	return []Scenario{
		stealRace(),
		stealRace3(),
		killMidSteal(),
		rescueAnnounce(),
		batchDrainSteal(),
		checkEmptyChurn(),
		plainGetBackoff(),
	}
}

// ScenarioByName resolves a scenario, or returns false.
func ScenarioByName(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}
