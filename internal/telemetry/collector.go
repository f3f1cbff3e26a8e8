package telemetry

import "salsa/internal/stats"

// Collector is a Tracer that aggregates events into counters following the
// single-writer discipline of internal/stats: every counter is written by
// exactly one goroutine (steal-matrix row r only by thief r, produce
// counters only by their producer), as an atomic load followed by an atomic
// store — no read-modify-write. Enabling metrics therefore adds zero RMW
// instructions to any pool path, preserving the property the paper's fast
// path is built on.
//
// The per-thief rows are padded apart by the enclosing row struct so
// concurrent thieves do not false-share cache lines.
type Collector struct {
	producers, consumers int

	thief []thiefRow
	prod  []prodRow

	// Membership counters. Written only from inside the framework's
	// membership lock — control-plane events are serialized, so the
	// load+store Counter discipline holds with the lock as the
	// single-writer guarantee. The matching gauges (epoch, live count,
	// spares drained) come straight from the framework at snapshot time
	// and are not duplicated here.
	joins, retires, crashes stats.Counter
}

// thiefRow is one consumer's single-writer event block.
type thiefRow struct {
	// matrix[v] counts successful steals from victim v.
	matrix []stats.Counter
	// unattributed counts steals from a shared-structure substrate
	// (ConcBag) that have no single victim.
	unattributed stats.Counter
	// tasksMoved totals tasks carried by this thief's steals.
	tasksMoved stats.Counter
	// crossNode / sameNode split steals by node crossing.
	crossNode, sameNode stats.Counter
	// chunksIn counts chunks transferred into this consumer's pool.
	chunksIn stats.Counter
	// ceRounds counts emptiness-protocol rounds run by this consumer;
	// ceAborts the rounds that failed (saw a task or a cleared
	// indicator).
	ceRounds, ceAborts stats.Counter

	_ [64]byte // separate writers' rows
}

// prodRow is one producer's single-writer event block.
type prodRow struct {
	produceFails stats.Counter
	forcePuts    stats.Counter

	_ [64]byte
}

// NewCollector builds a collector for the given thread counts.
func NewCollector(producers, consumers int) *Collector {
	c := &Collector{
		producers: producers,
		consumers: consumers,
		thief:     make([]thiefRow, consumers),
		prod:      make([]prodRow, producers),
	}
	for i := range c.thief {
		c.thief[i].matrix = make([]stats.Counter, consumers)
	}
	return c
}

func (c *Collector) thiefRowOf(id int) *thiefRow {
	if id < 0 || id >= len(c.thief) {
		return nil
	}
	return &c.thief[id]
}

// OnSteal implements Tracer. Called only by the thief's goroutine.
func (c *Collector) OnSteal(e StealEvent) {
	r := c.thiefRowOf(e.Thief)
	if r == nil {
		return
	}
	if e.Victim >= 0 && e.Victim < len(r.matrix) {
		r.matrix[e.Victim].Inc()
	} else {
		r.unattributed.Inc()
	}
	r.tasksMoved.Add(int64(e.TasksMoved))
	if e.CrossNode() {
		r.crossNode.Inc()
	} else {
		r.sameNode.Inc()
	}
}

// OnChunkTransfer implements Tracer. Called only by the receiving
// consumer's goroutine.
func (c *Collector) OnChunkTransfer(e ChunkTransferEvent) {
	if r := c.thiefRowOf(e.To); r != nil {
		r.chunksIn.Inc()
	}
}

// OnCheckEmptyRound implements Tracer. Called only by the probing
// consumer's goroutine.
func (c *Collector) OnCheckEmptyRound(e CheckEmptyRoundEvent) {
	r := c.thiefRowOf(e.Consumer)
	if r == nil {
		return
	}
	r.ceRounds.Inc()
	if !e.Empty {
		r.ceAborts.Inc()
	}
}

// OnProduceFail implements Tracer. Called only by the producer's goroutine.
func (c *Collector) OnProduceFail(e ProduceEvent) {
	if e.Producer >= 0 && e.Producer < len(c.prod) {
		c.prod[e.Producer].produceFails.Inc()
	}
}

// OnForcePut implements Tracer. Called only by the producer's goroutine.
func (c *Collector) OnForcePut(e ProduceEvent) {
	if e.Producer >= 0 && e.Producer < len(c.prod) {
		c.prod[e.Producer].forcePuts.Inc()
	}
}

// OnMembershipChange implements MembershipTracer. Called only with the
// framework's membership lock held.
func (c *Collector) OnMembershipChange(e MembershipEvent) {
	switch e.Kind {
	case MemberJoined:
		c.joins.Inc()
	case MemberRetired:
		c.retires.Inc()
	case MemberCrashed:
		c.crashes.Inc()
	}
}

// fill copies the collector's counters into s. Readers may lag in-flight
// increments (single-writer visibility) but never see torn values.
func (c *Collector) fill(s *Snapshot) {
	s.StealMatrix = make([][]int64, c.consumers)
	s.UnattributedSteals = make([]int64, c.consumers)
	s.StealTasksMoved = make([]int64, c.consumers)
	s.ChunkTransfersIn = make([]int64, c.consumers)
	s.CheckEmptyRounds = make([]int64, c.consumers)
	s.CheckEmptyAborts = make([]int64, c.consumers)
	for i := range c.thief {
		r := &c.thief[i]
		row := make([]int64, c.consumers)
		for v := range r.matrix {
			row[v] = r.matrix[v].Load()
		}
		s.StealMatrix[i] = row
		s.UnattributedSteals[i] = r.unattributed.Load()
		s.StealTasksMoved[i] = r.tasksMoved.Load()
		s.ChunkTransfersIn[i] = r.chunksIn.Load()
		s.CheckEmptyRounds[i] = r.ceRounds.Load()
		s.CheckEmptyAborts[i] = r.ceAborts.Load()
		s.CrossNodeSteals += r.crossNode.Load()
		s.SameNodeSteals += r.sameNode.Load()
	}
	s.ProduceFails = make([]int64, c.producers)
	s.ForcePuts = make([]int64, c.producers)
	for i := range c.prod {
		s.ProduceFails[i] = c.prod[i].produceFails.Load()
		s.ForcePuts[i] = c.prod[i].forcePuts.Load()
	}
	s.MemberJoins = c.joins.Load()
	s.MemberRetires = c.retires.Load()
	s.MemberCrashes = c.crashes.Load()
}

// Fill exports the collector's counters into a Snapshot (public wrapper
// used by the salsa package when assembling a pool-wide snapshot).
func (c *Collector) Fill(s *Snapshot) { c.fill(s) }
