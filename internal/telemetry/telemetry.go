// Package telemetry turns the pool into an observable system without
// perturbing its CAS-free fast path.
//
// The paper's entire evaluation (§1.6) is about observed behavior — CAS per
// retrieval, stealing rates under imbalance, chunk-pool occupancy during
// producer-based balancing — and a production deployment needs the same
// signals live. The package has three layers:
//
//   - event hooks: a Tracer interface the pool substrates and the
//     management policy invoke at steal/chunk/checkEmpty/produce-pressure
//     points. Every call site is guarded by an inline nil check, so a nil
//     Tracer (the default) costs one predictable branch and nothing else.
//   - aggregation: Collector, a Tracer whose counters follow the same
//     single-writer load+store discipline as internal/stats — per-thief
//     steal-matrix rows, per-consumer checkEmpty tallies — so enabling
//     metrics adds no read-modify-write instruction to any pool path.
//   - exposition: Handler/Serve publish Prometheus-text-format and JSON
//     snapshots over net/http (stdlib only), with optional net/http/pprof
//     mounting.
//
// Latency histograms live in internal/stats (next to the operation
// counters, same ownership discipline); this package only renders them.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Tracer receives pool telemetry events. Implementations must be safe for
// concurrent use: events arrive from every producer and consumer goroutine.
// Each event type is invoked by exactly one goroutine class (OnSteal by
// thieves, OnProduceFail/OnForcePut by producers), which single-writer
// implementations like Collector exploit.
//
// A nil Tracer disables all event emission; every call site in the pool is
// an inline nil-check so the disabled path costs one predictable branch.
type Tracer interface {
	// OnSteal fires after a successful steal: the thief consumer moved
	// TasksMoved tasks (a whole chunk for SALSA, a single task for the
	// task-granularity baselines) out of the victim's pool.
	OnSteal(e StealEvent)
	// OnChunkTransfer fires when a chunk changes pools: a SALSA chunk
	// steal, or a SALSA+CAS chunk retired into the taker's chunk pool.
	OnChunkTransfer(e ChunkTransferEvent)
	// OnCheckEmptyRound fires once per round of the linearizable
	// emptiness protocol (Algorithm 2 lines 30–36): Empty reports
	// whether the round passed (saw nothing and no indicator reset).
	OnCheckEmptyRound(e CheckEmptyRoundEvent)
	// OnProduceFail fires when produce() on one pool of a producer's
	// access list fails for lack of spare chunks — the overload signal
	// driving producer-based balancing (§1.5.4).
	OnProduceFail(e ProduceEvent)
	// OnForcePut fires when the whole access list was full and the
	// producer fell back to produceForce, expanding the nearest pool.
	OnForcePut(e ProduceEvent)
}

// UnattributedVictim is the Victim/VictimNode value used by substrates
// whose retrievals scan one shared structure (ConcBag): a take
// from outside the consumer's preferred region is a steal with no single
// victim consumer to charge.
const UnattributedVictim = -1

// StealEvent describes one successful steal.
type StealEvent struct {
	// Thief and Victim are consumer ids; Victim is UnattributedVictim
	// for shared-structure substrates.
	Thief, Victim int
	// ThiefNode and VictimNode are the NUMA nodes involved; VictimNode
	// is UnattributedVictim when unknown.
	ThiefNode, VictimNode int
	// TasksMoved is the number of tasks transferred: the remaining
	// population of a stolen SALSA chunk, or 1 for single-task steals.
	TasksMoved int
}

// CrossNode reports whether the steal crossed a NUMA node boundary
// (unknowable, hence false, for unattributed victims).
func (e StealEvent) CrossNode() bool {
	return e.VictimNode != UnattributedVictim && e.ThiefNode != e.VictimNode
}

// ChunkTransferEvent describes a chunk changing pools.
type ChunkTransferEvent struct {
	// From and To are consumer ids (pool owners).
	From, To int
	// FromNode and ToNode are the chunk's home nodes before and after
	// the transfer.
	FromNode, ToNode int
	// Tasks is the number of live tasks carried by the chunk (0 for an
	// empty spare retired into another pool).
	Tasks int
}

// CheckEmptyRoundEvent describes one round of the emptiness protocol.
type CheckEmptyRoundEvent struct {
	// Consumer is the prober's id; Round its 0-based round number.
	Consumer, Round int
	// Empty reports whether the round passed. The protocol returns ⊥
	// only after Consumers consecutive passing rounds.
	Empty bool
}

// ProduceEvent describes producer-side insertion pressure.
type ProduceEvent struct {
	// Producer is the producer id, Node its NUMA node.
	Producer, Node int
	// Pool is the owning consumer id of the pool that rejected (or was
	// force-expanded by) the insertion.
	Pool int
}

// MembershipKind discriminates membership change events.
type MembershipKind int

const (
	// MemberJoined: a consumer was added to a live pool (AddConsumer).
	MemberJoined MembershipKind = iota
	// MemberRetired: a consumer departed gracefully; its pool was
	// abandoned and its spares drained into a survivor.
	MemberRetired
	// MemberCrashed: a consumer was declared dead without cooperation
	// (KillConsumer); its pool was abandoned as-is.
	MemberCrashed
)

// String returns the kind's wire name.
func (k MembershipKind) String() string {
	switch k {
	case MemberJoined:
		return "joined"
	case MemberRetired:
		return "retired"
	case MemberCrashed:
		return "crashed"
	}
	return "unknown"
}

// MembershipEvent describes one membership epoch transition.
type MembershipEvent struct {
	// Kind says what happened to the consumer.
	Kind MembershipKind
	// Consumer is the affected consumer id; Node its NUMA node.
	Consumer, Node int
	// Epoch is the membership epoch the change published.
	Epoch uint64
	// Live is the live consumer count after the change.
	Live int
	// SparesDrained is the number of spare chunks moved out of the
	// departing pool into a survivor (0 for joins and for substrates
	// without a chunk pool).
	SparesDrained int
}

// MembershipTracer is the optional membership extension of Tracer.
// Membership changes are control-plane events — rare, serialized by the
// framework's membership lock — so they live outside the hot-path Tracer
// interface: existing Tracer implementations keep compiling, and the
// framework type-asserts at each (cold) emission site.
type MembershipTracer interface {
	// OnMembershipChange fires after a membership epoch is published.
	OnMembershipChange(e MembershipEvent)
}

// EmitMembership forwards e to tr when tr implements MembershipTracer
// (directly, or as a Multi whose members do).
func EmitMembership(tr Tracer, e MembershipEvent) {
	if mt, ok := tr.(MembershipTracer); ok {
		mt.OnMembershipChange(e)
	}
}

// multi fans events out to several tracers.
type multi []Tracer

func (m multi) OnSteal(e StealEvent) {
	for _, t := range m {
		t.OnSteal(e)
	}
}
func (m multi) OnChunkTransfer(e ChunkTransferEvent) {
	for _, t := range m {
		t.OnChunkTransfer(e)
	}
}
func (m multi) OnCheckEmptyRound(e CheckEmptyRoundEvent) {
	for _, t := range m {
		t.OnCheckEmptyRound(e)
	}
}
func (m multi) OnProduceFail(e ProduceEvent) {
	for _, t := range m {
		t.OnProduceFail(e)
	}
}
func (m multi) OnForcePut(e ProduceEvent) {
	for _, t := range m {
		t.OnForcePut(e)
	}
}

// OnMembershipChange implements MembershipTracer by forwarding to every
// member that supports the extension.
func (m multi) OnMembershipChange(e MembershipEvent) {
	for _, t := range m {
		if mt, ok := t.(MembershipTracer); ok {
			mt.OnMembershipChange(e)
		}
	}
}

// Multi combines tracers into one, dropping nils. Returns nil when none
// remain, the single tracer when one remains.
func Multi(tracers ...Tracer) Tracer {
	var out multi
	for _, t := range tracers {
		if t != nil {
			out = append(out, t)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// LogTracer writes every event as one JSON line — a debugging aid for
// watching steal traffic evolve during long runs (salsa-bench/salsa-stress
// -trace-log). It serializes writers with a mutex, so attach it only when
// tracing, not as ambient production telemetry.
type LogTracer struct {
	mu    sync.Mutex
	w     io.Writer
	start time.Time
}

// NewLogTracer returns a LogTracer writing to w. Timestamps are
// microseconds since the tracer's creation.
func NewLogTracer(w io.Writer) *LogTracer {
	return &LogTracer{w: w, start: time.Now()}
}

func (l *LogTracer) emit(kind string, e any) {
	us := time.Since(l.start).Microseconds()
	payload, err := json.Marshal(e)
	if err != nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, "{\"t_us\":%d,\"event\":%q,\"data\":%s}\n", us, kind, payload)
}

// OnSteal implements Tracer.
func (l *LogTracer) OnSteal(e StealEvent) { l.emit("steal", e) }

// OnChunkTransfer implements Tracer.
func (l *LogTracer) OnChunkTransfer(e ChunkTransferEvent) { l.emit("chunk_transfer", e) }

// OnCheckEmptyRound implements Tracer.
func (l *LogTracer) OnCheckEmptyRound(e CheckEmptyRoundEvent) { l.emit("checkempty_round", e) }

// OnProduceFail implements Tracer.
func (l *LogTracer) OnProduceFail(e ProduceEvent) { l.emit("produce_fail", e) }

// OnForcePut implements Tracer.
func (l *LogTracer) OnForcePut(e ProduceEvent) { l.emit("force_put", e) }

// OnMembershipChange implements MembershipTracer.
func (l *LogTracer) OnMembershipChange(e MembershipEvent) { l.emit("membership", e) }
