package salsa

import (
	"io"
	"net/http"

	"salsa/internal/scpool"
	"salsa/internal/stats"
	"salsa/internal/telemetry"
)

// This file is the public face of the telemetry subsystem (the
// implementation lives in internal/telemetry and internal/stats, which
// external modules cannot import directly). See README.md "Observability".

// Tracer receives raw pool telemetry events; set one via Config.Tracer.
// See the method docs on the underlying interface for the event contract.
type Tracer = telemetry.Tracer

// StealEvent describes one successful steal.
type StealEvent = telemetry.StealEvent

// ChunkTransferEvent describes a chunk changing pools.
type ChunkTransferEvent = telemetry.ChunkTransferEvent

// CheckEmptyRoundEvent describes one round of the emptiness protocol.
type CheckEmptyRoundEvent = telemetry.CheckEmptyRoundEvent

// ProduceEvent describes producer-side insertion pressure.
type ProduceEvent = telemetry.ProduceEvent

// UnattributedVictim is the StealEvent.Victim value for steals from
// a shared-structure algorithm (ConcBag) with no single victim.
const UnattributedVictim = telemetry.UnattributedVictim

// TelemetrySnapshot is a point-in-time view of a pool's operation census,
// latency histograms, steal matrix and occupancy gauges.
type TelemetrySnapshot = telemetry.Snapshot

// LatencySnapshot is a merged latency histogram with quantile accessors
// (P50/P99/P999); Stats and TelemetrySnapshot embed three of them.
type LatencySnapshot = stats.HistogramSnapshot

// MetricsServer is a running metrics endpoint returned by ServeMetrics.
type MetricsServer = telemetry.Server

// MultiTracer combines tracers into one that fans events out in order,
// dropping nils. Returns nil when no non-nil tracer remains.
func MultiTracer(tracers ...Tracer) Tracer { return telemetry.Multi(tracers...) }

// NewLogTracer returns a Tracer writing each event as one JSON line to w —
// a debugging aid, not ambient production telemetry (writers serialize on
// a mutex).
func NewLogTracer(w io.Writer) Tracer { return telemetry.NewLogTracer(w) }

// TelemetrySnapshot captures the pool's current telemetry. The operation
// census and latency histograms are always populated; the steal matrix,
// checkEmpty tallies and producer-pressure counters require Config.Metrics
// (they stay nil otherwise). Safe to call concurrently with pool
// operations: counters are read atomically (readers may lag in-flight
// increments but never see torn values).
func (p *Pool[T]) TelemetrySnapshot() TelemetrySnapshot {
	n := p.fw.NumConsumers() // every id ever registered, departed included
	s := telemetry.Snapshot{
		Algorithm:       p.cfg.Algorithm.String(),
		Producers:       p.cfg.Producers,
		Consumers:       n,
		LiveConsumers:   p.fw.LiveConsumers(),
		MembershipEpoch: p.fw.MembershipEpoch(),
		SparesDrained:   p.fw.SparesDrained(),
		Ops:             p.fw.Stats(),
	}
	pl := p.fw.Placement() // current epoch's placement, runtime joins included
	s.ConsumerNodes = make([]int, n)
	for i := range s.ConsumerNodes {
		s.ConsumerNodes[i] = pl.ConsumerNode(i)
	}
	if p.collector != nil {
		p.collector.Fill(&s)
	}
	// Chunk-pool occupancy, for the algorithms that have chunk pools
	// (SALSA, SALSA+CAS). This is the signal producer-based balancing
	// reads (§1.5.4). Abandoned pools also contribute the orphaned-task
	// gauge: tasks still queued there that survivors have yet to reclaim.
	for i := 0; i < n; i++ {
		pool := p.fw.Pool(i)
		if sp, ok := pool.(interface{ SpareChunks() int }); ok {
			if s.ChunkSpares == nil {
				s.ChunkSpares = make([]int, n)
			}
			s.ChunkSpares[i] = sp.SpareChunks()
		}
		if p.fw.ConsumerDeparted(i) {
			s.OrphanedTasks += int64(scpool.VisibleTasks[T](pool))
		}
	}
	return s
}

// MetricsHandler returns an http.Handler exposing the pool's telemetry:
// Prometheus text format at /metrics, indented JSON at /metrics.json.
// Works without Config.Metrics, but steal matrices and latency histograms
// are only populated when it is set.
func (p *Pool[T]) MetricsHandler() http.Handler {
	return telemetry.Handler(p, telemetry.HandlerOptions{})
}

// ServeMetrics starts an HTTP server exposing MetricsHandler on addr
// (host:port; port 0 picks a free one, see MetricsServer.Addr). The caller
// owns the returned server and must Close it.
func (p *Pool[T]) ServeMetrics(addr string) (*MetricsServer, error) {
	return telemetry.Serve(addr, p.MetricsHandler())
}
