package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"salsa/internal/stats"
)

// Snapshot is a point-in-time view of everything the pool can report:
// the aggregated operation census (with latency histograms), the collector's
// steal matrices, and instantaneous gauges like chunk-pool occupancy.
type Snapshot struct {
	// Algorithm is the pool algorithm's display name.
	Algorithm string
	// Producers is the configured producer count; Consumers counts every
	// consumer id ever registered, departed ones included.
	Producers, Consumers int
	// ConsumerNodes maps consumer id → NUMA node (nil if unknown).
	ConsumerNodes []int

	// LiveConsumers is the number of consumers that have not departed.
	LiveConsumers int
	// MembershipEpoch is the current membership epoch: 0 at
	// construction, +1 per AddConsumer/RetireConsumer/KillConsumer.
	MembershipEpoch uint64
	// MemberJoins, MemberRetires and MemberCrashes count membership
	// changes by kind (Collector-backed; zero without metrics).
	MemberJoins, MemberRetires, MemberCrashes int64
	// SparesDrained totals the spare chunks moved out of departing pools
	// into survivors.
	SparesDrained int64
	// OrphanedTasks is the instantaneous number of tasks still visible
	// in abandoned pools, awaiting steal-reclamation by survivors.
	OrphanedTasks int64

	// TaskPanics counts tasks that panicked inside an executor worker
	// (recovered, worker survived). Zero for bare pools — only the
	// executor's TelemetrySnapshot fills it in.
	TaskPanics int64

	// Ops is the aggregated per-handle operation census, including the
	// Put/Get/steal latency histograms when latency sampling is on.
	Ops stats.Snapshot

	// StealMatrix[t][v] counts successful steals by thief t from victim
	// v. Nil when no Collector is attached.
	StealMatrix [][]int64
	// UnattributedSteals[t] counts thief t's steals from
	// shared-structure substrates with no single victim.
	UnattributedSteals []int64
	// StealTasksMoved[t] totals tasks carried by thief t's steals.
	StealTasksMoved []int64
	// CrossNodeSteals and SameNodeSteals split steals by node crossing.
	CrossNodeSteals, SameNodeSteals int64
	// ChunkTransfersIn[c] counts chunks transferred into consumer c's
	// pool (steals and cross-pool retirements).
	ChunkTransfersIn []int64
	// CheckEmptyRounds[c] and CheckEmptyAborts[c] count emptiness
	// protocol rounds run / failed by consumer c.
	CheckEmptyRounds, CheckEmptyAborts []int64
	// ProduceFails[p] and ForcePuts[p] count producer p's balancing
	// rejections and force expansions.
	ProduceFails, ForcePuts []int64

	// ChunkSpares[c] is the instantaneous chunk-pool occupancy of
	// consumer c's pool — the signal producer-based balancing reads
	// (§1.5.4). Nil for algorithms without chunk pools.
	ChunkSpares []int

	// RemoteFrames counts wire frames handled by a shard server (sent
	// and received), keyed by frame kind name. Nil for in-process pools:
	// only internal/remote's Server fills the Remote* fields, and the
	// exposition omits the families when the map is nil.
	RemoteFrames map[string]int64
	// RemoteSaturated counts PUT_BATCH requests a shard refused (fully
	// or partially) with a wire-level SATURATED backpressure frame.
	RemoteSaturated int64
	// RemoteLeasesExpired counts worker leases that expired — each one a
	// dead TCP peer turned into KillConsumer, whose chunks the rescue
	// path reclaims.
	RemoteLeasesExpired int64
	// RemoteReconnects counts producer reconnects observed by a shard: a
	// known dedup token arriving on a new connection.
	RemoteReconnects int64
	// RemoteDedupHits counts PUT_BATCH retries the dedup window answered
	// from history — each one a double-publish prevented.
	RemoteDedupHits int64
	// RemoteHandoffTasks counts tasks re-published to a peer shard by
	// the quiesce drain.
	RemoteHandoffTasks int64

	// NetchaosFaults counts injected network faults by action kind
	// (delay, reset, blackhole, drip). Nil outside chaos harnesses; the
	// exposition omits the family when nil.
	NetchaosFaults map[string]int64

	// AdmissionAdmits counts tasks admitted by an admission-control
	// layer, keyed by priority class ("high", "low"). Nil for pools
	// without one — only salsa.Admission.TelemetrySnapshot fills the
	// Admission* fields, and the exposition omits the families when nil.
	AdmissionAdmits map[string]int64
	// AdmissionSheds counts tasks rejected by admission control, keyed
	// "class/reason" (reason ∈ rate, saturated, queue_timeout).
	AdmissionSheds map[string]int64
	// AdmissionQueueAdmits counts queue-policy inserts that waited at
	// least one backoff pause before fully admitting.
	AdmissionQueueAdmits int64

	// LoadgenOffered counts arrivals offered by the scenario load
	// generator (internal/loadgen), keyed by priority class. Nil outside
	// loadgen runs; the exposition omits the families when nil.
	LoadgenOffered map[string]int64
	// LoadgenLateArrivals counts arrivals the open-loop driver fired
	// more than its lateness tolerance behind the seeded schedule — the
	// generator-fidelity signal (a saturated host, not the pool).
	LoadgenLateArrivals int64
}

// SnapshotSource supplies snapshots to the exposition handlers. salsa.Pool
// implements it; commands wrap it to point at whichever pool is live.
type SnapshotSource interface {
	TelemetrySnapshot() Snapshot
}

// sum totals a per-thread counter slice.
func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// promEscape escapes a label value per the Prometheus text format.
func promEscape(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(s)
}

func writeCounter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

func writeGauge(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// WritePrometheus renders s in the Prometheus text exposition format
// (version 0.0.4), stdlib only.
func WritePrometheus(w io.Writer, s Snapshot) {
	alg := promEscape(s.Algorithm)
	fmt.Fprintf(w, "# HELP salsa_info Pool configuration.\n# TYPE salsa_info gauge\n")
	fmt.Fprintf(w, "salsa_info{algorithm=%q,producers=\"%d\",consumers=\"%d\"} 1\n",
		alg, s.Producers, s.Consumers)

	o := s.Ops
	writeCounter(w, "salsa_puts_total", "Completed Put operations.", o.Puts)
	writeCounter(w, "salsa_gets_total", "Completed Get operations that returned a task.", o.Gets)
	writeCounter(w, "salsa_gets_empty_total", "Get operations that returned empty after a successful checkEmpty.", o.GetsEmpty)
	writeCounter(w, "salsa_cas_total", "CAS attempts issued in produce/consume/steal paths.", o.CAS)
	writeCounter(w, "salsa_cas_failed_total", "Failed CAS attempts (contention signal).", o.FailedCAS)
	writeCounter(w, "salsa_fastpath_total", "Retrievals completed on the CAS-free owner fast path.", o.FastPath)
	writeCounter(w, "salsa_slowpath_total", "Retrievals that needed the stolen-chunk CAS path.", o.SlowPath)
	writeCounter(w, "salsa_steals_total", "Successful steals.", o.Steals)
	writeCounter(w, "salsa_steal_attempts_total", "Steal invocations.", o.StealAttempts)
	writeCounter(w, "salsa_chunk_allocs_total", "Fresh chunk allocations.", o.ChunkAllocs)
	writeCounter(w, "salsa_chunk_reuses_total", "Chunks recycled through a chunk pool or rebuilt from the spare tier.", o.ChunkReuses)
	writeCounter(w, "salsa_produce_full_total", "produce() failures due to an exhausted chunk pool.", o.ProduceFull)
	writeCounter(w, "salsa_force_puts_total", "produceForce calls (the policy's last resort; counts calls, not allocations).", o.ForcePuts)
	writeCounter(w, "salsa_force_expands_total", "Chunk allocations that only force made possible (pool had no spare).", o.ForceExpands)
	writeCounter(w, "salsa_put_batches_total", "PutBatch and TryPutBatch calls.", o.PutBatches)
	writeCounter(w, "salsa_get_batches_total", "GetBatch/TryGetBatch calls.", o.GetBatches)
	writeCounter(w, "salsa_batch_fastpath_total", "Tasks retrieved on the amortized batch fast path (subset of salsa_fastpath_total).", o.BatchFastPath)
	writeCounter(w, "salsa_remote_transfers_total", "Task transfers crossing NUMA nodes.", o.RemoteTransfers)
	writeCounter(w, "salsa_local_transfers_total", "Same-node task transfers.", o.LocalTransfers)
	writeCounter(w, "salsa_backoff_parks_total",
		"Blocking retrievals that escalated past spin/yield into a timed sleep (consumers outrunning producers).",
		o.Parks)
	writeCounter(w, "salsa_saturated_puts_total",
		"TryPut/TryPutBatch rejections: every pool on the access list refused the insert.",
		o.SaturatedPuts)
	writeCounter(w, "salsa_task_panics_total",
		"Executor tasks that panicked (recovered; the worker survived).",
		s.TaskPanics)

	// Elastic membership: the epoch/live gauges come from the framework
	// (meaningful even without the Collector); the join/retire/crash
	// breakdown is Collector-backed.
	writeGauge(w, "salsa_membership_epoch",
		"Membership epoch: 0 at construction, +1 per consumer join/retire/kill.",
		int64(s.MembershipEpoch))
	writeGauge(w, "salsa_live_consumers", "Consumers that have not departed.",
		int64(s.LiveConsumers))
	writeGauge(w, "salsa_orphaned_tasks",
		"Tasks still visible in abandoned pools, awaiting steal-reclamation.",
		s.OrphanedTasks)
	writeCounter(w, "salsa_reclaimed_chunks_total",
		"Chunks stolen out of abandoned pools by surviving consumers.", o.ReclaimedChunks)
	writeCounter(w, "salsa_rescue_steals_total",
		"Steals that reclaimed a chunk from a departed owner via the rescue path (DESIGN.md section 9).",
		o.RescueSteals)
	writeCounter(w, "salsa_rescue_rescans_total",
		"Post-CAS announce re-scans that advanced a rescued chunk's index past the stale node's (a departed owner's in-flight announce honored).",
		o.RescueRescans)
	writeCounter(w, "salsa_spares_drained_total",
		"Spare chunks drained from departing pools into survivors.", s.SparesDrained)
	writeCounter(w, "salsa_member_joins_total", "Consumers added at runtime.", s.MemberJoins)
	writeCounter(w, "salsa_member_retires_total", "Consumers retired gracefully.", s.MemberRetires)
	writeCounter(w, "salsa_member_crashes_total", "Consumers declared crashed.", s.MemberCrashes)

	if s.StealMatrix != nil {
		node := func(c int) int {
			if c >= 0 && c < len(s.ConsumerNodes) {
				return s.ConsumerNodes[c]
			}
			return UnattributedVictim
		}
		fmt.Fprintf(w, "# HELP salsa_steal_matrix_total Successful steals by thief from victim.\n")
		fmt.Fprintf(w, "# TYPE salsa_steal_matrix_total counter\n")
		for t, row := range s.StealMatrix {
			for v, n := range row {
				if n == 0 {
					continue
				}
				cross := node(t) != node(v) && node(t) != UnattributedVictim && node(v) != UnattributedVictim
				fmt.Fprintf(w, "salsa_steal_matrix_total{thief=\"%d\",victim=\"%d\",cross_node=\"%t\"} %d\n",
					t, v, cross, n)
			}
		}
		writeCounter(w, "salsa_steal_unattributed_total",
			"Steals from shared-structure substrates with no single victim.",
			sum(s.UnattributedSteals))
		writeCounter(w, "salsa_steal_tasks_moved_total", "Tasks carried by successful steals.",
			sum(s.StealTasksMoved))
		writeCounter(w, "salsa_steals_cross_node_total", "Steals that crossed a NUMA node boundary.",
			s.CrossNodeSteals)
		writeCounter(w, "salsa_steals_same_node_total", "Steals that stayed on one NUMA node.",
			s.SameNodeSteals)

		fmt.Fprintf(w, "# HELP salsa_chunk_transfers_in_total Chunks transferred into a consumer's pool.\n")
		fmt.Fprintf(w, "# TYPE salsa_chunk_transfers_in_total counter\n")
		for c, n := range s.ChunkTransfersIn {
			fmt.Fprintf(w, "salsa_chunk_transfers_in_total{consumer=\"%d\"} %d\n", c, n)
		}
		fmt.Fprintf(w, "# HELP salsa_checkempty_rounds_total Emptiness-protocol rounds run per consumer.\n")
		fmt.Fprintf(w, "# TYPE salsa_checkempty_rounds_total counter\n")
		for c, n := range s.CheckEmptyRounds {
			fmt.Fprintf(w, "salsa_checkempty_rounds_total{consumer=\"%d\"} %d\n", c, n)
		}
		fmt.Fprintf(w, "# HELP salsa_checkempty_aborts_total Emptiness-protocol rounds that failed per consumer.\n")
		fmt.Fprintf(w, "# TYPE salsa_checkempty_aborts_total counter\n")
		for c, n := range s.CheckEmptyAborts {
			fmt.Fprintf(w, "salsa_checkempty_aborts_total{consumer=\"%d\"} %d\n", c, n)
		}
		fmt.Fprintf(w, "# HELP salsa_produce_fails_total Balancing rejections per producer.\n")
		fmt.Fprintf(w, "# TYPE salsa_produce_fails_total counter\n")
		for p, n := range s.ProduceFails {
			fmt.Fprintf(w, "salsa_produce_fails_total{producer=\"%d\"} %d\n", p, n)
		}
	}

	// Wire-layer counters, present only for shard servers (internal/
	// remote): frame census by kind, saturation refusals, and expired
	// worker leases.
	if s.RemoteFrames != nil {
		fmt.Fprintf(w, "# HELP salsa_remote_frames_total Wire frames handled by the shard server, by frame kind.\n")
		fmt.Fprintf(w, "# TYPE salsa_remote_frames_total counter\n")
		kinds := make([]string, 0, len(s.RemoteFrames))
		for k := range s.RemoteFrames {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(w, "salsa_remote_frames_total{kind=%q} %d\n", promEscape(k), s.RemoteFrames[k])
		}
		writeCounter(w, "salsa_remote_saturated_total",
			"PUT_BATCH requests refused with a wire-level SATURATED backpressure frame.",
			s.RemoteSaturated)
		writeCounter(w, "salsa_remote_worker_leases_expired_total",
			"Worker leases that expired: dead TCP peers turned into KillConsumer.",
			s.RemoteLeasesExpired)
		writeCounter(w, "salsa_remote_reconnects_total",
			"Producer reconnects observed by the shard (a known dedup token on a new connection).",
			s.RemoteReconnects)
		writeCounter(w, "salsa_remote_dedup_hits_total",
			"PUT_BATCH retries answered from the idempotency window instead of re-inserting.",
			s.RemoteDedupHits)
		writeCounter(w, "salsa_remote_handoff_tasks_total",
			"Tasks re-published to a peer shard by a quiesce drain.",
			s.RemoteHandoffTasks)
	}

	// Admission-control decision census, present only behind a
	// salsa.Admission layer: admits by class, sheds by class and reason,
	// and the queue-wait tally.
	if s.AdmissionAdmits != nil {
		fmt.Fprintf(w, "# HELP salsa_admission_admits_total Tasks admitted by admission control, by priority class.\n")
		fmt.Fprintf(w, "# TYPE salsa_admission_admits_total counter\n")
		classes := make([]string, 0, len(s.AdmissionAdmits))
		for k := range s.AdmissionAdmits {
			classes = append(classes, k)
		}
		sort.Strings(classes)
		for _, k := range classes {
			fmt.Fprintf(w, "salsa_admission_admits_total{class=%q} %d\n", promEscape(k), s.AdmissionAdmits[k])
		}
		fmt.Fprintf(w, "# HELP salsa_admission_sheds_total Tasks rejected by admission control, by priority class and reason.\n")
		fmt.Fprintf(w, "# TYPE salsa_admission_sheds_total counter\n")
		keys := make([]string, 0, len(s.AdmissionSheds))
		for k := range s.AdmissionSheds {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			class, reason := k, ""
			if i := strings.IndexByte(k, '/'); i >= 0 {
				class, reason = k[:i], k[i+1:]
			}
			fmt.Fprintf(w, "salsa_admission_sheds_total{class=%q,reason=%q} %d\n",
				promEscape(class), promEscape(reason), s.AdmissionSheds[k])
		}
		writeCounter(w, "salsa_admission_queue_admits_total",
			"Queue-policy inserts that waited at least one backoff pause before admitting.",
			s.AdmissionQueueAdmits)
	}

	// Load-generator census, present only inside internal/loadgen runs.
	if s.LoadgenOffered != nil {
		fmt.Fprintf(w, "# HELP salsa_loadgen_offered_total Arrivals offered by the scenario load generator, by priority class.\n")
		fmt.Fprintf(w, "# TYPE salsa_loadgen_offered_total counter\n")
		classes := make([]string, 0, len(s.LoadgenOffered))
		for k := range s.LoadgenOffered {
			classes = append(classes, k)
		}
		sort.Strings(classes)
		for _, k := range classes {
			fmt.Fprintf(w, "salsa_loadgen_offered_total{class=%q} %d\n", promEscape(k), s.LoadgenOffered[k])
		}
		writeCounter(w, "salsa_loadgen_late_arrivals_total",
			"Arrivals the open-loop driver fired behind the seeded schedule (generator fidelity, not pool health).",
			s.LoadgenLateArrivals)
	}

	if s.NetchaosFaults != nil {
		fmt.Fprintf(w, "# HELP salsa_netchaos_faults_total Injected network faults, by action kind.\n")
		fmt.Fprintf(w, "# TYPE salsa_netchaos_faults_total counter\n")
		kinds := make([]string, 0, len(s.NetchaosFaults))
		for k := range s.NetchaosFaults {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(w, "salsa_netchaos_faults_total{kind=%q} %d\n", promEscape(k), s.NetchaosFaults[k])
		}
	}

	if s.ChunkSpares != nil {
		fmt.Fprintf(w, "# HELP salsa_chunk_pool_spares Spare chunks in each consumer's chunk pool (balancing signal).\n")
		fmt.Fprintf(w, "# TYPE salsa_chunk_pool_spares gauge\n")
		for c, n := range s.ChunkSpares {
			fmt.Fprintf(w, "salsa_chunk_pool_spares{consumer=\"%d\"} %d\n", c, n)
		}
	}

	writeHistogram(w, "salsa_put_latency_seconds", "Put latency.", o.PutLatency)
	writeHistogram(w, "salsa_get_latency_seconds", "Get latency.", o.GetLatency)
	writeHistogram(w, "salsa_steal_latency_seconds", "Successful steal latency.", o.StealLatency)
	writeSizeHistogram(w, "salsa_put_batch_size_tasks", "Tasks offered per PutBatch/TryPutBatch call.", o.PutBatchSize)
	writeSizeHistogram(w, "salsa_get_batch_size_tasks", "Tasks returned per non-empty GetBatch/TryGetBatch call.", o.GetBatchSize)
}

// writeSizeHistogram renders a histogram whose observations are counts of
// tasks (not durations): bucket bounds stay in raw units instead of being
// scaled to seconds.
func writeSizeHistogram(w io.Writer, name, help string, h stats.HistogramSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum int64
	lo := 0
	for lo < stats.HistogramBuckets-1 && h.Buckets[lo] == 0 && h.Buckets[lo+1] == 0 {
		lo++
	}
	for i := lo; i < stats.HistogramBuckets; i++ {
		cum += h.Buckets[i]
		if i == stats.HistogramBuckets-1 {
			break
		}
		if h.Buckets[i] == 0 && cum == h.Count {
			continue
		}
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, stats.HistogramBucketBoundNs(i), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(w, "%s_sum %d\n", name, h.SumNs)
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
}

// writeHistogram renders one latency histogram as a Prometheus histogram
// plus explicit p50/p99/p999 gauges (power-of-two bucket bounds make the
// quantiles a ≤2× upper bound; see stats.HistogramSnapshot.Quantile).
func writeHistogram(w io.Writer, name, help string, h stats.HistogramSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum int64
	lo := 0 // skip the empty low tail, keeping one zero bucket for shape
	for lo < stats.HistogramBuckets-1 && h.Buckets[lo] == 0 && h.Buckets[lo+1] == 0 {
		lo++
	}
	for i := lo; i < stats.HistogramBuckets; i++ {
		cum += h.Buckets[i]
		if i == stats.HistogramBuckets-1 {
			break // rendered as +Inf below
		}
		if h.Buckets[i] == 0 && cum == h.Count {
			continue // trim the empty high tail
		}
		le := float64(stats.HistogramBucketBoundNs(i)) / 1e9
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fmt.Sprintf("%g", le), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.SumNs)/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)

	base := strings.TrimSuffix(name, "_seconds")
	fmt.Fprintf(w, "# HELP %s_p50_seconds Median %s\n# TYPE %s_p50_seconds gauge\n", base, help, base)
	fmt.Fprintf(w, "%s_p50_seconds %g\n", base, h.P50().Seconds())
	fmt.Fprintf(w, "# HELP %s_p99_seconds 99th percentile %s\n# TYPE %s_p99_seconds gauge\n", base, help, base)
	fmt.Fprintf(w, "%s_p99_seconds %g\n", base, h.P99().Seconds())
	fmt.Fprintf(w, "# HELP %s_p999_seconds 99.9th percentile %s\n# TYPE %s_p999_seconds gauge\n", base, help, base)
	fmt.Fprintf(w, "%s_p999_seconds %g\n", base, h.P999().Seconds())
}

// jsonSnapshot augments Snapshot with derived fields for the JSON view.
type jsonSnapshot struct {
	Snapshot
	PutP50Ns, PutP99Ns     int64
	GetP50Ns, GetP99Ns     int64
	StealP50Ns, StealP99Ns int64
}

// WriteJSON renders s as indented JSON with derived percentile fields.
func WriteJSON(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonSnapshot{
		Snapshot: s,
		PutP50Ns: int64(s.Ops.PutLatency.P50()), PutP99Ns: int64(s.Ops.PutLatency.P99()),
		GetP50Ns: int64(s.Ops.GetLatency.P50()), GetP99Ns: int64(s.Ops.GetLatency.P99()),
		StealP50Ns: int64(s.Ops.StealLatency.P50()), StealP99Ns: int64(s.Ops.StealLatency.P99()),
	})
}

// HandlerOptions configures Handler.
type HandlerOptions struct {
	// PProf mounts net/http/pprof under /debug/pprof/.
	PProf bool
}

// Handler returns an http.Handler exposing src:
//
//	/metrics       Prometheus text format
//	/metrics.json  indented JSON snapshot
//	/debug/pprof/  (optional) the standard pprof handlers
func Handler(src SnapshotSource, opts HandlerOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, src.TelemetrySnapshot())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := WriteJSON(w, src.TelemetrySnapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	if opts.PProf {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Server is a running metrics endpoint; see Serve.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an HTTP server for h on addr (host:port; port 0 picks a free
// one). It returns once the listener is bound; serving continues in a
// background goroutine until Close.
func Serve(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down immediately.
func (s *Server) Close() error { return s.srv.Close() }
