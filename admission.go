package salsa

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"salsa/internal/backoff"
	"salsa/internal/telemetry"
)

// This file is the admission-control layer: a policy front end over the
// typed ErrSaturated backpressure that TryPut/TryPutBatch expose. The pool
// itself stays policy-free — it reports saturation and nothing else — while
// an Admission wrapper decides, per producer and per priority class,
// whether an insert is admitted, queued, or shed, and counts every decision
// so overload is measured instead of silently retried. See DESIGN.md §15.

// ErrShed is the sentinel matched (via errors.Is) by every admission
// rejection, whatever its reason. The concrete error is always a
// *ShedError carrying the class and reason; saturation sheds additionally
// match ErrSaturated, so callers that already handle the pool's raw
// backpressure keep working behind an admission layer.
var ErrShed = errors.New("salsa: admission control shed the task")

// ShedReason says why admission control rejected a task.
type ShedReason int

const (
	// ShedRate: the producer's token bucket was empty (or, for a
	// low-priority task, drained to the high-priority reserve floor).
	ShedRate ShedReason = iota
	// ShedSaturated: the bucket admitted the task but every reachable
	// consumer pool refused the insert — the pool's ErrSaturated,
	// converted into a measured shed instead of a silent force-expand.
	ShedSaturated
	// ShedQueueTimeout: the queue policy waited QueueTimeout without the
	// task becoming admittable and shed it rather than block forever.
	ShedQueueTimeout

	numShedReasons
)

// String returns the reason's metric label ("rate", "saturated",
// "queue_timeout").
func (r ShedReason) String() string {
	switch r {
	case ShedRate:
		return "rate"
	case ShedSaturated:
		return "saturated"
	case ShedQueueTimeout:
		return "queue_timeout"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// ShedError is the typed rejection returned by AdmittedProducer's Put and
// PutBatch. It matches ErrShed always, and ErrSaturated exactly when the
// shed was a converted pool-saturation refusal.
type ShedError struct {
	Class  PriorityClass
	Reason ShedReason
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("salsa: admission shed (%s class, %s)", e.Class, e.Reason)
}

// Is matches ErrShed for every shed, plus ErrSaturated for saturation
// sheds, so errors.Is works with either sentinel.
func (e *ShedError) Is(target error) bool {
	if target == ErrShed {
		return true
	}
	return e.Reason == ShedSaturated && target == ErrSaturated
}

// PriorityClass labels a producer's traffic class. The admission layer
// implements priority as a reserved lane inside each producer's token
// bucket: ClassHigh may spend every token, ClassLow must leave
// AdmissionConfig.HighReserve tokens untouched, so a saturating
// low-priority flood can never starve high-priority admits.
type PriorityClass int

const (
	// ClassHigh is latency-sensitive traffic; it may draw the bucket to
	// zero, including the reserved lane.
	ClassHigh PriorityClass = iota
	// ClassLow is bulk traffic; it sheds (or queues) once the bucket
	// drains to the reserve floor.
	ClassLow

	numClasses
)

// String returns the class's metric label ("high", "low").
func (c PriorityClass) String() string {
	switch c {
	case ClassHigh:
		return "high"
	case ClassLow:
		return "low"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// AdmissionPolicy selects what an AdmittedProducer does when a task is not
// immediately admittable.
type AdmissionPolicy int

const (
	// AdmitShed rejects immediately with a *ShedError — the open-loop
	// policy: overload surfaces as measured sheds, never as added
	// producer latency.
	AdmitShed AdmissionPolicy = iota
	// AdmitQueue waits (bounded spin→yield→sleep backoff) until the task
	// is admitted or QueueTimeout elapses, then sheds with
	// ShedQueueTimeout — the closed-loop policy: overload surfaces as
	// bounded producer-side latency.
	AdmitQueue
)

// AdmissionConfig configures NewAdmission.
type AdmissionConfig struct {
	// Rate is the sustained admission rate per producer bucket, in
	// tasks/second. Zero disables rate limiting (saturation sheds still
	// apply). Negative is invalid.
	Rate float64

	// Burst is the bucket capacity in tasks — the largest instantaneous
	// burst a fully idle producer can admit. Defaults to max(1,
	// Rate/10): a 100 ms ration. Ignored when Rate is zero.
	Burst int

	// HighReserve reserves that many tokens of each bucket for ClassHigh:
	// ClassLow admits only while more than HighReserve tokens would
	// remain. Must be < Burst. Zero means no reserved lane.
	HighReserve int

	// Policy is the not-admittable behaviour: AdmitShed (default) or
	// AdmitQueue.
	Policy AdmissionPolicy

	// QueueTimeout bounds an AdmitQueue wait; past it the task is shed
	// with ShedQueueTimeout. Defaults to 10ms. Ignored under AdmitShed.
	QueueTimeout time.Duration

	// now overrides the bucket clock (monotonic nanoseconds) in tests.
	// Production code leaves it nil.
	now func() int64
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.Rate > 0 && c.Burst == 0 {
		c.Burst = int(c.Rate/10) + 1
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 10 * time.Millisecond
	}
	return c
}

// tokenBucket is one producer's refillable admission budget. A mutex (not
// the pool's single-writer discipline) because the bucket is a
// control-plane object shared by that producer's class handles — and the
// invariant that concurrent callers can never mint extra tokens must hold
// regardless of who calls: the refill is computed under the lock from the
// shared clock, so two racing takes can never both credit the same
// elapsed time.
type tokenBucket struct {
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64
	reserve float64 // floor ClassLow may not draw below
	tokens  float64
	last    int64 // nanos of the last refill
	now     func() int64
}

func newTokenBucket(cfg AdmissionConfig) *tokenBucket {
	now := cfg.now
	if now == nil {
		now = func() int64 { return time.Now().UnixNano() }
	}
	b := &tokenBucket{
		rate:    cfg.Rate,
		burst:   float64(cfg.Burst),
		reserve: float64(cfg.HighReserve),
		now:     now,
	}
	b.tokens = b.burst // start full: an idle producer owns its burst
	b.last = now()
	return b
}

// take attempts to spend n tokens for the given class.
func (b *tokenBucket) take(class PriorityClass, n float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.now()
	if dt := t - b.last; dt > 0 {
		b.tokens += b.rate * float64(dt) / 1e9
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = t
	floor := 0.0
	if class != ClassHigh {
		floor = b.reserve
	}
	if b.tokens-n < floor {
		return false
	}
	b.tokens -= n
	return true
}

// refund returns n unspent tokens (a partially refused batch), never
// exceeding the burst cap.
func (b *tokenBucket) refund(n float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += n
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// AdmissionCounters is a snapshot of the layer's decision census, by
// class (and, for sheds, by reason).
type AdmissionCounters struct {
	// Admits[class] counts tasks admitted into the pool.
	Admits map[string]int64
	// Sheds[class][reason] counts rejected tasks.
	Sheds map[string]map[string]int64
	// QueueAdmits counts AdmitQueue Put/PutBatch calls that waited at
	// least one backoff pause before fully admitting.
	QueueAdmits int64
}

// admCell is one (producer, class) row of counters. Atomic adds — the
// admission path already serializes on the producer's bucket mutex, but
// Counters readers race the writers, and both class handles of a producer
// are allowed to live on one goroutine without further coordination.
// Padded so producers' cells never false-share.
type admCell struct {
	admits      atomic.Int64
	sheds       [numShedReasons]atomic.Int64
	queueAdmits atomic.Int64
	_           [64]byte
}

// Admission is the admission-control layer for one pool. Construct with
// NewAdmission, then hand each producing goroutine an AdmittedProducer per
// (producer id, class).
type Admission[T any] struct {
	pool    *Pool[T]
	cfg     AdmissionConfig
	buckets []*tokenBucket // nil when Rate == 0
	cells   []*[numClasses]admCell
}

// NewAdmission wraps pool with an admission-control layer: one token
// bucket per producer id, a ClassHigh reserved lane of HighReserve tokens,
// and the configured shed-vs-queue policy. The pool remains usable
// directly — admission applies only to inserts that go through
// AdmittedProducer handles.
func NewAdmission[T any](pool *Pool[T], cfg AdmissionConfig) (*Admission[T], error) {
	cfg = cfg.withDefaults()
	if cfg.Rate < 0 {
		return nil, fmt.Errorf("salsa: admission Rate must be >= 0 (got %g)", cfg.Rate)
	}
	if cfg.Burst < 0 || cfg.HighReserve < 0 {
		return nil, fmt.Errorf("salsa: Burst and HighReserve must be >= 0")
	}
	if cfg.Rate > 0 && cfg.HighReserve >= cfg.Burst {
		return nil, fmt.Errorf("salsa: HighReserve %d must be below Burst %d (the low class could never admit)",
			cfg.HighReserve, cfg.Burst)
	}
	a := &Admission[T]{
		pool:  pool,
		cfg:   cfg,
		cells: make([]*[numClasses]admCell, pool.NumProducers()),
	}
	for i := range a.cells {
		a.cells[i] = new([numClasses]admCell)
	}
	if cfg.Rate > 0 {
		a.buckets = make([]*tokenBucket, pool.NumProducers())
		for i := range a.buckets {
			a.buckets[i] = newTokenBucket(cfg)
		}
	}
	return a, nil
}

// Pool returns the wrapped pool.
func (a *Admission[T]) Pool() *Pool[T] { return a.pool }

// Producer returns an admitted-producer handle for producer id i in the
// given class. Both class handles of one id share the id's token bucket
// (the reserved-lane design) and the underlying Producer handle, so they
// must be driven by the same goroutine.
func (a *Admission[T]) Producer(i int, class PriorityClass) *AdmittedProducer[T] {
	if class < 0 || class >= numClasses {
		panic(fmt.Sprintf("salsa: unknown priority class %d", class))
	}
	return &AdmittedProducer[T]{
		adm:   a,
		p:     a.pool.Producer(i),
		cell:  &a.cells[i][class],
		class: class,
	}
}

// Counters snapshots the admission census. Safe to call concurrently with
// admissions; like the pool's own counters, a reader may lag in-flight
// increments but never sees torn values.
func (a *Admission[T]) Counters() AdmissionCounters {
	c := AdmissionCounters{
		Admits: map[string]int64{},
		Sheds:  map[string]map[string]int64{},
	}
	for class := PriorityClass(0); class < numClasses; class++ {
		c.Admits[class.String()] = 0
	}
	for _, classes := range a.cells {
		for ci := range classes {
			cell := &classes[ci]
			class := PriorityClass(ci).String()
			c.Admits[class] += cell.admits.Load()
			c.QueueAdmits += cell.queueAdmits.Load()
			for ri := range cell.sheds {
				n := cell.sheds[ri].Load()
				if n == 0 {
					continue
				}
				m := c.Sheds[class]
				if m == nil {
					m = map[string]int64{}
					c.Sheds[class] = m
				}
				m[ShedReason(ri).String()] += n
			}
		}
	}
	return c
}

// TelemetrySnapshot implements telemetry.SnapshotSource: the wrapped
// pool's snapshot plus the admission decision census, so /metrics behind
// an admission layer carries the salsa_admission_* families.
func (a *Admission[T]) TelemetrySnapshot() TelemetrySnapshot {
	s := a.pool.TelemetrySnapshot()
	c := a.Counters()
	s.AdmissionAdmits = c.Admits
	s.AdmissionSheds = map[string]int64{}
	for class, reasons := range c.Sheds {
		for reason, n := range reasons {
			s.AdmissionSheds[class+"/"+reason] = n
		}
	}
	s.AdmissionQueueAdmits = c.QueueAdmits
	return s
}

// MetricsHandler returns an http.Handler exposing the wrapped pool's
// telemetry with the admission families included (Prometheus text at
// /metrics, JSON at /metrics.json).
func (a *Admission[T]) MetricsHandler() http.Handler {
	return telemetry.Handler(a, telemetry.HandlerOptions{})
}

// AdmittedProducer inserts tasks through the admission layer. Single
// goroutine per underlying producer id, like a Producer handle.
type AdmittedProducer[T any] struct {
	adm   *Admission[T]
	p     *Producer[T]
	cell  *admCell
	class PriorityClass
	one   [1]*T // Put's batch of one; the handle is single-goroutine
}

// Class returns the handle's priority class.
func (ap *AdmittedProducer[T]) Class() PriorityClass { return ap.class }

// ID returns the underlying producer id.
func (ap *AdmittedProducer[T]) ID() int { return ap.p.ID() }

// shedN records n rejected tasks and builds the typed error.
func (ap *AdmittedProducer[T]) shedN(reason ShedReason, n int64) error {
	ap.cell.sheds[reason].Add(n)
	return &ShedError{Class: ap.class, Reason: reason}
}

// Put inserts t through admission control. On success it returns nil; on
// rejection it returns a *ShedError (matching ErrShed, and ErrSaturated
// for saturation sheds) and the caller keeps ownership of t. Under
// AdmitQueue the call may block up to QueueTimeout.
func (ap *AdmittedProducer[T]) Put(t *T) error {
	ap.one[0] = t
	_, err := ap.putBatch(ap.one[:])
	ap.one[0] = nil
	return err
}

// PutBatch inserts ts through admission control and returns how many
// leading tasks were admitted. The bucket is charged for the whole batch
// or not at all; a pool-saturation refusal of a suffix refunds its tokens
// and sheds the suffix. err is a *ShedError exactly when n < len(ts).
func (ap *AdmittedProducer[T]) PutBatch(ts []*T) (n int, err error) {
	return ap.putBatch(ts)
}

func (ap *AdmittedProducer[T]) putBatch(ts []*T) (int, error) {
	if len(ts) == 0 {
		return 0, nil
	}
	var bk *tokenBucket
	if ap.adm.buckets != nil {
		bk = ap.adm.buckets[ap.p.ID()]
	}

	if ap.adm.cfg.Policy == AdmitShed {
		if bk != nil && !bk.take(ap.class, float64(len(ts))) {
			return 0, ap.shedN(ShedRate, int64(len(ts)))
		}
		n, perr := ap.p.TryPutBatch(ts)
		if n > 0 {
			ap.cell.admits.Add(int64(n))
		}
		if perr != nil {
			if bk != nil {
				bk.refund(float64(len(ts) - n))
			}
			return n, ap.shedN(ShedSaturated, int64(len(ts)-n))
		}
		return n, nil
	}

	// AdmitQueue: wait for tokens and pool room together, bounded by
	// QueueTimeout — the same spin→yield→sleep escalation as every
	// blocking path in the repo.
	deadline := time.Now().Add(ap.adm.cfg.QueueTimeout)
	var bo backoff.Backoff
	waited := false
	charged := bk == nil // no bucket = nothing to charge
	done := 0
	for {
		if !charged {
			charged = bk.take(ap.class, float64(len(ts)-done))
		}
		if charged {
			n, perr := ap.p.TryPutBatch(ts[done:])
			if n > 0 {
				ap.cell.admits.Add(int64(n))
				done += n
			}
			if perr == nil {
				if waited {
					ap.cell.queueAdmits.Add(1)
				}
				return len(ts), nil
			}
			// Saturated: the accepted prefix stays admitted; the
			// suffix's tokens stay spent (they will be retried against
			// the pool, not the bucket) until the deadline refund.
		}
		if time.Now().After(deadline) {
			remaining := len(ts) - done
			if charged && bk != nil {
				bk.refund(float64(remaining))
			}
			return done, ap.shedN(ShedQueueTimeout, int64(remaining))
		}
		waited = true
		bo.Pause()
	}
}
