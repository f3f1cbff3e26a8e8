package remote

import (
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"salsa"
	"salsa/internal/backoff"
)

// dialTimeout is the default connection/handshake timeout. Every dial
// runs its HELLO handshake under this deadline, so a blackholed accept
// (TCP handshake completes, nothing ever answers) fails the dial instead
// of hanging the client forever.
const dialTimeout = 5 * time.Second

// roundTrip sends one request frame and reads the response. A KindErr
// response is materialized as its mapped Go error (see ErrMsg.Error);
// the returned Frame's Kind stays KindErr so callers can tell a typed
// server answer (the request's outcome is KNOWN) from a transport error
// (outcome unknown — the retry/idempotency machinery's distinction).
func roundTrip(fc *framedConn, k Kind, payload []byte) (Frame, error) {
	fc.begin(k)
	fc.wbuf = append(fc.wbuf, payload...)
	return exchange(fc)
}

// exchange is roundTrip for a request the caller staged in fc's write
// buffer (fc.begin, then append the payload).
func exchange(fc *framedConn) (Frame, error) {
	if err := fc.flush(); err != nil {
		return Frame{}, err
	}
	f, err := fc.read()
	if err != nil {
		return Frame{}, err
	}
	if f.Kind == KindErr {
		e, derr := DecodeErrMsg(f.Payload)
		if derr != nil {
			return Frame{}, derr
		}
		return f, e.Error()
	}
	return f, nil
}

// dial connects to a shard and completes the HELLO for role under the
// dial deadline. The deadline is cleared before the conn is returned.
func dial(addr string, role Role, token string, maxPayload int) (*framedConn, error) {
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("remote: dial %s: %w", addr, err)
	}
	c.SetDeadline(time.Now().Add(dialTimeout))
	fc := newFramedConn(c, maxPayload)
	if err := fc.write(KindHello, AppendHello(nil, Hello{Role: role, Token: []byte(token)})); err != nil {
		c.Close()
		return nil, err
	}
	return fc, nil
}

// fatalRefusal reports a typed server refusal that retrying cannot fix:
// bad credentials, a protocol break, or a capacity/draining refusal —
// the caller should fail over or give up, not redial the same shard.
func fatalRefusal(err error) bool {
	return errors.Is(err, ErrUnauthorized) || errors.Is(err, ErrProtocol) ||
		errors.Is(err, ErrBadFrame) || errors.Is(err, ErrCapacity) ||
		errors.Is(err, ErrDraining)
}

// Policy orders the shards a producer tries for one run. Implementations
// must be deterministic given (home, n): the scheduler consults the
// policy once per insertion attempt.
type Policy interface {
	// Order appends to dst the shard indices to try, most preferred
	// first, and returns the extended slice. home is the producer's home
	// shard, n the shard count.
	Order(home, n int, dst []int) []int
}

// HomeFirst is the default routing policy: the home shard, then the rest
// in ring order. The home shard keeps a producer's runs co-located (the
// localized work-stealing argument: steals and their cache misses stay
// rare when each producer's work concentrates near its consumers), and
// the ring spill bounds how far a run travels when the home refuses it.
type HomeFirst struct{}

// Order implements Policy.
func (HomeFirst) Order(home, n int, dst []int) []int {
	for i := 0; i < n; i++ {
		dst = append(dst, (home+i)%n)
	}
	return dst
}

// ProducerOptions configures DialProducer.
type ProducerOptions struct {
	// Home is the index into the shard address list of this producer's
	// home shard. Default 0.
	Home int
	// Policy orders shards per insertion attempt. Default HomeFirst.
	Policy Policy
	// MaxPayload bounds frame payloads. Default DefaultMaxPayload.
	MaxPayload int
	// Token is the shard auth token (satellite of the cluster fault
	// work: HELLO carries it, the shard compares constant-time).
	Token string
	// OpTimeout, when positive, bounds each wire round trip. Zero means
	// no deadline (the PR-8 behavior): a round trip blocks until the
	// server answers or the connection dies.
	OpTimeout time.Duration
	// Retries is how many times one insertion attempt survives a
	// transport error on the same shard (reconnect + re-send under the
	// SAME sequence number, so the shard's dedup window collapses the
	// ambiguity). 0 means the default of 2; negative means no retries
	// (a single attempt per shard per pass).
	Retries int
	// DialRetries bounds extra attempts per shard during DialProducer
	// itself. Default 0: a dead shard fails the dial, as before.
	DialRetries int
	// BackoffSeed seeds the jittered reconnect/re-probe backoff so a
	// chaos run replays its retry timeline. 0 derives one from the
	// producer token.
	BackoffSeed uint64
}

// shardState is one shard's connection plus its failover state.
type shardState struct {
	addr string
	fc   *framedConn
	// down marks a demoted shard: dialing or speaking to it failed.
	// Demoted shards are skipped by the router until probeAt, then
	// re-probed — a blackholed shard costs one timed-out probe per
	// backoff step instead of stalling every insert.
	down    bool
	probeAt time.Time
	bo      backoff.Expo
	// everUp distinguishes a reconnect (counted) from the first dial.
	everUp bool
}

// Producer is the scheduler-side insertion router: one wire connection
// per shard, a routing policy, spill-on-SATURATED, and failover with
// idempotent retry. Single-goroutine, like the in-process producer
// handle it fronts.
type Producer struct {
	shards []*shardState
	home   int
	policy Policy
	order  []int
	enc    []byte

	o ProducerOptions

	// token+seq are the idempotency identity carried by every
	// PUT_BATCH: the shard's dedup window replays the original ACK if a
	// retry re-sends a committed sequence number.
	token uint64
	seq   uint64

	// pend is the producer's unresolved insertion, if any (enc == nil
	// means none): a PUT_BATCH whose retry budget ran out after at least
	// one complete frame went out, so its outcome on shard si is
	// unknown. Until it resolves — the IDENTICAL bytes re-sent to the
	// SAME shard and answered, where the dedup window replays the ACK
	// if the lost frame had committed — its tasks must not be offered
	// anywhere else: re-routing them under a fresh sequence number is
	// exactly the silent double-insert the window exists to prevent.
	pend struct {
		si  int    // shard index the frame is pinned to
		seq uint64 // sequence number the frame carries
		n   int    // task count in the frame
		enc []byte // the exact encoded frame; nil: nothing pending
	}

	reconnects int64

	// retryAfter is the most recent backpressure hint, surfaced after a
	// fully saturated TryProduce for Produce's pacing.
	retryAfter time.Duration
}

// newPutToken draws a random nonzero idempotency token.
func newPutToken() uint64 {
	var b [8]byte
	for {
		cryptorand.Read(b[:])
		if v := binary.BigEndian.Uint64(b[:]); v != 0 {
			return v
		}
	}
}

// DialProducer connects to every shard in addrs and leases a producer
// lane on each. Transport failures retry up to DialRetries per shard;
// typed refusals (unauthorized, capacity, draining) fail immediately.
func DialProducer(addrs []string, o ProducerOptions) (*Producer, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("remote: no shard addresses")
	}
	if o.Policy == nil {
		o.Policy = HomeFirst{}
	}
	if o.Home < 0 || o.Home >= len(addrs) {
		o.Home = 0
	}
	if o.Retries == 0 {
		o.Retries = 2
	} else if o.Retries < 0 {
		o.Retries = 0 // "no retries": exactly one attempt per shard
	}
	p := &Producer{home: o.Home, policy: o.Policy, o: o, token: newPutToken()}
	seed := o.BackoffSeed
	if seed == 0 {
		seed = p.token
	}
	for i, addr := range addrs {
		st := &shardState{addr: addr}
		st.bo.Seed = seed ^ uint64(i+1)*0x9e3779b97f4a7c15
		p.shards = append(p.shards, st)
		var err error
		for attempt := 0; ; attempt++ {
			err = p.connect(st)
			if err == nil || fatalRefusal(err) || attempt >= o.DialRetries {
				break
			}
			time.Sleep(st.bo.Next())
		}
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("remote: %s: lane lease: %w", addr, err)
		}
	}
	return p, nil
}

// connect dials the shard and completes the lane-lease handshake. On
// success the connection carries no deadline (per-op deadlines are set
// by the caller when OpTimeout is configured).
func (p *Producer) connect(st *shardState) error {
	fc, err := dial(st.addr, RoleProducer, p.o.Token, p.o.MaxPayload)
	if err != nil {
		return err
	}
	// The lane lease: the server answers HELLO with ACK{A: lane id}
	// once a lane is free, or ERR (capacity, unauthorized, draining).
	f, err := fc.read()
	if err != nil {
		fc.Close()
		return err
	}
	if f.Kind == KindErr {
		e, derr := DecodeErrMsg(f.Payload)
		fc.Close()
		if derr != nil {
			return derr
		}
		return e.Error()
	}
	if f.Kind != KindAck {
		fc.Close()
		return fmt.Errorf("%w: %v to HELLO", ErrProtocol, f.Kind)
	}
	fc.c.SetDeadline(time.Time{})
	if st.everUp {
		p.reconnects++
	}
	st.everUp = true
	st.fc = fc
	return nil
}

// Reconnects returns how many times this producer re-dialed a shard
// (the client-side view of salsa_remote_reconnects_total).
func (p *Producer) Reconnects() int64 { return p.reconnects }

// demote marks a shard down and schedules its next probe.
func (p *Producer) demote(st *shardState) {
	if st.fc != nil {
		st.fc.Close()
		st.fc = nil
	}
	st.down = true
	st.probeAt = time.Now().Add(st.bo.Next())
}

// putOutcome classifies one putFrame call for the idempotency machinery.
type putOutcome int

const (
	// putAnswered: the shard answered this frame (ACK, SATURATED, or a
	// typed ERR). The outcome of THIS frame is known — an error here
	// means nothing committed for it, because every refusal on the PUT
	// path precedes the insert and the dedup check runs before the
	// draining fence, so a committed (token, seq) always replays its
	// ACK instead of a refusal.
	putAnswered putOutcome = iota
	// putNotSent: every attempt failed before a complete frame was
	// handed to the transport (dial and write errors only — a write
	// error means the frame never fully left, and the shard discards
	// incomplete frames). This frame cannot have committed.
	putNotSent
	// putUnknown: at least one complete frame went out but no answer
	// came back within the retry budget. The outcome is unknown.
	putUnknown
)

// putFrame sends one already-encoded PUT_BATCH, reconnecting and
// re-sending the SAME bytes across transport errors (the shard's dedup
// window makes the retry idempotent). nTasks is the task count the frame
// carries, used to bound the ACK. The outcome tells the caller whether
// the answer (or its absence) is authoritative for this frame; on
// putNotSent/putUnknown the shard has been demoted and err is the last
// transport error.
func (p *Producer) putFrame(st *shardState, enc []byte, nTasks int) (int, putOutcome, error) {
	var lastErr error
	sent := false
	unknown := func() putOutcome {
		if sent {
			return putUnknown
		}
		return putNotSent
	}
	for attempt := 0; attempt <= p.o.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(st.bo.Next())
		}
		if st.fc == nil {
			if err := p.connect(st); err != nil {
				lastErr = err
				if fatalRefusal(err) {
					p.demote(st)
					return 0, unknown(), err
				}
				continue
			}
		}
		if p.o.OpTimeout > 0 {
			st.fc.c.SetDeadline(time.Now().Add(p.o.OpTimeout))
		}
		// Write and read separately: a write error means the frame was
		// never fully handed to the transport (framedConn.write is one
		// Write call), so it cannot have committed; only a read failure
		// after a complete write leaves the outcome ambiguous.
		var f Frame
		err := st.fc.write(KindPutBatch, enc)
		if err == nil {
			sent = true
			f, err = st.fc.read()
		}
		if p.o.OpTimeout > 0 && st.fc != nil {
			st.fc.c.SetDeadline(time.Time{})
		}
		if err != nil {
			// Transport error: reconnect and re-send the same (token,
			// seq); the dedup window collapses the ambiguity.
			st.fc.Close()
			st.fc = nil
			lastErr = err
			continue
		}
		st.bo.Reset()
		st.down = false
		switch f.Kind {
		case KindErr:
			e, derr := DecodeErrMsg(f.Payload)
			if derr != nil {
				return 0, putAnswered, fmt.Errorf("%w: %v", ErrProtocol, derr)
			}
			err := e.Error()
			if errors.Is(err, ErrDraining) {
				p.demote(st)
			}
			return 0, putAnswered, err
		case KindAck:
			a, err := DecodeAck(f.Payload)
			if err != nil {
				return 0, putAnswered, fmt.Errorf("%w: %v", ErrBadFrame, err)
			}
			if a.A > uint64(nTasks) {
				return 0, putAnswered, fmt.Errorf("%w: shard accepted %d of %d", ErrBadFrame, a.A, nTasks)
			}
			return int(a.A), putAnswered, nil
		case KindSaturated:
			sat, err := DecodeSaturated(f.Payload)
			if err != nil {
				return 0, putAnswered, fmt.Errorf("%w: %v", ErrBadFrame, err)
			}
			if d := time.Duration(sat.RetryAfterMs) * time.Millisecond; d > 0 {
				p.retryAfter = d
			}
			return 0, putAnswered, salsa.ErrSaturated
		default:
			return 0, putAnswered, fmt.Errorf("%w: %v to PUT_BATCH", ErrProtocol, f.Kind)
		}
	}
	p.demote(st)
	return 0, unknown(), lastErr
}

// putShard sends one PUT_BATCH for remaining to shard si under a fresh
// sequence number. Returns the accepted count; err is salsa.ErrSaturated
// for a saturation refusal, ErrDraining for a quiescing shard, the final
// transport error when no complete frame ever went out (the batch is
// free to route elsewhere), or ErrIndeterminate when a complete frame
// went out and the retry budget died without an answer — the frame is
// then pinned as the producer's pending insert and its tasks MUST NOT be
// offered to another shard until a later pass resolves it.
func (p *Producer) putShard(si int, remaining [][]byte) (int, error) {
	st := p.shards[si]
	seq := p.seq
	p.seq++
	p.enc = AppendPutReq(p.enc[:0], PutReq{Token: p.token, Seq: seq, B: Batch{Tasks: remaining}})
	n, out, err := p.putFrame(st, p.enc, len(remaining))
	if out == putUnknown {
		p.pend.si = si
		p.pend.seq = seq
		p.pend.n = len(remaining)
		p.pend.enc = append([]byte(nil), p.enc...)
		return 0, fmt.Errorf("%w (shard %s: %w)", ErrIndeterminate, st.addr, err)
	}
	return n, err
}

// resolvePending re-offers the producer's pending insert to its shard:
// the identical encoded frame under the pending (token, seq), so the
// dedup window replays the original ACK if the lost frame had committed.
// batch must re-offer the pinned tasks as its prefix (Produce's loop
// guarantees this); a caller that re-offers different tasks has
// abandoned the pending insert — it is dropped without a resend, since
// its ambiguity was already surfaced when it was pinned.
//
// Returns the committed count of the pinned tasks and an error:
//   - nil: resolved; batch[:n] committed on the pinned shard, the rest
//     of the pinned tasks did not commit and may route anywhere.
//   - salsa.ErrSaturated / ErrDraining: resolved; nothing committed,
//     the tasks may route anywhere (the pass should continue).
//   - ErrIndeterminate (wrapped): still unresolved; terminal for the
//     pass, nothing may spill.
//   - other typed errors: terminal for the pass.
func (p *Producer) resolvePending(batch [][]byte) (int, error) {
	st := p.shards[p.pend.si]
	if len(batch) < p.pend.n {
		p.pend.enc = nil // abandoned: the caller moved on
		return 0, nil
	}
	p.enc = AppendPutReq(p.enc[:0], PutReq{Token: p.token, Seq: p.pend.seq, B: Batch{Tasks: batch[:p.pend.n]}})
	if !bytes.Equal(p.enc, p.pend.enc) {
		p.pend.enc = nil // abandoned: different tasks
		return 0, nil
	}
	if st.down && time.Now().Before(st.probeAt) {
		// Not due for a re-probe: keep the batch pinned without burning
		// a timed-out dial, and point Produce's pacing at the probe.
		p.retryAfter = time.Until(st.probeAt)
		return 0, fmt.Errorf("%w (shard %s demoted until re-probe)", ErrIndeterminate, st.addr)
	}
	n, out, err := p.putFrame(st, p.pend.enc, p.pend.n)
	if out != putAnswered {
		// This call's frames may or may not have gone out, but the
		// ORIGINAL ambiguity stands either way: only an answer from the
		// shard resolves it.
		return 0, fmt.Errorf("%w (shard %s: %w)", ErrIndeterminate, st.addr, err)
	}
	p.pend.enc = nil
	return n, err
}

// terminalPut reports an error TryProduce must surface instead of using
// as a routing signal: credential/protocol failures, and an unresolved
// pinned batch (spilling it would risk a double-insert).
func terminalPut(err error) bool {
	return errors.Is(err, ErrUnauthorized) || errors.Is(err, ErrProtocol) ||
		errors.Is(err, ErrBadFrame) || errors.Is(err, ErrIndeterminate)
}

// TryProduce inserts the run with one pass over the policy's shard
// order: each shard accepts a prefix (ACK) or refuses (SATURATED /
// draining / dead), and the remainder spills to the next shard. Demoted
// shards are skipped until their re-probe timer; a pass that skips
// everything probes anyway rather than refusing outright. Returns
// salsa.ErrSaturated (possibly wrapping the last shard failure) when
// tasks remain after the pass.
//
// A shard failure whose outcome is unknown — the retry budget died after
// a complete PUT_BATCH went out — does NOT spill: the batch is pinned to
// that shard under its original (token, seq) and the pass ends with
// ErrIndeterminate. The next TryProduce that re-offers the same tasks
// (as Produce's loop does) first re-sends the identical frame to the
// pinned shard, where the dedup window replays the ACK if the lost frame
// had committed; only a resolved not-committed outcome frees the tasks
// to route elsewhere. A caller that re-offers different tasks abandons
// the pinned batch — its outcome stays unknown, as the earlier
// ErrIndeterminate reported.
//
// To keep the API aligned with salsa.Producer.TryPutBatch, TryProduce
// reports n: the count of tasks accepted across all shards (a prefix of
// batch).
func (p *Producer) TryProduce(batch [][]byte) (n int, err error) {
	remaining := batch
	if p.pend.enc != nil && len(batch) > 0 {
		k, rerr := p.resolvePending(batch)
		remaining = remaining[k:]
		if rerr != nil {
			if terminalPut(rerr) {
				return len(batch) - len(remaining), rerr
			}
			// Saturated / draining answer to the pinned frame: resolved
			// as not-committed, the pass continues and may spill.
		}
	}
	p.order = p.policy.Order(p.home, len(p.shards), p.order[:0])
	now := time.Now()
	skipProbes := true
	allSkipped := true
	for _, si := range p.order {
		st := p.shards[si]
		if !(st.down && now.Before(st.probeAt)) {
			allSkipped = false
			break
		}
	}
	if allSkipped {
		skipProbes = false // every shard is demoted: probe them all
	}
	var lastErr error
	for _, si := range p.order {
		if len(remaining) == 0 {
			break
		}
		st := p.shards[si]
		if skipProbes && st.down && now.Before(st.probeAt) {
			continue
		}
		k, err := p.putShard(si, remaining)
		remaining = remaining[k:]
		if err == nil {
			continue
		}
		if terminalPut(err) {
			// Credential/protocol failures are not routing signals, and
			// an ambiguous outcome pins the batch: surface both instead
			// of burning the batch on spills.
			return len(batch) - len(remaining), err
		}
		lastErr = err // saturated / draining / never-sent: spill onward
	}
	n = len(batch) - len(remaining)
	if len(remaining) > 0 {
		if lastErr != nil && !errors.Is(lastErr, salsa.ErrSaturated) {
			return n, fmt.Errorf("%w (last shard: %v)", salsa.ErrSaturated, lastErr)
		}
		return n, salsa.ErrSaturated
	}
	return n, nil
}

// Produce inserts the whole run, blocking through saturation, outages
// and pinned (outcome-unknown) batches: every pass spills per the
// policy, a pinned batch is re-offered to its shard until it resolves,
// and when no shard accepts, it sleeps the shards' retry-after hint (or
// the pinned shard's re-probe timer) before the next pass. Returns
// ctx.Err() if the context ends first, or the underlying refusal when a
// pinned batch can never resolve (credentials, protocol break).
func (p *Producer) Produce(ctx context.Context, batch [][]byte) error {
	remaining := batch
	for len(remaining) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := p.TryProduce(remaining)
		remaining = remaining[n:]
		if err == nil {
			continue
		}
		if errors.Is(err, ErrIndeterminate) {
			// Resolvable by pacing unless the shard's answer can never
			// change (bad credentials, protocol break).
			if errors.Is(err, ErrUnauthorized) || errors.Is(err, ErrProtocol) || errors.Is(err, ErrBadFrame) {
				return err
			}
		} else if !errors.Is(err, salsa.ErrSaturated) {
			return err
		}
		pause := p.retryAfter
		if pause <= 0 {
			pause = 2 * time.Millisecond
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pause):
		}
	}
	return nil
}

// Close drains the lane leases gracefully and severs the connections.
func (p *Producer) Close() {
	for _, st := range p.shards {
		if st == nil || st.fc == nil {
			continue
		}
		// Best-effort DRAIN so the server returns the lane promptly
		// instead of discovering the dead peer on its next read.
		st.fc.c.SetDeadline(time.Now().Add(time.Second))
		st.fc.write(KindDrain, nil)
		st.fc.read()
		st.fc.Close()
		st.fc = nil
	}
	p.shards = nil
}

// WorkerOptions configures DialWorker.
type WorkerOptions struct {
	// MaxPayload bounds frame payloads. Default DefaultMaxPayload.
	MaxPayload int
	// Token is the shard auth token carried in HELLO.
	Token string
	// OpTimeout, when positive, bounds each round trip beyond the
	// server-side wait (GetBatch waits wait+OpTimeout). Zero means no
	// deadline, the PR-8 behavior.
	OpTimeout time.Duration
	// DialRetries bounds extra dial attempts on transport failure.
	// Typed refusals (capacity, draining, unauthorized) never retry.
	// Default 0.
	DialRetries int
	// BackoffSeed seeds the dial-retry backoff; 0 uses a fixed seed.
	BackoffSeed uint64
}

// Worker is the execution-side retrieval handle: one shard connection
// whose consumer membership, lease, and kill semantics mirror an
// in-process consumer handle. Single-goroutine.
type Worker struct {
	fc     *framedConn
	id     int
	lease  time.Duration
	o      WorkerOptions
	bodies [][]byte // GetBatch's result, reused by the next call
}

// DialWorker connects to a shard and joins its consumer membership.
// Returns ErrCapacity (wrapped) when the shard's lifetime worker budget
// is exhausted, ErrDraining when it is quiescing, ErrUnauthorized on a
// token mismatch; transport failures retry up to DialRetries.
func DialWorker(addr string, o WorkerOptions) (*Worker, error) {
	bo := backoff.Expo{Seed: o.BackoffSeed ^ 0x77}
	var lastErr error
	for attempt := 0; attempt <= o.DialRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(bo.Next())
		}
		w, err := dialWorkerOnce(addr, o)
		if err == nil {
			return w, nil
		}
		lastErr = err
		if fatalRefusal(err) {
			break
		}
	}
	return nil, lastErr
}

func dialWorkerOnce(addr string, o WorkerOptions) (*Worker, error) {
	fc, err := dial(addr, RoleWorker, o.Token, o.MaxPayload)
	if err != nil {
		return nil, err
	}
	f, err := roundTrip(fc, KindJoin, nil)
	if err != nil {
		fc.Close()
		return nil, err
	}
	if f.Kind != KindAck {
		fc.Close()
		return nil, fmt.Errorf("%w: %v to JOIN", ErrProtocol, f.Kind)
	}
	a, err := DecodeAck(f.Payload)
	if err != nil {
		fc.Close()
		return nil, err
	}
	fc.c.SetDeadline(time.Time{})
	return &Worker{
		fc:    fc,
		id:    int(a.A),
		lease: time.Duration(a.B) * time.Millisecond,
		o:     o,
	}, nil
}

// ID returns the worker's consumer id on its shard.
func (w *Worker) ID() int { return w.id }

// Lease returns the shard's liveness lease: the worker must send a frame
// (GetBatch or Ping) at least this often or be declared crashed.
func (w *Worker) Lease() time.Duration { return w.lease }

// GetBatch retrieves up to max tasks, holding the request server-side for
// at most wait when the shard is dry (an empty result is a dry shard, not
// an emptiness proof). The returned slice and the bodies in it — which
// alias the connection's read buffer — are valid until the next call;
// callers that retain either must copy. Returns salsa.ErrKilled (wrapped)
// once the shard has declared this worker crashed, ErrDraining once it is
// quiescing (re-join another shard; this consumer is retired).
func (w *Worker) GetBatch(max int, wait time.Duration) ([][]byte, error) {
	if w.o.OpTimeout > 0 {
		w.fc.c.SetDeadline(time.Now().Add(wait + w.o.OpTimeout))
		defer w.fc.c.SetDeadline(time.Time{})
	}
	w.fc.begin(KindGetBatch)
	w.fc.wbuf = AppendGetReq(w.fc.wbuf, GetReq{Max: uint32(max), WaitMs: uint32(wait.Milliseconds())})
	f, err := exchange(w.fc)
	if err != nil {
		return nil, err
	}
	if f.Kind != KindTasks {
		return nil, fmt.Errorf("%w: %v to GET_BATCH", ErrProtocol, f.Kind)
	}
	bodies, err := decodeBatchInto(w.bodies, f.Payload, KindTasks)
	if err != nil {
		return nil, err
	}
	w.bodies = bodies
	return bodies, nil
}

// Ping refreshes the lease without retrieving.
func (w *Worker) Ping() error {
	if w.o.OpTimeout > 0 {
		w.fc.c.SetDeadline(time.Now().Add(w.o.OpTimeout))
		defer w.fc.c.SetDeadline(time.Time{})
	}
	_, err := roundTrip(w.fc, KindPing, nil)
	return err
}

// Drain departs gracefully: the shard retires the consumer (its spare
// chunks migrate to survivors) and the connection closes.
func (w *Worker) Drain() error {
	if w.o.OpTimeout > 0 {
		w.fc.c.SetDeadline(time.Now().Add(w.o.OpTimeout))
	}
	_, err := roundTrip(w.fc, KindDrain, nil)
	w.fc.Close()
	return err
}

// Close severs the connection without draining — crash semantics: the
// shard kills the consumer and the rescue path reclaims its chunks.
func (w *Worker) Close() { w.fc.Close() }
