package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"
)

// handleQuiesce serves a KindQuiesce admin frame (sent instead of
// HELLO): authenticate, drain the shard into the named peer, answer ACK
// with the handoff count — or ERR, with the shard back in service.
func (s *Server) handleQuiesce(fc *framedConn, payload []byte) {
	q, err := DecodeQuiesceReq(payload)
	if err != nil {
		s.sendErr(fc, fmt.Errorf("%w: %v", ErrProtocol, err))
		return
	}
	if !s.authorized(q.Token) {
		s.sendErr(fc, fmt.Errorf("%w: bad quiesce token", ErrUnauthorized))
		return
	}
	moved, err := s.Quiesce(q.Peer)
	if err != nil {
		s.sendErr(fc, err)
		return
	}
	s.sendAck(fc, Ack{A: uint64(moved)})
}

// workerSessionCount returns the number of live worker sessions.
func (s *Server) workerSessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Quiesce drains the shard so it can leave the cluster with zero lost
// and zero duplicated tasks:
//
//  1. Fence. The draining flag refuses new producers, worker joins and
//     PUT_BATCH frames with CodeDraining; the putsInFlight counter is
//     then polled to zero. The fence is checked between the counter
//     increment and the insert (a Dekker handshake over two atomics),
//     so once zero is observed nothing else can commit.
//  2. Retire workers. Every worker's next frame answers CodeDraining
//     and retires its consumer — residual chunks republish into the
//     pool. Silent workers are bounded by the lease monitor.
//  3. Sweep. A dedicated drainer consumer (the reserved MaxConsumers
//     slot) drains the pool and re-publishes every task to the peer
//     shard through the ordinary producer router — batched, with
//     idempotent sequence numbers, so a connection cut mid-handoff
//     cannot double-publish. The sweep alternates with a quiet check
//     (no worker sessions, no live consumers beyond house + drainer)
//     observed BEFORE a sweep that comes up empty: chunks republished
//     by a late retire or kill-rescue are always re-swept.
//
// On success the shard answers every later request with CodeDraining.
// On failure (peer unreachable, deadline) the shard returns to service
// — tasks already moved are safely at the peer, not duplicated. The one
// exception is an abort while a handoff batch is still outcome-unknown
// (its retry budget died after the frame may have reached the peer):
// that batch is force-reinserted locally so nothing is lost, but it may
// also have committed at the peer — at-least-once for that batch only,
// and the returned error says so explicitly.
func (s *Server) Quiesce(peer string) (moved int64, err error) {
	s.quiesceMu.Lock()
	defer s.quiesceMu.Unlock()
	if !s.draining.CompareAndSwap(stateServing, stateDraining) {
		return 0, fmt.Errorf("%w: quiesce already requested", ErrDraining)
	}
	success := false
	defer func() {
		if success {
			s.draining.Store(stateDrained)
		} else {
			s.draining.Store(stateServing)
		}
	}()
	s.o.Logf("remote: quiesce requested, handoff peer %q", peer)
	deadline := time.Now().Add(s.o.QuiesceTimeout)

	for s.putsInFlight.Load() != 0 {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("remote: quiesce: inserts still in flight at deadline")
		}
		select {
		case <-s.stop:
			return 0, fmt.Errorf("remote: quiesce: %w", net.ErrClosed)
		case <-time.After(200 * time.Microsecond):
		}
	}

	// The drainer occupies the consumer slot reserved at NewServer; it
	// is created once and kept (consumer ids are lifetime), so a failed
	// quiesce can retry without burning the reserve.
	if s.drainer == nil {
		dr, aerr := s.pool.AddConsumer()
		if aerr != nil {
			return 0, fmt.Errorf("remote: quiesce: drainer: %w", aerr)
		}
		s.drainer = dr
	}

	var pr *Producer
	if peer != "" {
		pr, err = DialProducer([]string{peer}, ProducerOptions{
			Token:       s.o.AuthToken,
			OpTimeout:   5 * time.Second,
			Retries:     3,
			DialRetries: 5,
		})
		if err != nil {
			return 0, fmt.Errorf("remote: quiesce: handoff peer %s: %w", peer, err)
		}
		defer pr.Close()
	}

	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	buf := make([]*Task, s.o.MaxBatch)
	bodies := make([][]byte, 0, s.o.MaxBatch)
	// putBack force-reinserts swept-but-unmoved tasks through the
	// reserved lane so a failed handoff strands nothing: the shard
	// returns to service with every unmoved task back in its pool.
	putBack := func(ts []*Task) {
		if len(ts) > 0 {
			s.reinsert.PutBatch(ts)
		}
	}
	for {
		quiet := s.workerSessionCount() == 0 &&
			s.pool.LiveConsumers() <= s.o.House+1 // house + drainer
		empty := true
		for {
			n := s.drainer.TryGetBatch(buf)
			if n == 0 {
				break
			}
			empty = false
			if pr == nil {
				putBack(buf[:n])
				return moved, fmt.Errorf("remote: quiesce: %d residual tasks and no handoff peer", n)
			}
			bodies = bodies[:0]
			for _, t := range buf[:n] {
				bodies = append(bodies, t.Body)
			}
			// TryProduce (not Produce) so the accepted prefix stays
			// known across a mid-batch failure: only the unmoved suffix
			// is re-inserted, and what the peer committed is never
			// duplicated. An ambiguous transport failure (retry budget
			// spent, outcome unknown) surfaces as ErrIndeterminate with
			// the batch pinned to the peer under its original sequence
			// number; because every retry below re-offers the SAME
			// bodies[off:] slice, the producer re-sends the identical
			// frame and the peer's dedup window collapses the ambiguity
			// — never a fresh sequence number for a possibly-committed
			// batch.
			off := 0
			for off < n {
				k, perr := pr.TryProduce(bodies[off:])
				off += k
				moved += int64(k)
				s.handoffTasks.Add(int64(k))
				if perr == nil {
					continue
				}
				if ctx.Err() != nil || (fatalRefusal(perr) && !errors.Is(perr, ErrIndeterminate)) {
					putBack(buf[off:n])
					if errors.Is(perr, ErrIndeterminate) {
						// The pinned batch never resolved: it may have
						// committed at the peer AND is now back in this
						// shard's pool. At-least-once on this one batch
						// — surfaced here, never silent.
						return moved, fmt.Errorf("remote: quiesce handoff aborted with an unresolved batch (possible duplicate at peer): %w", perr)
					}
					return moved, fmt.Errorf("remote: quiesce handoff: %w", perr)
				}
				select { // saturated / indeterminate / transient: pace and retry
				case <-s.stop:
					putBack(buf[off:n])
					return moved, fmt.Errorf("remote: quiesce: %w", net.ErrClosed)
				case <-time.After(2 * time.Millisecond):
				}
			}
			clear(buf[:n])
		}
		if quiet && empty {
			break
		}
		if time.Now().After(deadline) {
			return moved, fmt.Errorf("remote: quiesce: not quiet at deadline (workers=%d, live consumers=%d)",
				s.workerSessionCount(), s.pool.LiveConsumers())
		}
		select {
		case <-s.stop:
			return moved, fmt.Errorf("remote: quiesce: %w", net.ErrClosed)
		case <-time.After(time.Millisecond):
		}
	}
	success = true
	s.o.Logf("remote: quiesced: %d tasks handed off to %s", moved, peer)
	return moved, nil
}

// Quiesce is the client/admin side of the QUIESCE wire kind: it asks the
// shard at addr to drain itself into peer and returns how many residual
// tasks were handed off. The call blocks until the drain completes, the
// shard refuses, or timeout expires.
func Quiesce(addr, peer, authToken string, timeout time.Duration) (int64, error) {
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return 0, fmt.Errorf("remote: dial %s: %w", addr, err)
	}
	defer c.Close()
	if timeout > 0 {
		c.SetDeadline(time.Now().Add(timeout))
	}
	fc := newFramedConn(c, DefaultMaxPayload)
	f, err := roundTrip(fc, KindQuiesce, AppendQuiesceReq(nil, QuiesceReq{
		Token: []byte(authToken),
		Peer:  peer,
	}))
	if err != nil {
		return 0, err
	}
	if f.Kind != KindAck {
		return 0, fmt.Errorf("%w: %v to QUIESCE", ErrProtocol, f.Kind)
	}
	a, err := DecodeAck(f.Payload)
	if err != nil {
		return 0, err
	}
	return int64(a.A), nil
}
