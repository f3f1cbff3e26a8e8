package remote

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"salsa/internal/chaos"
	"salsa/internal/telemetry"
)

// SmokeOptions configures RunSmoke.
type SmokeOptions struct {
	// Tasks is the run size. Default 20000.
	Tasks int
	// Workers is the worker count. Default 3; one drains mid-stream and
	// is replaced, so the round exercises graceful membership over the
	// wire too. Minimum 2.
	Workers int
	// Batch is the PUT_BATCH/GET_BATCH run size. Default 256.
	Batch int
	// FlightDump, when non-empty, arms the flight recorder for the round
	// and writes the shard's black box there if the round fails. No-op
	// under salsa_noflight.
	FlightDump string
	// Logf receives progress lines; nil silences them.
	Logf func(format string, args ...any)
}

// RunSmoke is the serve-smoke gate (`make serve-smoke`, CI): it boots a
// real shard server on loopback TCP, drives one producer and a draining/
// rejoining worker fleet through a full exactly-once round, scrapes the
// shard's Prometheus endpoint over HTTP the way an operator would, and
// shuts everything down cleanly. It returns nil only if the round
// delivered every task exactly once AND the wire census reached the
// metrics page.
func RunSmoke(o SmokeOptions) error {
	if o.Tasks <= 0 {
		o.Tasks = 20000
	}
	if o.Workers < 2 {
		o.Workers = 3
	}
	if o.Batch <= 0 {
		o.Batch = 256
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	const lanes = 2
	maxWorkers := o.Workers + 2 // headroom for the drain/rejoin cycle

	fl := chaos.ArmFlight(o.FlightDump, "serve-smoke", 1+maxWorkers, lanes)
	defer fl.Disarm()
	fail := fl.Fail

	srv, err := NewServer("127.0.0.1:0", Options{
		Lanes: lanes, House: 1, MaxWorkers: maxWorkers,
		ChunkSize: 256, LeaseTimeout: 2 * time.Second, Logf: o.Logf,
	})
	if err != nil {
		return fail(err)
	}
	defer srv.Close()
	ms, err := telemetry.Serve("127.0.0.1:0", srv.Handler())
	if err != nil {
		return fail(err)
	}
	defer ms.Close()
	o.Logf("serve-smoke: shard at %s, metrics at http://%s/metrics", srv.Addr(), ms.Addr())

	ledger := chaos.NewLedger(1, o.Tasks)
	errs := make(chan error, o.Workers+4)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	var runWorker func(drainAfter int64) // self-referential: the drainer spawns its replacement
	runWorker = func(drainAfter int64) {
		defer wg.Done()
		w, err := DialWorker(srv.Addr(), WorkerOptions{})
		if err != nil {
			errs <- fmt.Errorf("worker join: %w", err)
			return
		}
		var got int64
		for !ledger.Drained() {
			if err := ctx.Err(); err != nil {
				errs <- err
				return
			}
			bodies, err := w.GetBatch(o.Batch, 50*time.Millisecond)
			if err != nil {
				errs <- fmt.Errorf("worker %d: %w", w.ID(), err)
				return
			}
			if err := recordBodies(ledger, bodies); err != nil {
				errs <- fmt.Errorf("worker %d: %w", w.ID(), err)
				return
			}
			got += int64(len(bodies))
			if drainAfter > 0 && got >= drainAfter {
				// Graceful mid-stream departure: retire over the wire and
				// hand the remaining work to a fresh join.
				if err := w.Drain(); err != nil {
					errs <- fmt.Errorf("worker %d drain: %w", w.ID(), err)
					return
				}
				o.Logf("serve-smoke: worker %d drained after %d tasks, replacement joining", w.ID(), got)
				wg.Add(1)
				go runWorker(0)
				return
			}
		}
		if err := w.Drain(); err != nil {
			errs <- fmt.Errorf("worker %d final drain: %w", w.ID(), err)
		}
	}
	for i := 0; i < o.Workers; i++ {
		drainAfter := int64(0)
		if i == 0 {
			drainAfter = int64(o.Tasks / 10)
		}
		wg.Add(1)
		go runWorker(drainAfter)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		pr, err := DialProducer([]string{srv.Addr()}, ProducerOptions{})
		if err != nil {
			errs <- fmt.Errorf("producer: %w", err)
			return
		}
		defer pr.Close()
		if err := produceLedger(ctx, pr, 0, o.Tasks, o.Batch); err != nil {
			errs <- fmt.Errorf("producer: %w", err)
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case err := <-errs:
		return fail(err)
	}
	select {
	case err := <-errs:
		return fail(err)
	default:
	}
	if err := ledger.Verify(0); err != nil {
		return fail(err)
	}

	// Operator-view check: the wire census and the drain/rejoin cycle
	// must be visible on the Prometheus page.
	text, err := scrapeProm(ms.Addr())
	if err != nil {
		return fail(err)
	}
	for _, check := range []string{
		`salsa_remote_frames_total{kind="PUT_BATCH"}`,
		`salsa_remote_frames_total{kind="GET_BATCH"}`,
		`salsa_remote_frames_total{kind="TASKS"}`,
		`salsa_member_retires_total`,
		`salsa_member_joins_total`,
	} {
		v, ok := promValue(text, check)
		if !ok {
			return fail(fmt.Errorf("serve-smoke: %s missing from /metrics", check))
		}
		if v <= 0 {
			return fail(fmt.Errorf("serve-smoke: %s = %g, want > 0", check, v))
		}
	}
	o.Logf("serve-smoke: PASS — %d tasks exactly-once, metrics scraped, shutting down", o.Tasks)
	return nil
}

func scrapeProm(addr string) (string, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return "", fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("scrape: %w", err)
	}
	return string(b), nil
}

// promValue finds series (a bare name or name{labels}) in a Prometheus
// text page and returns its value.
func promValue(text, series string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, series)
		if !ok || !strings.HasPrefix(rest, " ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}

// The cluster and smoke rounds move ledger identities over the wire the same
// way: a task body is the 8-byte big-endian (producer, seq) pair.

// produceLedger publishes producer's tasks 0..n-1 through pr in batch-sized
// runs, each body carrying its ledger identity.
func produceLedger(ctx context.Context, pr *Producer, producer, n, batch int) error {
	run := make([][]byte, 0, batch)
	for seq := 0; seq < n; seq++ {
		b := make([]byte, 8)
		binary.BigEndian.PutUint32(b, uint32(producer))
		binary.BigEndian.PutUint32(b[4:], uint32(seq))
		run = append(run, b)
		if len(run) == batch || seq == n-1 {
			if err := pr.Produce(ctx, run); err != nil {
				return err
			}
			run = run[:0]
		}
	}
	return nil
}

// recordBodies tallies one GET_BATCH reply into the ledger. A body of the
// wrong size or an identity outside the universe is a corrupted or foreign
// frame, and fails the round.
func recordBodies(l *chaos.Ledger, bodies [][]byte) error {
	for _, b := range bodies {
		if len(b) != 8 {
			return fmt.Errorf("task body of %d bytes", len(b))
		}
		if err := l.Record(int(binary.BigEndian.Uint32(b)), int(binary.BigEndian.Uint32(b[4:]))); err != nil {
			return err
		}
	}
	return nil
}
