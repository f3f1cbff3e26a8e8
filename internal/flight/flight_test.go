package flight

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// withRecorder runs f with a fresh armed recorder and guarantees Reset.
func withRecorder(t *testing.T, o Options, f func()) {
	t.Helper()
	if !Compiled {
		t.Skip("flight recorder compiled out (salsa_noflight)")
	}
	Enable(o)
	defer Reset()
	f()
}

func TestDisarmedRecordIsNoop(t *testing.T) {
	Reset()
	RecordC(0, KTakeFast, 1, 2, 3)
	RecordP(0, KChunkPublish, 1, 2, 3)
	RecordControl(KMemberJoin, 1, 2, 3)
	BeginOp(0)
	EndOp(0)
	if d := Capture("test", "", false); d != nil {
		t.Fatalf("Capture with no recorder = %+v, want nil", d)
	}
}

func TestRecordCaptureRoundTrip(t *testing.T) {
	withRecorder(t, Options{Consumers: 2, Producers: 1, RingSize: 16}, func() {
		RecordP(0, KChunkPublish, 42, 1, 0)
		RecordC(0, KTakeFast, 42, 7, 0)
		RecordC(1, KTakeSteal, 42, 7, 1)
		RecordControl(KMemberCrash, 3, 1, 0)
		d := Capture("test", "ctx", false)
		if d == nil {
			t.Fatal("Capture = nil with recorder installed")
		}
		if d.Meta.Reason != "test" || d.Meta.Context != "ctx" {
			t.Fatalf("meta = %+v", d.Meta)
		}
		if len(d.Rings) != 4 {
			t.Fatalf("rings = %d, want 4 (2 consumers + 1 producer + control)", len(d.Rings))
		}
		tl := d.Timeline()
		if len(tl) != 4 {
			t.Fatalf("timeline = %d events, want 4", len(tl))
		}
		// Binary round trip preserves every event.
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		d2, err := ReadDump(&buf)
		if err != nil {
			t.Fatalf("ReadDump: %v", err)
		}
		tl2 := d2.Timeline()
		if len(tl2) != len(tl) {
			t.Fatalf("round trip: %d events, want %d", len(tl2), len(tl))
		}
		for i := range tl {
			if tl[i] != tl2[i] {
				t.Fatalf("event %d: %+v != %+v", i, tl[i], tl2[i])
			}
		}
	})
}

func TestRingWrapKeepsNewest(t *testing.T) {
	withRecorder(t, Options{Consumers: 1, Producers: 1, RingSize: 8}, func() {
		for i := 0; i < 20; i++ {
			RecordC(0, KTakeFast, uint64(i+1), int32(i), 0)
		}
		d := Capture("test", "", false)
		var evs []Event
		for _, rg := range d.Rings {
			if rg.Role == RoleConsumer {
				evs = rg.Events
			}
		}
		if len(evs) != 8 {
			t.Fatalf("kept %d events, want ring size 8", len(evs))
		}
		for i, e := range evs {
			wantSeq := uint64(13 + i) // 20 written, last 8 survive: seq 13..20
			if e.Seq != wantSeq || e.A != wantSeq {
				t.Fatalf("event %d = seq %d a %d, want %d", i, e.Seq, e.A, wantSeq)
			}
		}
	})
}

func TestPayloadPacking(t *testing.T) {
	withRecorder(t, Options{Consumers: 1, Producers: 1, RingSize: 8}, func() {
		// Negative b/c and a large 56-bit a must survive the packing.
		bigA := (uint64(1) << 56) - 5
		RecordC(0, KStealWin, bigA, -1, -42)
		d := Capture("test", "", false)
		tl := d.Timeline()
		if len(tl) != 1 {
			t.Fatalf("timeline = %d events, want 1", len(tl))
		}
		e := tl[0]
		if e.Kind != KStealWin || e.A != bigA || e.B != -1 || e.C != -42 {
			t.Fatalf("decoded %+v, want kind=%v a=%d b=-1 c=-42", e, KStealWin, bigA)
		}
	})
}

func TestOutOfRangeIDDropsAndCounts(t *testing.T) {
	withRecorder(t, Options{Consumers: 1, Producers: 1, RingSize: 8}, func() {
		RecordC(5, KTakeFast, 1, 0, 0)
		RecordP(-1, KChunkPublish, 1, 0, 0)
		if got := Dropped(); got != 2 {
			t.Fatalf("Dropped = %d, want 2", got)
		}
		if tl := Capture("test", "", false).Timeline(); len(tl) != 0 {
			t.Fatalf("timeline = %d events, want 0", len(tl))
		}
	})
}

// TestConcurrentReadersNeverTear hammers one ring from its owner while
// snapshotting concurrently; every decoded event must be internally
// consistent (A == Seq by construction here).
func TestConcurrentReadersNeverTear(t *testing.T) {
	withRecorder(t, Options{Consumers: 1, Producers: 1, RingSize: 16}, func() {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := uint64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				RecordC(0, KTakeFast, i, int32(i), int32(i))
			}
		}()
		deadline := time.Now().Add(200 * time.Millisecond)
		for time.Now().Before(deadline) {
			d := Capture("test", "", false)
			for _, e := range d.Timeline() {
				if e.A != e.Seq || e.B != e.C {
					t.Errorf("torn event leaked: %+v", e)
				}
			}
		}
		close(stop)
		wg.Wait()
	})
}

func TestNextChunkIDMonotonic(t *testing.T) {
	if !Compiled {
		if NextChunkID() != 0 {
			t.Fatal("NextChunkID != 0 under salsa_noflight")
		}
		return
	}
	a, b := NextChunkID(), NextChunkID()
	if b <= a || a == 0 {
		t.Fatalf("ids not monotonic from 1: %d then %d", a, b)
	}
}

func TestDoubleTakeDetection(t *testing.T) {
	withRecorder(t, Options{Consumers: 3, Producers: 1, RingSize: 32}, func() {
		RecordP(0, KChunkPublish, 7, 1, 0)
		RecordC(1, KTakeFast, 7, 3, 0)  // victim commits slot 3
		RecordC(2, KStealWin, 7, 1, 0)  // thief steals the chunk
		RecordC(2, KTakeSteal, 7, 3, 1) // thief takes slot 3 too
		RecordC(2, KTakeSteal, 7, 4, 0) // a LOST take must not count
		RecordC(1, KTakeSlow, 7, 5, 0)  // lost slow-path CAS either
		r := Analyze(Capture("test", "", false))
		dts := r.DoubleTakes()
		if len(dts) != 1 {
			t.Fatalf("double takes = %d (%+v), want 1", len(dts), dts)
		}
		a := dts[0]
		if a.FID != 7 || a.Slot != 3 {
			t.Fatalf("anomaly at chunk %d slot %d, want 7/3", a.FID, a.Slot)
		}
		if len(a.Consumers) != 2 || a.Consumers[0] != 1 || a.Consumers[1] != 2 {
			t.Fatalf("consumers = %v, want [1 2]", a.Consumers)
		}
	})
}

func TestAnalyzeLifecycles(t *testing.T) {
	withRecorder(t, Options{Consumers: 3, Producers: 1, RingSize: 64}, func() {
		RecordP(0, KChunkPublish, 9, 0, 0)
		RecordC(0, KTakeFast, 9, 1, 0)
		RecordC(2, KStealWin, 9, 0, 0)
		RecordC(2, KTakeSteal, 9, 2, 1)
		RecordC(2, KChunkDrained, 9, 0, 0)
		r := Analyze(Capture("test", "", false))
		if len(r.Lifecycles) != 1 {
			t.Fatalf("lifecycles = %d, want 1", len(r.Lifecycles))
		}
		lc := r.Lifecycles[0]
		if lc.FID != 9 || lc.Publish == nil || lc.Drained == nil {
			t.Fatalf("lifecycle = %+v", lc)
		}
		if len(lc.Owners) != 2 || lc.Owners[0] != 0 || lc.Owners[1] != 2 {
			t.Fatalf("owners = %v, want [0 2]", lc.Owners)
		}
		if len(lc.Takes) != 2 {
			t.Fatalf("takes = %d, want 2", len(lc.Takes))
		}
		if len(r.DoubleTakes()) != 0 {
			t.Fatalf("unexpected double takes: %+v", r.DoubleTakes())
		}
	})
}

func TestStealStormDetection(t *testing.T) {
	withRecorder(t, Options{Consumers: 1, Producers: 1, RingSize: 128}, func() {
		for i := 0; i < stealStormCount; i++ {
			RecordC(0, KStealFail, uint64(i+1), 1, 0)
		}
		r := Analyze(Capture("test", "", false))
		found := false
		for _, a := range r.Anomalies {
			if a.Kind == "steal-storm" {
				found = true
			}
		}
		if !found {
			t.Fatalf("no steal-storm in %+v", r.Anomalies)
		}
	})
}

func TestExcerptTruncates(t *testing.T) {
	withRecorder(t, Options{Consumers: 1, Producers: 1, RingSize: 64}, func() {
		for i := 0; i < 10; i++ {
			RecordC(0, KTakeFast, uint64(i+1), 0, 0)
		}
		d := Capture("test", "", false)
		got := Excerpt(d, 3)
		if want := "... (7 earlier events)"; !bytes.Contains([]byte(got), []byte(want)) {
			t.Fatalf("excerpt missing %q:\n%s", want, got)
		}
	})
}

func TestWatchdogFlagsStalledConsumer(t *testing.T) {
	withRecorder(t, Options{Consumers: 2, Producers: 1, RingSize: 16}, func() {
		BeginOp(0) // consumer 0 enters a retrieval and never progresses
		stalls := make(chan int, 4)
		stop := StartWatchdog(WatchdogOptions{
			Deadline: 20 * time.Millisecond,
			Interval: 5 * time.Millisecond,
			OnStall: func(id int, d time.Duration, dump *Dump) {
				if dump == nil || dump.Meta.Stacks == "" {
					t.Errorf("stall dump missing stacks: %+v", dump)
				}
				stalls <- id
			},
		})
		defer stop()
		select {
		case id := <-stalls:
			if id != 0 {
				t.Fatalf("stalled consumer = %d, want 0", id)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("watchdog never fired")
		}
	})
}

func TestWatchdogIgnoresProgress(t *testing.T) {
	withRecorder(t, Options{Consumers: 1, Producers: 1, RingSize: 16}, func() {
		BeginOp(0)
		stalls := make(chan int, 4)
		stop := StartWatchdog(WatchdogOptions{
			Deadline: 50 * time.Millisecond,
			Interval: 5 * time.Millisecond,
			OnStall:  func(id int, d time.Duration, dump *Dump) { stalls <- id },
		})
		defer stop()
		// Keep the ring moving past several deadlines: no stall verdict.
		deadline := time.Now().Add(200 * time.Millisecond)
		i := uint64(0)
		for time.Now().Before(deadline) {
			i++
			RecordC(0, KStealFail, i, 0, 0)
			time.Sleep(2 * time.Millisecond)
		}
		EndOp(0)
		select {
		case id := <-stalls:
			t.Fatalf("watchdog flagged consumer %d despite progress", id)
		default:
		}
	})
}

// TestOrphanedChunkHorizon checks the orphan detector's evidence rules on
// hand-built dumps: absence of a take only counts when the rings are
// complete (no wrap evicted it) and the chunk is old enough that "still in
// flight" is ruled out.
func TestOrphanedChunkHorizon(t *testing.T) {
	const (
		old    = int64(0)
		young  = orphanMinAge / 2
		newest = orphanMinAge * 3
	)
	ev := func(role Role, id int, seq uint64, ts int64, k Kind, a uint64, b, c int32) Event {
		return Event{Role: role, ID: id, Seq: seq, TS: ts, Kind: k, A: a, B: b, C: c}
	}
	orphans := func(d *Dump) []uint64 {
		var fids []uint64
		for _, an := range Analyze(d).Anomalies {
			if an.Kind == "orphaned-chunk" {
				fids = append(fids, an.FID)
			}
		}
		return fids
	}

	// Complete rings: an old untouched chunk is an orphan, a young one is
	// presumed in flight.
	d := &Dump{Rings: []RingDump{
		{Role: RoleProducer, ID: 0, Events: []Event{
			ev(RoleProducer, 0, 1, old, KChunkPublish, 5, 0, 0),
			ev(RoleProducer, 0, 2, newest-young, KChunkPublish, 6, 0, 0),
		}},
		{Role: RoleConsumer, ID: 0, Events: []Event{
			ev(RoleConsumer, 0, 1, newest, KGetEmpty, 0, 0, 0),
		}},
	}}
	if got := orphans(d); len(got) != 1 || got[0] != 5 {
		t.Fatalf("complete rings: orphans = %v, want [5]", got)
	}

	// Same dump, but the consumer ring wrapped (oldest Seq > 1) after the
	// old publish: the chunk's take may have been evicted, so the old
	// chunk must no longer be flagged.
	d.Rings[1].Events = []Event{
		ev(RoleConsumer, 0, 900, newest-1, KGetEmpty, 0, 0, 0),
		ev(RoleConsumer, 0, 901, newest, KGetEmpty, 0, 0, 0),
	}
	if got := orphans(d); len(got) != 0 {
		t.Fatalf("wrapped ring: orphans = %v, want none (horizon must mask)", got)
	}
}
