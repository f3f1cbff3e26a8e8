package framework_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"salsa/internal/failpoint"
	"salsa/internal/framework"
	"salsa/internal/telemetry"
)

// These tables pin the management policy (Algorithm 2) at the level the
// framework's entry points differ from one another: which produce-pressure
// events a put shape emits and in what order, what it does with the tasks
// no pool accepted, and which exit each member of the Get family takes.
// They are golden tests — every expectation is an exact sequence or count —
// so a rewrite of the data plane either reproduces the policy or fails here.

// recorder is a Tracer that logs produce-pressure events as "fail:<pool>"
// and "force:<pool>", naming pools by their position on producer 0's access
// list so the golden sequences do not depend on the placement's id choice.
type recorder struct {
	near int
	log  []string
}

func (r *recorder) pool(id int) string {
	if id == r.near {
		return "near"
	}
	return "far"
}

func (r *recorder) OnProduceFail(e telemetry.ProduceEvent) {
	r.log = append(r.log, "fail:"+r.pool(e.Pool))
}
func (r *recorder) OnForcePut(e telemetry.ProduceEvent) {
	r.log = append(r.log, "force:"+r.pool(e.Pool))
}
func (*recorder) OnSteal(telemetry.StealEvent)                     {}
func (*recorder) OnChunkTransfer(telemetry.ChunkTransferEvent)     {}
func (*recorder) OnCheckEmptyRound(telemetry.CheckEmptyRoundEvent) {}

// putOp is one producer call in a script: n > 0 makes it the batch form
// with n fresh tasks.
type putOp struct {
	try bool
	n   int
}

func (op putOp) run(p *framework.Producer[task]) string {
	switch {
	case op.n == 0 && !op.try:
		p.Put(&task{})
		return "Put"
	case op.n == 0:
		return fmt.Sprintf("TryPut=%v", p.TryPut(&task{}))
	case !op.try:
		p.PutBatch(makeTasks(op.n))
		return fmt.Sprintf("PutBatch(%d)", op.n)
	default:
		return fmt.Sprintf("TryPutBatch(%d)=%d", op.n, p.TryPutBatch(makeTasks(op.n)))
	}
}

func makeTasks(n int) []*task {
	ts := make([]*task, n)
	for i := range ts {
		ts[i] = &task{seq: i}
	}
	return ts
}

// TestPutPolicyGolden drives every put shape, with and without balancing,
// on a 1-producer/2-consumer pool of 2-slot chunks whose chunk pools are
// exhausted (nothing was ever consumed, so no pool has a spare): a put
// that needs a fresh chunk is refused by every pool it asks. The log
// interleaves the tracer's events with each call's result.
func TestPutPolicyGolden(t *testing.T) {
	put, tryPut := putOp{}, putOp{try: true}
	batch := func(n int) putOp { return putOp{n: n} }
	tryBatch := func(n int) putOp { return putOp{try: true, n: n} }

	cases := []struct {
		name          string
		noBalancing   bool
		script        []putOp
		want          []string
		puts          int64
		forcePuts     int64
		saturatedPuts int64
		putBatches    int64 // batch calls, refused ones included
		batchTasks    int64 // tasks offered across them (PutBatchSize sum)
	}{
		{
			// Put 1 and 3 need a chunk: the whole list refuses, the
			// nearest pool is force-expanded. Put 2 lands in the chunk
			// put 1 opened.
			name:   "Put/balancing",
			script: []putOp{put, put, put},
			want: []string{
				"fail:near", "fail:far", "force:near", "Put",
				"Put",
				"fail:near", "fail:far", "force:near", "Put",
			},
			puts: 3, forcePuts: 2,
		},
		{
			name:        "Put/DisableBalancing",
			noBalancing: true,
			script:      []putOp{put, put, put},
			want: []string{
				"fail:near", "force:near", "Put",
				"Put",
				"fail:near", "force:near", "Put",
			},
			puts: 3, forcePuts: 2,
		},
		{
			// The Put opens a chunk; the first TryPut fills it, the
			// second needs a chunk and is rejected without expansion.
			name:   "TryPut/balancing",
			script: []putOp{put, tryPut, tryPut},
			want: []string{
				"fail:near", "fail:far", "force:near", "Put",
				"TryPut=true",
				"fail:near", "fail:far", "TryPut=false",
			},
			puts: 2, forcePuts: 1, saturatedPuts: 1,
		},
		{
			name:        "TryPut/DisableBalancing",
			noBalancing: true,
			script:      []putOp{put, tryPut, tryPut},
			want: []string{
				"fail:near", "force:near", "Put",
				"TryPut=true",
				"fail:near", "TryPut=false",
			},
			puts: 2, forcePuts: 1, saturatedPuts: 1,
		},
		{
			// One fail per pool and one force event per call, however
			// many tasks are forced: 5 into an empty list, then 3 of
			// which one fits the half-full third chunk.
			name:   "PutBatch/balancing",
			script: []putOp{batch(5), batch(3)},
			want: []string{
				"fail:near", "fail:far", "force:near", "PutBatch(5)",
				"fail:near", "fail:far", "force:near", "PutBatch(3)",
			},
			puts: 8, forcePuts: 7, putBatches: 2, batchTasks: 8,
		},
		{
			name:        "PutBatch/DisableBalancing",
			noBalancing: true,
			script:      []putOp{batch(5), batch(3)},
			want: []string{
				"fail:near", "force:near", "PutBatch(5)",
				"fail:near", "force:near", "PutBatch(3)",
			},
			puts: 8, forcePuts: 7, putBatches: 2, batchTasks: 8,
		},
		{
			// The accepted prefix is whatever fits the open chunk; the
			// remainder stays with the caller and counts one
			// saturation per short call.
			name:   "TryPutBatch/balancing",
			script: []putOp{put, tryBatch(3), tryBatch(2)},
			want: []string{
				"fail:near", "fail:far", "force:near", "Put",
				"fail:near", "fail:far", "TryPutBatch(3)=1",
				"fail:near", "fail:far", "TryPutBatch(2)=0",
			},
			puts: 2, forcePuts: 1, saturatedPuts: 2, putBatches: 2, batchTasks: 5,
		},
		{
			name:        "TryPutBatch/DisableBalancing",
			noBalancing: true,
			script:      []putOp{put, tryBatch(3), tryBatch(2)},
			want: []string{
				"fail:near", "force:near", "Put",
				"fail:near", "TryPutBatch(3)=1",
				"fail:near", "TryPutBatch(2)=0",
			},
			puts: 2, forcePuts: 1, saturatedPuts: 2, putBatches: 2, batchTasks: 5,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recorder{}
			fw := newFW(t, 1, 2, 2, func(c *framework.Config[task]) {
				c.Tracer = rec
				c.DisableBalancing = tc.noBalancing
			})
			rec.near = fw.Placement().ProducerAccessList(0)[0]
			p := fw.Producer(0)
			for _, op := range tc.script {
				rec.log = append(rec.log, op.run(p))
			}
			if !reflect.DeepEqual(rec.log, tc.want) {
				t.Errorf("event log\n got %q\nwant %q", rec.log, tc.want)
			}
			ops := p.Ops()
			if ops.Puts != tc.puts || ops.ForcePuts != tc.forcePuts || ops.SaturatedPuts != tc.saturatedPuts {
				t.Errorf("Puts/ForcePuts/SaturatedPuts = %d/%d/%d, want %d/%d/%d",
					ops.Puts, ops.ForcePuts, ops.SaturatedPuts, tc.puts, tc.forcePuts, tc.saturatedPuts)
			}
			if ops.PutBatches != tc.putBatches || ops.PutBatchSize.Count != tc.putBatches ||
				ops.PutBatchSize.SumNs != tc.batchTasks {
				t.Errorf("PutBatches = %d, PutBatchSize count/sum = %d/%d, want %d calls of %d tasks",
					ops.PutBatches, ops.PutBatchSize.Count, ops.PutBatchSize.SumNs, tc.putBatches, tc.batchTasks)
			}
		})
	}
}

// TestPutWalkStopsAtFirstAcceptingPool: when only the far pool has a spare
// chunk, every put shape records the near pool's refusal and lands the task
// in the far pool — no force, no saturation — while DisableBalancing never
// looks past the near pool.
func TestPutWalkStopsAtFirstAcceptingPool(t *testing.T) {
	for _, tc := range []struct {
		name        string
		noBalancing bool
		op          putOp
		want        []string
	}{
		{"Put", false, putOp{}, []string{"fail:near", "Put"}},
		{"TryPut", false, putOp{try: true}, []string{"fail:near", "TryPut=true"}},
		{"PutBatch", false, putOp{n: 2}, []string{"fail:near", "PutBatch(2)"}},
		{"TryPutBatch", false, putOp{try: true, n: 2}, []string{"fail:near", "TryPutBatch(2)=2"}},
		{"Put/DisableBalancing", true, putOp{}, []string{"fail:near", "force:near", "Put"}},
		{"TryPut/DisableBalancing", true, putOp{try: true}, []string{"fail:near", "TryPut=false"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recorder{}
			fw := newFW(t, 1, 2, 2, func(c *framework.Config[task]) {
				c.Tracer = rec
				c.DisableBalancing = tc.noBalancing
			})
			access := fw.Placement().ProducerAccessList(0)
			rec.near = access[0]
			p := fw.Producer(0)
			// Fill one chunk on the near pool and let the far consumer
			// steal and drain it: the emptied chunk recycles into the
			// far pool's chunk pool, the only spare in the system.
			p.Put(&task{})
			p.Put(&task{})
			far := fw.Consumer(access[1])
			for i := 0; i < 2; i++ {
				if _, ok := far.Get(); !ok {
					t.Fatalf("far consumer could not drain task %d", i)
				}
			}
			if _, ok := far.Get(); ok { // recycles the drained chunk on the way to ⊥
				t.Fatal("third Get found a task")
			}
			rec.log = nil
			before := p.Ops()
			rec.log = append(rec.log, tc.op.run(p))
			if !reflect.DeepEqual(rec.log, tc.want) {
				t.Errorf("event log\n got %q\nwant %q", rec.log, tc.want)
			}
			after := p.Ops()
			if !tc.noBalancing && (after.ForcePuts != before.ForcePuts || after.SaturatedPuts != 0) {
				t.Errorf("a put the far pool accepted moved ForcePuts %d→%d, SaturatedPuts %d",
					before.ForcePuts, after.ForcePuts, after.SaturatedPuts)
			}
		})
	}
}

// getCase is one cell of the Get-family table: which entry point runs, in
// what situation, and exactly how it must come back.
type getCase struct {
	name   string
	method string // "Get", "GetBatch", "GetWait", "GetContext"

	preload  bool // a task is in the pool before the call
	closed   bool // GetWait: stop is closed before the call
	canceled bool // GetContext: ctx is cancelled before the call
	timeout  time.Duration

	// whileParked, when set, runs on another goroutine once the waiter's
	// Parks counter has moved — i.e. the call is provably in its wait loop.
	whileParked func(t *testing.T, fw *framework.Framework[task], stop chan struct{}, cancel func())
	// killInside kills the consumer from inside its own retrieval (a
	// checkEmpty failpoint), the only way to kill a non-waiting Get
	// mid-call.
	killInside bool

	wantTask  bool
	wantErr   error
	wantParks bool // Parks must move; otherwise it must not
	wantEmpty int64
}

// TestGetFamilyExits walks Get/GetBatch/GetWait/GetContext through every
// way out of a retrieval on a 1-producer/2-consumer pool: a task on the
// first pass, the checkEmpty verdict, stop closed, ctx cancelled or past
// its deadline, the consumer killed mid-call, and a task arriving while the
// caller is parked. Parks may move only for the waiting variants and
// GetsEmpty only for the checkEmpty verdict of Get and GetBatch.
func TestGetFamilyExits(t *testing.T) {
	putOne := func(_ *testing.T, fw *framework.Framework[task], _ chan struct{}, _ func()) {
		fw.Producer(0).Put(&task{seq: 7})
	}
	closeStop := func(_ *testing.T, _ *framework.Framework[task], stop chan struct{}, _ func()) { close(stop) }
	cancelCtx := func(_ *testing.T, _ *framework.Framework[task], _ chan struct{}, cancel func()) { cancel() }
	kill := func(t *testing.T, fw *framework.Framework[task], _ chan struct{}, _ func()) {
		if err := fw.KillConsumer(0); err != nil {
			t.Errorf("KillConsumer while parked: %v", err)
		}
	}

	cases := []getCase{
		{name: "Get/task present", method: "Get", preload: true, wantTask: true},
		{name: "GetBatch/task present", method: "GetBatch", preload: true, wantTask: true},
		{name: "GetWait/task present", method: "GetWait", preload: true, wantTask: true},
		{name: "GetContext/task present", method: "GetContext", preload: true, wantTask: true},
		// A first pass that finds a task wins over an exit condition that
		// already holds: the condition is only consulted once waiting.
		{name: "GetWait/task present, stop closed", method: "GetWait", preload: true, closed: true, wantTask: true},
		{name: "GetContext/task present, ctx cancelled", method: "GetContext", preload: true, canceled: true, wantTask: true},

		{name: "Get/empty pool", method: "Get", wantEmpty: 1},
		{name: "GetBatch/empty pool", method: "GetBatch", wantEmpty: 1},

		{name: "GetWait/stop closed", method: "GetWait", closed: true},
		{name: "GetWait/stop closed while parked", method: "GetWait", whileParked: closeStop, wantParks: true},

		{name: "GetContext/ctx cancelled", method: "GetContext", canceled: true, wantErr: context.Canceled},
		{name: "GetContext/ctx cancelled while parked", method: "GetContext", whileParked: cancelCtx,
			wantErr: context.Canceled, wantParks: true},
		{name: "GetContext/ctx deadline", method: "GetContext", timeout: 5 * time.Millisecond,
			wantErr: context.DeadlineExceeded, wantParks: true},

		// Killed mid-call: soft-fail as not-found, never as a counted
		// empty; only GetContext names the cause.
		{name: "Get/killed mid-call", method: "Get", killInside: true},
		{name: "GetBatch/killed mid-call", method: "GetBatch", killInside: true},
		{name: "GetWait/killed while parked", method: "GetWait", whileParked: kill, wantParks: true},
		{name: "GetContext/killed while parked", method: "GetContext", whileParked: kill,
			wantErr: framework.ErrKilled, wantParks: true},

		// GetWait(nil) has no stop: it waits for the task.
		{name: "GetWait/task arrives while parked", method: "GetWait", whileParked: putOne,
			wantTask: true, wantParks: true},
		{name: "GetContext/task arrives while parked", method: "GetContext", whileParked: putOne,
			wantTask: true, wantParks: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runGetCase(t, tc) })
	}
}

func runGetCase(t *testing.T, tc getCase) {
	fw := newFW(t, 1, 2, 2, nil)
	c := fw.Consumer(0)
	if tc.preload {
		fw.Producer(0).Put(&task{seq: 7})
	}

	var stop chan struct{} // nil unless the case closes it
	if tc.closed || tc.method == "GetWait" && tc.whileParked != nil && !tc.wantTask {
		stop = make(chan struct{})
	}
	if tc.closed {
		close(stop)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if tc.timeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), tc.timeout)
	}
	defer cancel()
	if tc.canceled {
		cancel()
	}

	if tc.killInside {
		if !failpoint.Compiled {
			t.Skip("failpoints compiled out")
		}
		defer failpoint.Reset()
		done := false
		failpoint.Set(failpoint.CheckEmptyBetweenScans, func(_ failpoint.Site, id int) bool {
			if id == 0 && !done {
				done = true
				if err := fw.KillConsumer(0); err != nil {
					t.Errorf("KillConsumer from inside checkEmpty: %v", err)
				}
			}
			return false
		})
	}
	if tc.whileParked != nil {
		finished := make(chan struct{})
		defer func() { <-finished }()
		go func() {
			defer close(finished)
			for c.Ops().Parks == 0 {
				time.Sleep(50 * time.Microsecond)
			}
			tc.whileParked(t, fw, stop, cancel)
		}()
	}

	var (
		got *task
		err error
	)
	switch tc.method {
	case "Get":
		got, _ = c.Get()
	case "GetBatch":
		dst := make([]*task, 4)
		if n := c.GetBatch(dst); n > 0 {
			got = dst[0]
		}
	case "GetWait":
		got, _ = c.GetWait(stop)
	case "GetContext":
		got, err = c.GetContext(ctx)
	}

	if tc.wantTask != (got != nil) {
		t.Errorf("returned task %v, want a task: %v", got, tc.wantTask)
	}
	if got != nil && got.seq != 7 {
		t.Errorf("returned task seq %d, want 7", got.seq)
	}
	if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && err != nil) {
		t.Errorf("err = %v, want %v", err, tc.wantErr)
	}
	ops := c.Ops()
	if tc.wantParks != (ops.Parks > 0) {
		t.Errorf("Parks = %d, want moved: %v", ops.Parks, tc.wantParks)
	}
	if ops.GetsEmpty != tc.wantEmpty {
		t.Errorf("GetsEmpty = %d, want %d", ops.GetsEmpty, tc.wantEmpty)
	}
	var wantGets int64
	if tc.wantTask {
		wantGets = 1
	}
	if ops.Gets != wantGets {
		t.Errorf("Gets = %d, want %d", ops.Gets, wantGets)
	}
}

// TestLatencySampling: with Config.Latency on, every put entry samples
// PutLatency once per accepted call and every non-waiting get entry samples
// GetLatency once per successful retrieval — refused puts and empty-handed
// gets record nothing, so polling a saturated or empty pool cannot drown
// the histograms. With Latency off no entry touches a histogram.
func TestLatencySampling(t *testing.T) {
	dst := make([]*task, 4)
	cases := []struct {
		name     string
		run      func(p *framework.Producer[task], c *framework.Consumer[task])
		put, get int64
	}{
		{"Put", func(p *framework.Producer[task], _ *framework.Consumer[task]) { p.Put(&task{}) }, 1, 0},
		{"PutBatch", func(p *framework.Producer[task], _ *framework.Consumer[task]) { p.PutBatch(makeTasks(3)) }, 1, 0},
		{"TryPut", func(p *framework.Producer[task], _ *framework.Consumer[task]) {
			p.Put(&task{}) // opens a chunk the TryPut fits in
			if !p.TryPut(&task{}) {
				t.Error("TryPut into an open chunk refused")
			}
		}, 2, 0},
		{"TryPut/refused", func(p *framework.Producer[task], _ *framework.Consumer[task]) { p.TryPut(&task{}) }, 0, 0},
		{"TryPutBatch", func(p *framework.Producer[task], _ *framework.Consumer[task]) {
			p.Put(&task{})
			if n := p.TryPutBatch(makeTasks(3)); n != 3 {
				t.Errorf("TryPutBatch into an open chunk accepted %d of 3", n)
			}
		}, 2, 0},
		{"TryPutBatch/refused", func(p *framework.Producer[task], _ *framework.Consumer[task]) { p.TryPutBatch(makeTasks(3)) }, 0, 0},
		{"Get", func(p *framework.Producer[task], c *framework.Consumer[task]) { p.Put(&task{}); c.Get(); c.Get() }, 1, 1},
		{"TryGet", func(p *framework.Producer[task], c *framework.Consumer[task]) { p.Put(&task{}); c.TryGet(); c.TryGet() }, 1, 1},
		{"GetBatch", func(p *framework.Producer[task], c *framework.Consumer[task]) {
			p.Put(&task{})
			c.GetBatch(dst)
			c.GetBatch(dst)
		}, 1, 1},
		{"TryGetBatch", func(p *framework.Producer[task], c *framework.Consumer[task]) {
			p.Put(&task{})
			c.TryGetBatch(dst)
			c.TryGetBatch(dst)
		}, 1, 1},
	}
	for _, tc := range cases {
		for _, latency := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/latency=%v", tc.name, latency), func(t *testing.T) {
				fw := newFW(t, 1, 1, 8, func(c *framework.Config[task]) { c.Latency = latency })
				tc.run(fw.Producer(0), fw.Consumer(0))
				s := fw.Stats()
				wantPut, wantGet := tc.put, tc.get
				if !latency {
					wantPut, wantGet = 0, 0
				}
				if s.PutLatency.Count != wantPut || s.GetLatency.Count != wantGet {
					t.Errorf("PutLatency/GetLatency samples = %d/%d, want %d/%d",
						s.PutLatency.Count, s.GetLatency.Count, wantPut, wantGet)
				}
			})
		}
	}
}
