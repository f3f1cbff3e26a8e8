package framework_test

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
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

// call runs one entry point, named as in a script — "Put", "TryPutBatch:3"
// (three fresh tasks), "GetBatch" — and returns its log entry: the name,
// plus "=result" for the entries that return one.
func call(op string, p *framework.Producer[task], c *framework.Consumer[task]) string {
	name, arg, _ := strings.Cut(op, ":")
	n, _ := strconv.Atoi(arg)
	dst := make([]*task, 4)
	var result any
	switch name {
	case "Put":
		p.Put(&task{})
		return op
	case "PutBatch":
		p.PutBatch(makeTasks(n))
		return op
	case "TryPut":
		result = p.TryPut(&task{})
	case "TryPutBatch":
		result = p.TryPutBatch(makeTasks(n))
	case "Get":
		_, result = c.Get()
	case "TryGet":
		_, result = c.TryGet()
	case "GetBatch":
		result = c.GetBatch(dst)
	case "TryGetBatch":
		result = c.TryGetBatch(dst)
	default:
		panic("unknown op " + op)
	}
	return fmt.Sprintf("%s=%v", op, result)
}

// run plays a space-separated script of calls and returns the log: the
// tracer's events interleaved with each call's entry.
func (r *recorder) run(script string, p *framework.Producer[task], c *framework.Consumer[task]) string {
	r.log = nil
	for _, op := range strings.Fields(script) {
		r.log = append(r.log, call(op, p, c))
	}
	return strings.Join(r.log, " ")
}

func makeTasks(n int) []*task {
	ts := make([]*task, n)
	for i := range ts {
		ts[i] = &task{seq: i}
	}
	return ts
}

// newTracedFW is the pool every put table uses: 1 producer, 2 consumers,
// 2-slot chunks, the recorder attached. A fresh one has exhausted chunk
// pools — nothing was ever consumed, so no pool has a spare, and a put that
// needs a fresh chunk is refused by every pool it asks.
func newTracedFW(t *testing.T, noBalancing bool) (*framework.Framework[task], *recorder) {
	rec := &recorder{}
	fw := newFW(t, 1, 2, 2, func(c *framework.Config[task]) {
		c.Tracer = rec
		c.DisableBalancing = noBalancing
	})
	rec.near = fw.Placement().ProducerAccessList(0)[0]
	return fw, rec
}

// TestPutPolicyGolden drives every put shape, with and without balancing,
// against exhausted chunk pools.
func TestPutPolicyGolden(t *testing.T) {
	cases := []struct {
		script string
		// want is the log with balancing on. Under DisableBalancing the
		// access list is the near pool alone, so the log must be the same
		// minus the far pool's refusals, with every return value and
		// counter unchanged.
		want                           string
		puts, forcePuts, saturatedPuts int64
		putBatches, batchTasks         int64 // batch calls (refused ones included) and the tasks they offered
	}{
		// Put 1 and 3 need a chunk: the whole list refuses, the nearest
		// pool is force-expanded. Put 2 lands in the chunk put 1 opened.
		{script: "Put Put Put",
			want: "fail:near fail:far force:near Put Put fail:near fail:far force:near Put",
			puts: 3, forcePuts: 2},
		// The Put opens a chunk; the first TryPut fills it, the second
		// needs a chunk and is rejected without expansion.
		{script: "Put TryPut TryPut",
			want: "fail:near fail:far force:near Put TryPut=true fail:near fail:far TryPut=false",
			puts: 2, forcePuts: 1, saturatedPuts: 1},
		// One fail per pool and one force event per call, however many
		// tasks are forced: 5 into an empty list, then 3 of which one
		// fits the half-full third chunk.
		{script: "PutBatch:5 PutBatch:3",
			want: "fail:near fail:far force:near PutBatch:5 fail:near fail:far force:near PutBatch:3",
			puts: 8, forcePuts: 7, putBatches: 2, batchTasks: 8},
		// The accepted prefix is whatever fits the open chunk; the
		// remainder stays with the caller and counts one saturation per
		// short call.
		{script: "Put TryPutBatch:3 TryPutBatch:2",
			want: "fail:near fail:far force:near Put fail:near fail:far TryPutBatch:3=1 fail:near fail:far TryPutBatch:2=0",
			puts: 2, forcePuts: 1, saturatedPuts: 2, putBatches: 2, batchTasks: 5},
	}
	for _, tc := range cases {
		for _, noBalancing := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/DisableBalancing=%v", tc.script, noBalancing), func(t *testing.T) {
				fw, rec := newTracedFW(t, noBalancing)
				p, c := fw.Producer(0), fw.Consumer(0)
				want := tc.want
				if noBalancing {
					want = strings.ReplaceAll(want, "fail:far ", "")
				}
				if got := rec.run(tc.script, p, c); got != want {
					t.Errorf("event log\n got %s\nwant %s", got, want)
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
				// Wherever the tasks landed, one consumer gets all of
				// them back and no more.
				var drained int64
				for ; ; drained++ {
					if _, ok := c.Get(); !ok {
						break
					}
				}
				if drained != tc.puts {
					t.Errorf("drained %d tasks, want %d", drained, tc.puts)
				}
			})
		}
	}
}

// TestPutWalkStopsAtFirstAcceptingPool: when only the far pool has a spare
// chunk, every put shape records the near pool's refusal and lands the task
// in the far pool — no force, no saturation — while DisableBalancing never
// looks past the near pool.
func TestPutWalkStopsAtFirstAcceptingPool(t *testing.T) {
	for _, tc := range []struct {
		op          string
		noBalancing bool
		want        string
	}{
		{"Put", false, "fail:near Put"},
		{"TryPut", false, "fail:near TryPut=true"},
		{"PutBatch:2", false, "fail:near PutBatch:2"},
		{"TryPutBatch:2", false, "fail:near TryPutBatch:2=2"},
		{"Put", true, "fail:near force:near Put"},
		{"TryPut", true, "fail:near TryPut=false"},
	} {
		t.Run(fmt.Sprintf("%s/DisableBalancing=%v", tc.op, tc.noBalancing), func(t *testing.T) {
			fw, rec := newTracedFW(t, tc.noBalancing)
			p := fw.Producer(0)
			// Fill one chunk on the near pool and let the far consumer
			// steal and drain it: the emptied chunk recycles into the
			// far pool's chunk pool, the only spare in the system.
			far := fw.Consumer(fw.Placement().ProducerAccessList(0)[1])
			if got := rec.run("Put Put Get Get", p, far); !strings.HasSuffix(got, "Get=true Get=true") {
				t.Fatalf("far consumer did not drain the near pool's chunk: %s", got)
			}
			before := p.Ops()
			if got := rec.run(tc.op, p, far); got != tc.want {
				t.Errorf("event log\n got %s\nwant %s", got, tc.want)
			}
			after := p.Ops()
			if !tc.noBalancing && (after.ForcePuts != before.ForcePuts || after.SaturatedPuts != 0) {
				t.Errorf("a put the far pool accepted moved ForcePuts %d→%d, SaturatedPuts %d",
					before.ForcePuts, after.ForcePuts, after.SaturatedPuts)
			}
		})
	}
}

// getCase is one row of the Get-family table: a situation, the entry points
// it is played against, and exactly how each must come back.
type getCase struct {
	name    string
	methods string // any of "Get GetBatch GetWait GetContext"

	preload  bool // a task is in the pool before the call
	nilStop  bool // GetWait is called with a nil stop channel
	closed   bool // GetWait's stop is closed before the call
	canceled bool // GetContext's ctx is cancelled before the call
	timeout  time.Duration

	// whileParked, when set, runs on another goroutine once the waiter's
	// Parks counter has moved — i.e. the call is provably in its wait loop.
	whileParked func(t *testing.T, fw *framework.Framework[task], stop chan struct{}, cancel func())
	// killInside kills the consumer from inside its own retrieval (a
	// checkEmpty failpoint), the only way to kill a non-waiting Get
	// mid-call.
	killInside bool

	wantTask   bool
	wantCtxErr error // what GetContext reports; the others have no error to give
	wantEmpty  int64
}

// TestGetFamilyExits walks Get/GetBatch/GetWait/GetContext through every
// way out of a retrieval on a 1-producer/2-consumer pool: a task on the
// first pass, the checkEmpty verdict, stop closed, ctx cancelled or past
// its deadline, the consumer killed mid-call, and a task arriving while the
// caller is parked. Parks may move only for a waiting variant that had to
// wait and GetsEmpty only for the checkEmpty verdict of Get and GetBatch.
func TestGetFamilyExits(t *testing.T) {
	putOne := func(_ *testing.T, fw *framework.Framework[task], _ chan struct{}, _ func()) {
		fw.Producer(0).Put(&task{seq: 7})
	}
	// release satisfies whichever exit condition the waiter has.
	release := func(_ *testing.T, _ *framework.Framework[task], stop chan struct{}, cancel func()) {
		close(stop)
		cancel()
	}
	kill := func(t *testing.T, fw *framework.Framework[task], _ chan struct{}, _ func()) {
		if err := fw.KillConsumer(0); err != nil {
			t.Errorf("KillConsumer while parked: %v", err)
		}
	}

	cases := []getCase{
		{name: "task present", methods: "Get GetBatch GetWait GetContext", preload: true, wantTask: true},
		// A first pass that finds a task wins over an exit condition that
		// already holds: the condition is only consulted once waiting.
		{name: "task present, exit condition holds", methods: "GetWait GetContext",
			preload: true, closed: true, canceled: true, wantTask: true},

		{name: "empty pool", methods: "Get GetBatch", wantEmpty: 1},

		{name: "stop closed, ctx cancelled", methods: "GetWait GetContext",
			closed: true, canceled: true, wantCtxErr: context.Canceled},
		{name: "stop closed, ctx cancelled while parked", methods: "GetWait GetContext",
			whileParked: release, wantCtxErr: context.Canceled},
		// Whether the waiter reaches its first park inside the deadline is
		// the scheduler's business; only the verdict is pinned.
		{name: "ctx deadline", methods: "GetContext", timeout: 5 * time.Millisecond,
			wantCtxErr: context.DeadlineExceeded},

		// Killed mid-call: soft-fail as not-found, never as a counted
		// empty; only GetContext names the cause.
		{name: "killed mid-call", methods: "Get GetBatch", killInside: true},
		{name: "killed while parked", methods: "GetWait GetContext", whileParked: kill,
			wantCtxErr: framework.ErrKilled},

		// GetWait(nil) has no stop: it waits for the task.
		{name: "task arrives while parked", methods: "GetWait GetContext", nilStop: true,
			whileParked: putOne, wantTask: true},
	}
	for _, tc := range cases {
		for _, method := range strings.Fields(tc.methods) {
			t.Run(method+"/"+tc.name, func(t *testing.T) { runGetCase(t, method, tc) })
		}
	}
}

func runGetCase(t *testing.T, method string, tc getCase) {
	fw := newFW(t, 1, 2, 2, nil)
	c := fw.Consumer(0)
	if tc.preload {
		fw.Producer(0).Put(&task{seq: 7})
	}

	var stop chan struct{}
	if !tc.nilStop {
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
	switch method {
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
		if got, err = c.GetContext(ctx); !errors.Is(err, tc.wantCtxErr) || (tc.wantCtxErr == nil && err != nil) {
			t.Errorf("err = %v, want %v", err, tc.wantCtxErr)
		}
	}

	if tc.wantTask != (got != nil) {
		t.Errorf("returned task %v, want a task: %v", got, tc.wantTask)
	}
	if got != nil && got.seq != 7 {
		t.Errorf("returned task seq %d, want 7", got.seq)
	}
	ops := c.Ops()
	// A whileParked row has parked by construction (its hook waits for the
	// counter) and a deadline row may have; every other row must not.
	if mayPark := tc.whileParked != nil || tc.timeout > 0; !mayPark && ops.Parks > 0 {
		t.Errorf("Parks = %d on a call that had nothing to wait for", ops.Parks)
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
	cases := []struct {
		script, want string // want: the calls' results, to show which were accepted
		put, get     int64
	}{
		{"Put", "Put", 1, 0},
		{"PutBatch:3", "PutBatch:3", 1, 0},
		{"Put TryPut", "Put TryPut=true", 2, 0}, // the Put opens a chunk the TryPut fits in
		{"TryPut", "TryPut=false", 0, 0},
		{"Put TryPutBatch:3", "Put TryPutBatch:3=3", 2, 0},
		{"TryPutBatch:3", "TryPutBatch:3=0", 0, 0},
		{"Put Get Get", "Put Get=true Get=false", 1, 1},
		{"Put TryGet TryGet", "Put TryGet=true TryGet=false", 1, 1},
		{"Put GetBatch GetBatch", "Put GetBatch=1 GetBatch=0", 1, 1},
		{"Put TryGetBatch TryGetBatch", "Put TryGetBatch=1 TryGetBatch=0", 1, 1},
	}
	for _, tc := range cases {
		for _, latency := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/latency=%v", tc.script, latency), func(t *testing.T) {
				fw := newFW(t, 1, 1, 8, func(c *framework.Config[task]) { c.Latency = latency })
				if got := new(recorder).run(tc.script, fw.Producer(0), fw.Consumer(0)); got != tc.want {
					t.Fatalf("results %s, want %s", got, tc.want)
				}
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
