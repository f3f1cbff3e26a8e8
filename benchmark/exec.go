package main

import (
	"runtime"
	"time"

	"salsa"
	"salsa/executor"
)

// spinWork is the ~1 µs body of an exec-open task: a dependent xorshift
// chain the compiler cannot fold, the same length on every call.
func spinWork() uint64 {
	x := uint64(88172645463325252)
	for range 700 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// execAdmission sits well above the offered rate, so a shed means the
// system (or the generator) misbehaved, never the configured budget.
var execAdmission = salsa.AdmissionConfig{Rate: 1e6, Burst: 100_000}

const (
	execRate = 50_000 // tasks per second, Poisson
	// execChunk makes the executor's pool deep enough (two spare chunks of
	// this size) to queue through a worker stall of a few hundred ms. At the
	// default 1000 a 40 ms hiccup of this VM, seen about once in 40 trials,
	// saturates the pool and the run is thrown away for a shed.
	execChunk = 8192
)

// runExecOpen is the exec-open workload: one dispatcher submits ~1 µs tasks
// on a Poisson schedule through TrySubmitClass(ClassHigh) to an executor
// with one worker and one submit lane. Latency runs from a task's due time
// to its completion.
func runExecOpen(c config) (trial, error) {
	var tr trial
	t0 := time.Now()
	warm := c.fixed(5000)
	n := max(int(execRate*c.window.Seconds()), 1)
	total := warm + n
	r := &rng{s: c.seed}
	dueWarm, dueRun := poissonDue(r, warm, execRate), poissonDue(r, n, execRate)

	v := newVerifier(int64(total), 1)
	dueAbs := make([]int64, total)
	doneAt := make([]int64, total)
	var callStart, callEnd, startAt []int64
	if c.trace {
		callStart, callEnd, startAt = make([]int64, total), make([]int64, total), make([]int64, total)
	}
	tasks := make([]executor.Task, total)
	for i := range tasks {
		tasks[i] = func() {
			if c.trace {
				startAt[i] = nowNs()
			}
			if spinWork() != 0 {
				v.mark(0, int64(i))
			}
			doneAt[i] = nowNs()
		}
	}
	base := heapInuse()

	ex, err := executor.New(executor.Config{Workers: 1, SubmitLanes: 1, ChunkSize: execChunk, Admission: &execAdmission})
	if err != nil {
		return tr, err
	}
	defer ex.Shutdown(true)
	var refused int64
	// leg submits tasks[first:first+len(due)] on schedule and waits for the
	// admitted ones to finish.
	leg := func(first int, due []int64) {
		start := nowNs() + int64(time.Millisecond)
		for k, d := range due {
			i := first + k
			dueAbs[i] = start + d
			now, late := waitUntil(dueAbs[i], false)
			tr.sends++
			if late {
				tr.late++
			}
			if c.trace {
				callStart[i] = now
			}
			err := ex.TrySubmitClass(tasks[i], salsa.ClassHigh)
			if c.trace {
				callEnd[i] = nowNs()
			}
			if err != nil {
				refused++
			}
		}
		want := int64(first+len(due)) - refused
		for from := nowNs(); ex.Executed() < want && nowNs()-from < stallNs; {
			time.Sleep(50 * time.Microsecond)
		}
	}
	leg(0, dueWarm)
	tr.setup = time.Since(t0)
	tr.sends, tr.late = 0, 0

	var m meter
	m.begin()
	before := ex.Executed()
	leg(warm, dueRun)
	m.end(&tr)
	tr.delivered = ex.Executed() - before
	tr.heap = heapGrowth(base)
	// The baseline counted these; they must still be counted now.
	runtime.KeepAlive(tasks)
	runtime.KeepAlive(dueWarm)
	runtime.KeepAlive(dueRun)
	tr.verdict = v.tally(int64(total), refused)

	tr.lat = make([]int64, 0, n)
	for i := warm; i < total; i++ {
		if doneAt[i] != 0 {
			tr.lat = append(tr.lat, doneAt[i]-dueAbs[i])
		}
	}
	if c.trace {
		tr.layer = map[string]float64{}
		poolCounters(ex.Stats(), tr.layer)
		ac := ex.AdmissionCounters()
		var admits, shedRate, shedSat int64
		for _, a := range ac.Admits {
			admits += a
		}
		for _, reasons := range ac.Sheds {
			shedRate += reasons[salsa.ShedRate.String()] + reasons[salsa.ShedQueueTimeout.String()]
			shedSat += reasons[salsa.ShedSaturated.String()]
		}
		offered := admits + shedRate + shedSat
		tr.layer["admission.admit_ratio"] = ratio(admits, offered)
		tr.layer["admission.shed_rate_frac"] = ratio(shedRate, offered)
		tr.layer["admission.shed_saturated_frac"] = ratio(shedSat, offered)
		tr.layer["executor.panics"] = float64(ex.Panics())

		var lat, lag, admit, queue, run []int64
		for i := warm; i < total; i++ {
			if doneAt[i] == 0 {
				continue
			}
			// The worker can pick a task up before TrySubmitClass returns.
			queued := max(startAt[i], callEnd[i])
			lat = append(lat, doneAt[i]-dueAbs[i])
			lag = append(lag, callStart[i]-dueAbs[i])
			admit = append(admit, callEnd[i]-callStart[i])
			queue = append(queue, queued-callEnd[i])
			run = append(run, doneAt[i]-queued)
			if i%spanEvery == 0 {
				id := int64(i)
				tr.spans = append(tr.spans,
					span{ID: id, Name: "task", StartNs: dueAbs[i], EndNs: doneAt[i]},
					span{ID: id, Name: "sched_lag", Parent: "task", StartNs: dueAbs[i], EndNs: callStart[i]},
					span{ID: id, Name: "admit", Parent: "task", StartNs: callStart[i], EndNs: callEnd[i]},
					span{ID: id, Name: "queue", Parent: "task", StartNs: callEnd[i], EndNs: queued},
					span{ID: id, Name: "run", Parent: "task", StartNs: queued, EndNs: doneAt[i]})
			}
		}
		order := latencyOrder(lat)
		tr.layer["stage.sched_lag_us_p50"] = stageAt(order, lag, 0.50)
		tr.layer["stage.admit_us_p50"] = stageAt(order, admit, 0.50)
		tr.layer["stage.queue_us_p50"] = stageAt(order, queue, 0.50)
		tr.layer["stage.queue_us_p99"] = stageAt(order, queue, 0.99)
		tr.layer["stage.run_us_p50"] = stageAt(order, run, 0.50)
	}
	return tr, nil
}

// spanEvery thins the span file on the open-loop workloads, where every task
// is stamped: stage percentiles use every task, the file keeps one in 16.
const spanEvery = 16
