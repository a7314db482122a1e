package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
)

// The harness: a closed loop of client goroutines, each of which sends its
// next op only when the previous one has come home. Every client of this
// system is a launcher waiting for its agent, which makes the loop closed;
// the box has two processors, which makes the clients two.

const (
	// clientCount is both the number of client goroutines and GOMAXPROCS.
	clientCount = 2
	// windowCount splits a measured run; ops_per_s and p99_us are medians
	// over the windows, which one disturbed window cannot move.
	windowCount = 5
	// probeEvery is the share of ops the traced pass probes.
	probeEvery = 8
	// tailSamples is the sample count a window needs for its 99th
	// percentile to have ten samples beyond it.
	tailSamples = 1000
)

// plan is the shape of a pass. The benchmark always runs standardPlan; the
// tests run a shorter one.
type plan struct {
	// seconds is the length of the measured (or traced) run.
	seconds float64
	// warmup is run and thrown away before measuring: queues fill, pools
	// grow, the log's first compaction ends.
	warmup time.Duration
	// setupRounds is how many times the untraced pass sets its workload up;
	// setup_s is the median.
	setupRounds int
	// primingOps is how many ops set-up serves before it counts as done: the first dials, compiles and cache fills are part of
	// starting the system, and a user waits for them.
	primingOps int
}

func standardPlan(seconds float64) plan {
	return plan{seconds: seconds, warmup: 2 * time.Second, setupRounds: 5, primingOps: 512}
}

func (p plan) run() time.Duration { return time.Duration(p.seconds * float64(time.Second)) }

// End-to-end metric names.
const (
	mOpsPerS     = "ops_per_s"
	mP50         = "p50_us"
	mP99         = "p99_us"
	mAllocsPerOp = "allocs_per_op"
	mSetup       = "setup_s"
)

// metricDef names a metric and its unit. BENCHMARK.json lists the same
// names, with the bounds; bench_test.go holds the two together.
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{mOpsPerS, "1/s"}, {mP50, "us"}, {mP99, "us"}, {mAllocsPerOp, "count"}, {mSetup, "s"},
}

var perLayerDefs = []metricDef{
	{spanCodec + "_us", "us"}, {spanCabinet + "_us", "us"}, {mWireBytes, "B"}, {mRefRatio, "ratio"},
	{spanCall + "_us", "us"},
	{spanDispatch + "_us", "us"}, {mMisses, "count"},
	{spanVerify + "_us", "us"},
	{spanEval + "_us", "us"},
	{spanWake + "_us", "us"}, {mSteals, "count"},
	{spanCommit + "_us", "us"}, {mRecsPerSync, "count"}, {mSyncsPerOp, "count"}, {mBytesPerOp, "B"}, {mCompactions, "count"},
	{spanModel + "_us", "us"},
	{mOpMean, "us"}, {mUnattributed, "ratio"}, {mTracedOps, "1/s"},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one pass over one workload reports.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Samples   int              `json:"samples"`
	Metrics   map[string]value `json:"metrics"`
	// WindowRates is ops per second in each window of an untraced pass;
	// ops_per_s is their median.
	WindowRates []float64 `json:"window_ops_per_s,omitempty"`
	// Notes say what a reader must know to use a number: a p99 that is a
	// lower percentile, the first error of a failed op, a failed check.
	Notes []string `json:"notes,omitempty"`

	spans [][]span // the traced pass's spans, client by client
	perOp counters // the traced pass's counter deltas per op
}

// clientLog is what one client goroutine records during one phase.
type clientLog struct {
	windows   [][]int64 // latencies in ns of the ops that ended in each window
	attempted int64
	failed    int64
	firstErr  error
}

// phase runs every client for d and returns their logs. next holds each
// client's next op index and carries on from phase to phase. With a tracer,
// each op is recorded as a root span and every probeEvery'th is probed.
func phase(w workload, next []int64, d time.Duration, windows int, tr *tracer) ([]clientLog, time.Duration) {
	logs := make([]clientLog, len(next))
	win := d / time.Duration(windows)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range next {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			log := &logs[c]
			log.windows = make([][]int64, windows)
			for {
				i := next[c]
				next[c]++
				t0 := time.Now()
				err := w.op(c, i)
				t1 := time.Now()
				if tr != nil {
					probed := i%probeEvery == 0
					root, id := tr.op(c, i, t0, t1, err == nil, probed)
					if probed {
						w.probe(tr, c, id, i)
						tr.end(c, root)
					}
				}
				off := t1.Sub(start)
				if off >= d {
					return // an op that ends after the phase is not counted
				}
				log.attempted++
				if err != nil {
					log.failed++
					if log.firstErr == nil {
						log.firstErr = err
					}
					continue
				}
				k := min(int(off/win), windows-1)
				log.windows[k] = append(log.windows[k], int64(t1.Sub(t0)))
			}
		}(c)
	}
	wg.Wait()
	return logs, time.Since(start)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setUp sets the workload up `rounds` times, tearing down all but the last,
// and returns the workload ready to run, each client's next op index, and
// the median set-up time. Set-up is the workload's own setup and the first
// primingOps ops.
func setUp(name string, e env, rounds, primingOps int) (workload, []int64, float64, error) {
	var times []float64
	for r := 0; ; r++ {
		w, err := newWorkload(name)
		if err != nil {
			return nil, nil, 0, err
		}
		next := make([]int64, e.clients)
		t0 := time.Now()
		if err = w.setup(e); err == nil {
			err = prime(w, next, primingOps)
		}
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			w.teardown()
			return nil, nil, 0, fmt.Errorf("%s: setup: %w", name, err)
		}
		if r == rounds-1 {
			return w, next, median(times), nil
		}
		w.teardown()
	}
}

// prime has the clients serve n ops between them, as they will when
// measured, and returns the first error.
func prime(w workload, next []int64, n int) error {
	errs := make([]error, len(next))
	var wg sync.WaitGroup
	for c := range next {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < n/len(next) && errs[c] == nil; k++ {
				errs[c] = w.op(c, next[c])
				next[c]++
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// tally folds the clients' logs into the counts of a result.
func tally(res *result, logs []clientLog) (windows [][]int64) {
	windows = make([][]int64, len(logs[0].windows))
	for _, log := range logs {
		res.Attempted += log.attempted
		res.Failed += log.failed
		if log.firstErr != nil && len(res.Notes) < clientCount {
			res.Notes = append(res.Notes, "first failed op: "+log.firstErr.Error())
		}
		for k, w := range log.windows {
			windows[k] = append(windows[k], w...)
			res.Samples += len(w)
		}
	}
	return windows
}

// conclude runs the workload's last check and stamps the result with it.
func conclude(res *result, w workload) {
	res.Correct = true
	if err := w.finish(); err != nil {
		res.Correct = false
		res.Notes = append(res.Notes, "check failed: "+err.Error())
	}
	if res.Samples == 0 {
		res.Correct = false
		res.Notes = append(res.Notes, "no op completed")
	}
}

// measure is the untraced pass: timed set-up, warm-up, a measured run in
// windowCount windows, the workload's last check, teardown. Every
// end-to-end metric comes from here.
func measure(name string, e env, p plan) (result, error) {
	res := result{Workload: name, Seed: e.seed, Seconds: p.seconds, Metrics: make(map[string]value)}
	w, next, setupS, err := setUp(name, e, p.setupRounds, p.primingOps)
	if err != nil {
		return res, err
	}
	defer w.teardown()

	phase(w, next, p.warmup, 1, nil)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run := p.run()
	logs, _ := phase(w, next, run, windowCount, nil)
	runtime.ReadMemStats(&after)

	windows := tally(&res, logs)
	conclude(&res, w)
	if res.Samples == 0 {
		return res, nil
	}

	winS := run.Seconds() / windowCount
	var rates, tails []float64
	var all []int64
	short := false
	for _, lat := range windows {
		rates = append(rates, float64(len(lat))/winS)
		if len(lat) == 0 {
			continue
		}
		slices.Sort(lat)
		at := len(lat) * 99 / 100
		if len(lat) < tailSamples {
			// Too few samples for a 99th percentile with ten beyond it:
			// take the highest percentile that has them.
			at = max(0, len(lat)-11)
			short = true
		}
		tails = append(tails, float64(lat[at])/1e3)
		all = append(all, lat...)
	}
	if short {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: a window held fewer than %d samples, so its tail is the highest percentile with ten samples beyond it",
			mP99, tailSamples))
	}
	slices.Sort(all)
	res.WindowRates = rates
	res.Metrics[mOpsPerS] = value{median(rates), "1/s"}
	res.Metrics[mP50] = value{float64(all[len(all)/2]) / 1e3, "us"}
	res.Metrics[mP99] = value{median(tails), "us"}
	// Allocations are counted over the whole run, failed ops included, and
	// shared among the ops that succeeded.
	res.Metrics[mAllocsPerOp] = value{float64(after.Mallocs-before.Mallocs) / float64(res.Samples), "count"}
	res.Metrics[mSetup] = value{setupS, "s"}
	return res, nil
}

// traced is the traced pass: one set-up, warm-up, then the same closed loop
// with a root span per op and the layer probes on every probeEvery'th.
// Every per-layer metric comes from here.
func traced(name string, e env, p plan) (result, error) {
	res := result{Workload: name, Seed: e.seed, Seconds: p.seconds, Traced: true, Metrics: make(map[string]value)}
	w, next, _, err := setUp(name, e, 1, p.primingOps)
	if err != nil {
		return res, err
	}
	defer w.teardown()

	phase(w, next, p.warmup, 1, nil)
	before := w.counters()
	// Room for the spans, from the rate so far: one per op, up to eight more
	// on every probeEvery'th, and a quarter to spare.
	var primed int64
	for _, n := range next {
		primed = max(primed, n)
	}
	room := float64(primed) / p.warmup.Seconds() * p.seconds * 2 * 1.25
	tr := newTracer(name, e.clients, int(room))
	logs, elapsed := phase(w, next, p.run(), 1, tr)
	after := w.counters()

	tally(&res, logs)
	conclude(&res, w)
	res.spans = tr.clients
	if res.Attempted == 0 {
		return res, nil
	}

	// Ops that ended after the phase are in the counters, so the per-op
	// divisor is the number of root spans, not the number attempted.
	unit, count := meanByName(res.spans)
	ops := float64(count[rootName])
	per := after.perOp(before, ops)
	layers := w.attribute(probeStats{unit, count}, per)
	per.wireMetrics(layers)
	opMean := unit[name+spanOp]
	var attributed float64
	for _, d := range perLayerDefs {
		if d.unit == "us" {
			attributed += layers[d.name]
		}
	}
	layers[mOpMean] = opMean
	layers[mUnattributed] = 1 - attributed/opMean
	layers[mTracedOps] = float64(res.Samples) / elapsed.Seconds()
	for _, d := range perLayerDefs {
		res.Metrics[d.name] = value{layers[d.name], d.unit}
	}
	res.perOp = per
	return res, nil
}
