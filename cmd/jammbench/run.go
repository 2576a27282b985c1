package main

import (
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"jamm/internal/benchkit"
)

// runOpts says how long and how one pass over a workload runs.
type runOpts struct {
	seed    uint64
	paced   int // measuring windows of the open-loop phase; 0 skips it
	windows int // measuring windows of the closed-loop phase
	setups  int // how many times set-up is repeated at most (the median is reported)
	shed    int // windows of the shed-check phase; 0 skips it
	traced  bool
	quiet   bool // a sweep point: no per-phase lines

	traceOut string // traced pass: file the spans are written to
}

// Set-up is repeated so that setup_s is a median: until the repeats so
// far, teardowns included, and one more set-up would take over
// maxSetupTime together, but at least minSetups and at most maxSetups
// times.
const (
	minWindows   = 5 // measuring windows a phase of a full pass has at least
	minSetups    = 3
	maxSetups    = 25
	maxSetupTime = 3 * time.Second
)

// optsFor sizes a pass from the -seconds budget: the budget is the
// measured time of the paced and windowed phases together, in windows of
// one second. The windowed phase gets minWindows of them and the paced
// phase, where every bounded metric but setup_s is read, the rest, never
// fewer than minWindows.
func optsFor(seconds int, seed uint64, traced bool) runOpts {
	o := runOpts{seed: seed, paced: max(seconds-minWindows, minWindows), windows: minWindows, setups: maxSetups, shed: 1, traced: traced}
	if traced {
		// The traced pass reports no set-up time.
		o.paced, o.setups = minWindows, 1
	}
	return o
}

// runResult is one pass over one workload.
type runResult struct {
	traced    bool
	values    map[string]float64 // metric name → value
	counts    map[string]string  // metric name → what the value was computed from
	attempted int64
	failed    int64
	errs      []string

	spans []benchkit.SpanTotals // kept from a traced pass for the attribution table
}

func (r *runResult) set(name string, v float64, from string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail(fmt.Sprintf("%s: no value (%s)", name, from))
		return
	}
	r.values[name] = v
	if from != "" {
		r.counts[name] = from
	}
}

func (r *runResult) fail(msg string) { r.errs = append(r.errs, msg) }

// bestWindow sets a metric to the best of its per-window values (see
// benchkit.BestOfWindows), scaled into the metric's unit.
func (r *runResult) bestWindow(name string, vals []float64, n int64, higher bool, scale float64) {
	best, windows := benchkit.BestOfWindows(vals, higher)
	r.set(name, best*scale, fmt.Sprintf("best of %d windows, %d samples", windows, n))
}

// generators is how many generator goroutines a workload gets: one per
// connection it publishes on, and for the in-process workload one per
// CPU.
func generators(w *workload) int {
	if w.Name == "fanout-local" {
		return runtime.NumCPU()
	}
	return 1
}

// runWorkload sets the workload up (several times, keeping the last),
// drives its phases, checks its outputs and computes its metrics.
func runWorkload(w *workload, o runOpts) *runResult {
	res := &runResult{traced: o.traced, values: map[string]float64{}, counts: map[string]string{}}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		res.fail(err.Error())
		return res
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-*")
	if err != nil {
		res.fail(err.Error())
		return res
	}
	defer os.RemoveAll(dir)

	var tr *tracing
	if o.traced {
		tr = newTracing()
	}
	var h *harness
	var setups []float64
	began := time.Now()
	for i := 0; i < o.setups; i++ {
		if i >= minSetups && time.Since(began).Seconds()+benchkit.Median(setups) > maxSetupTime.Seconds() {
			break
		}
		if h != nil {
			h.topo.close()
			if err := os.RemoveAll(dir); err != nil {
				res.fail(err.Error())
				return res
			}
		}
		h = newHarness(w, o.seed, generators(w), dir, tr)
		if tr != nil {
			tr.attach(h)
		}
		t0 := time.Now() // the system's set-up, not the harness's tables
		if err := build(h); err != nil {
			res.fail("set-up: " + err.Error())
			return res
		}
		if err := h.warmUp(); err != nil {
			h.topo.close()
			res.fail("set-up: " + err.Error())
			return res
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer h.topo.close()

	say := func(format string, a ...any) {
		if !o.quiet {
			sayf(format, a...)
		}
	}
	// The traced pass prints what every exported Stats() counter moved
	// by in each phase.
	runPhase := h.runPhase
	if o.traced && !o.quiet {
		runPhase = func(kind int32, rate float64, warm time.Duration, windows int) (phaseResult, error) {
			before := map[string]float64{}
			h.topo.counters(before)
			p, err := h.runPhase(kind, rate, warm, windows)
			after := map[string]float64{}
			h.topo.counters(after)
			for _, k := range slices.Sorted(maps.Keys(after)) {
				if d := after[k] - before[k]; d != 0 && !strings.HasSuffix(k, "_ratio") {
					sayf("    %-34s %+14.0f\n", k, d)
				}
			}
			return p, err
		}
	}
	var paced, windowed phaseResult
	if o.paced > 0 {
		if paced, err = runPhase(phasePaced, w.Rate, phaseWarm, o.paced); err != nil {
			res.fail("paced phase: " + err.Error())
			return res
		}
		say("  paced     %8.0f recs/s offered   %9d offered %9d delivered\n", w.Rate, paced.offered, paced.done)
		res.pacedMetrics(h, paced)
		// Warm and ready is where the first window opens: the set-up, then
		// the paced phase's warm-up. The warm-up is a timer and gives the
		// metric the floor the issue asked for: three of the four set-ups
		// take milliseconds, and on the reference host a millisecond-sized
		// time moves by half from one quarter hour to the next.
		res.set("setup_s", benchkit.Median(setups)+paced.warm.Seconds(),
			fmt.Sprintf("median of %d set-ups (%.4fs) + the paced phase's warm-up", len(setups), benchkit.Median(setups)))
		// Read here, not after the windowed phase: the paced phase offers
		// the same number of records every run, so what the program keeps
		// per record (summary windows, caches, archives' indexes) has grown
		// by the same amount.
		res.set("live_heap_mb", liveHeapMB(), "HeapAlloc after a forced GC")
	}
	if windowed, err = runPhase(phaseWindowed, 0, phaseWarm, o.windows); err != nil {
		res.fail("windowed phase: " + err.Error())
		return res
	}
	say("  windowed  %8d in flight        %9d offered %9d delivered\n", creditWindow, windowed.offered, windowed.done)
	res.windowedMetrics(windowed)
	if o.paced == 0 {
		res.allocMetrics(windowed)
	}

	// Failed operations: records offered in the two measured phases and
	// not fully delivered, plus reads that failed or answered wrong.
	res.attempted = paced.offered + windowed.offered
	res.failed = res.attempted - paced.done - windowed.done
	if e, ok := h.topo.(*consumerEdge); ok {
		e.readMu.Lock()
		res.attempted += e.reads
		res.failed += e.readFails
		e.readMu.Unlock()
	}
	res.set("loss_ratio", float64(res.failed)/float64(max(res.attempted, 1)), fmt.Sprintf("%d of %d operations", res.failed, res.attempted))

	if o.shed > 0 {
		shed, err := runPhase(phaseShed, shedFactor*w.Rate, 0, o.shed)
		if err != nil {
			res.fail("shed-check phase: " + err.Error())
			return res
		}
		say("  shed      %8.0f recs/s offered   %9d offered %9d delivered %9d counted dropped\n",
			shedFactor*w.Rate, shed.offered, shed.done, h.topo.drops())
		dur := float64(shed.snaps[len(shed.snaps)-1].T-shed.snaps[0].T) / 1e9
		res.set("shed.goodput_recs_per_s", float64(shed.done)/dur, "")
		res.set("shed.loss_ratio", float64(shed.offered-shed.done)/float64(max(shed.offered, 1)), "")
	}
	counters := map[string]float64{}
	h.topo.counters(counters)
	for k, v := range counters {
		res.set(k, v, "exported Stats() at the end of the run")
	}
	if o.traced {
		res.tracedMetrics(h, o.traceOut)
	}
	return res
}

func bounds(snaps []benchkit.Snapshot) []int64 {
	b := make([]int64, len(snaps))
	for i := range snaps {
		b[i] = snaps[i].T
	}
	return b
}

// pacedMetrics turns the open-loop phase into latency and lateness.
func (r *runResult) pacedMetrics(h *harness, p phaseResult) {
	b := bounds(p.snaps)
	h.sampMu.Lock()
	samples := h.samples
	h.sampMu.Unlock()
	lowestPercentile := func(name string, samples []benchkit.Sample, q float64) {
		vals, n := benchkit.PercentilePerWindow(samples, b, q)
		r.bestWindow(name, vals, n, false, 1e-3) // ns → us
	}
	lowestPercentile("latency_p50_us", samples, 0.50)
	lowestPercentile("latency_p99_us", samples, 0.99)
	r.allocMetrics(p)
	late := make([]benchkit.Sample, len(p.late))
	for i, l := range p.late {
		late[i] = benchkit.Sample{V: l, W: 1}
	}
	l99, n := benchkit.Percentile(late, 0.99)
	r.set("gen.late_p99_us", l99/1e3, fmt.Sprintf("%d ticks", n))
	r.set("gen.publish_busy_share", p.busy, "")
	if e, ok := h.topo.(*consumerEdge); ok {
		e.readMu.Lock()
		queries, rawHist, filtHist := e.queries, e.rawHist, e.filtHist
		e.readMu.Unlock()
		lowestPercentile("query_p50_us", queries, 0.50)
		lowestPercentile("query_p99_us", queries, 0.99)
		// A history sample's value is the records per second of one call;
		// a window's figure is the median call in it.
		raw, n := benchkit.PercentilePerWindow(rawHist, b, 0.50)
		r.bestWindow("history_raw_recs_per_s", raw, n, true, 1)
		filt, n := benchkit.PercentilePerWindow(filtHist, b, 0.50)
		r.bestWindow("history_filtered_recs_per_s", filt, n, true, 1)
	}
}

// allocMetrics sets allocation per record over all of a phase's windows
// together. The phase is the paced one (a sweep point, which has none,
// uses its windowed phase): it offers every run the same records at the
// same rate, so what the process allocates per second beside what it
// allocates per record — timers, GC, summary windows rolling — is the
// same share every time.
func (r *runResult) allocMetrics(p phaseResult) {
	whole := benchkit.WindowRates([]benchkit.Snapshot{p.snaps[0], p.snaps[len(p.snaps)-1]})
	from := fmt.Sprintf("%d windows together, %d records", len(p.snaps)-1, whole.TotalRecords)
	r.set("allocs_per_rec", max(whole.AllocsPerRec[0], allocsFloor), from)
	r.set("alloc_bytes_per_rec", whole.BytesPerRec[0], from)
}

// windowedMetrics turns the closed-loop phase into capacity and cost:
// the rate of the best window and the CPU it cost per record in that
// same window.
func (r *runResult) windowedMetrics(p phaseResult) {
	rates := benchkit.WindowRates(p.snaps)
	best := 0
	for i, v := range rates.RecsPerS {
		if v > rates.RecsPerS[best] {
			best = i
		}
	}
	from := fmt.Sprintf("best of %d windows, %d records", len(rates.RecsPerS), rates.TotalRecords)
	r.set("max_recs_per_s", rates.RecsPerS[best], from)
	r.set("cpu_s_per_mrec", rates.CPUSPerMrec[best], from+" (the same window)")
}
