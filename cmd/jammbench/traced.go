package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"jamm/internal/benchkit"
)

// runTraced is the traced pass over one workload: the workload again
// with spans, taps and 1-in-16 tracer sampling; the ladder; on
// relay-chain the hop and run-length sweeps; and the attribution table.
// untraced is the untraced pass of the same invocation, if there was
// one; without it a short untraced windowed run supplies the reference
// for trace.overhead_ratio.
func runTraced(w *workload, seed uint64, seconds int, untraced *runResult, traceOut string) *runResult {
	sweep := sweepOpts(seed)
	ref := untraced
	if ref == nil {
		sayf("  untraced reference (windowed only)\n")
		ref = runWorkload(w, sweep)
	}
	o := optsFor(seconds, seed, true)
	o.traceOut = traceOut
	res := runWorkload(w, o)
	res.errs = append(res.errs, ref.errs...)
	if len(res.errs) > 0 {
		return res
	}
	res.set("trace.overhead_ratio", res.values["max_recs_per_s"]/ref.values["max_recs_per_s"],
		fmt.Sprintf("traced %.0f over untraced %.0f recs/s", res.values["max_recs_per_s"], ref.values["max_recs_per_s"]))

	rungs, err := ladder(w, seed)
	if err != nil {
		res.fail(err.Error())
		return res
	}
	for k, v := range rungs {
		res.set(k, v, "ladder")
	}

	if w.Name == "relay-chain" {
		res.sweeps(w, sweep, ref)
	}
	res.attribution(w)
	if untraced == nil {
		// Alone, the traced pass also reports the end-to-end metrics that
		// BENCHMARK.json lists under per_layer; the two of the windowed
		// phase are read off the untraced reference, which has no other.
		for _, d := range endToEnd {
			if v, ok := ref.values[d.Name]; ok && d.Bound == 0 {
				res.set(d.Name, v, "untraced reference, "+ref.counts[d.Name])
			}
		}
	}
	return res
}

// sweepOpts is a windowed-only untraced pass: three 1s windows.
func sweepOpts(seed uint64) runOpts {
	return runOpts{seed: seed, windows: 3, setups: 1, quiet: true}
}

// tracedMetrics reads what the traced pass's instrumentation collected,
// while the topology is still up.
func (r *runResult) tracedMetrics(h *harness, traceOut string) {
	tr := h.tr
	spans := tr.spans.Snapshot()
	r.spans = tr.spans.Totals(spans)
	if d := tr.spans.Dropped.Load(); d > 0 {
		sayf("  ! span log full: %d spans not recorded\n", d)
	}
	for _, t := range r.spans {
		per := 0.0
		if t.Records > 0 {
			per = float64(t.TotalNS) / float64(t.Records)
		}
		switch t.Name {
		case "bridge.target":
			r.set("bridge.target_publish_ns_per_rec", per, fmt.Sprintf("%d spans", t.Count))
		case "bridge.replicator.forward":
			r.set("bridge.replicator.forward_ns_per_rec", per, fmt.Sprintf("%d spans", t.Count))
		}
	}
	if traceOut != "" {
		if err := writeSpans(tr.spans, spans, traceOut); err != nil {
			r.fail("trace-out: " + err.Error())
		}
	}

	// Per-gateway taps of a chain.
	var hopP50 []float64
	tr.hopMu.Lock()
	for i := range tr.hops {
		if len(tr.hops[i]) == 0 {
			break
		}
		p50, n := benchkit.Percentile(tr.hops[i], 0.5)
		hopP50 = append(hopP50, p50)
		r.set(fmt.Sprintf("hop.%d_latency_p50_us", i), p50/1e3, fmt.Sprintf("%d tapped records", n))
	}
	tr.hopMu.Unlock()
	if n := len(hopP50); n > 1 {
		r.set("bridge.relay_hop_latency_us", (hopP50[n-1]-hopP50[0])/float64(n-1)/1e3, "hop taps, last minus first over the hops between")
	}

	// Stage histograms, as an operator scrapes them.
	sum := map[string]stageHist{}
	var took time.Duration
	regs := h.topo.registries()
	for _, reg := range regs {
		hists, d, err := scrapeStages(reg)
		if err != nil {
			r.fail(err.Error())
			return
		}
		took += d
		for stage, hist := range hists {
			if sum[stage] == nil {
				sum[stage] = stageHist{}
			}
			for up, n := range hist {
				sum[stage][up] += n
			}
		}
	}
	r.set("telemetry.scrape_ms", took.Seconds()*1e3/float64(len(regs)), fmt.Sprintf("mean of %d registries", len(regs)))
	attributed := 0.0
	path := stagePath(h.w)
	for _, stage := range stages {
		p50, n := histP50(sum[stage])
		r.set("telemetry.stage."+stage+"_p50_us", p50/1e3, fmt.Sprintf("%d observations", n))
		attributed += p50 / 1e3 * float64(path[stage])
	}
	if lat, ok := r.values["latency_p50_us"]; ok {
		r.set("attrib.latency_unattributed_us", lat-attributed, fmt.Sprintf("latency p50 %.0fus minus stage p50s on the path %v", lat, path))
	}
}

// stagePath is how many times a record crosses each traced stage on its
// way to the measuring consumer.
func stagePath(w *workload) map[string]int {
	switch w.Name {
	case "relay-chain":
		return map[string]int{"wire": w.Hops, "relay": w.Hops, "bus": 1}
	case "replicated-site":
		return map[string]int{"forward": 1, "mirror": 1, "bus": w.ReplicaK}
	case "consumer-edge":
		return map[string]int{"bus": 1, "wire": 1}
	}
	return map[string]int{"bus": 1}
}

// histP50 is the median of a scraped histogram: the upper bound of the
// bucket holding the middle observation.
func histP50(h stageHist) (float64, int64) {
	buckets := make([]benchkit.Sample, 0, len(h))
	for up, n := range h {
		buckets = append(buckets, benchkit.Sample{V: int64(up), W: int32(n)})
	}
	p50, total := benchkit.Percentile(buckets, 0.5)
	if total == 0 {
		return 0, 0
	}
	return p50, total
}

func writeSpans(s *benchkit.Spans, spans []benchkit.Span, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSONL(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sweeps re-runs relay-chain untraced and windowed-only across hop
// counts and run lengths, so the per-frame versus per-byte split behind
// the headline number is regenerated with it. ref is the untraced run
// at the workload's own parameters.
func (r *runResult) sweeps(w *workload, o runOpts, ref *runResult) {
	type point struct {
		hops, runLen int
		res          *runResult
	}
	points := []point{{w.Hops, w.RunLen, ref}}
	for _, hops := range []int{0, 1, 2} {
		points = append(points, point{hops: hops, runLen: w.RunLen})
	}
	for _, runLen := range []int{1, 16, 64} {
		points = append(points, point{hops: w.Hops, runLen: runLen})
	}
	sayf("  relay-chain sweeps (untraced, windowed phase only, %d windows each)\n", o.windows)
	sayf("    %4s %7s %14s %16s %14s\n", "hops", "run_len", "max_recs_per_s", "cpu_s_per_mrec", "allocs_per_rec")
	var xs, ys []float64
	for i := range points {
		p := &points[i]
		if p.res == nil {
			v := *w
			v.Hops, v.RunLen = p.hops, p.runLen
			p.res = runWorkload(&v, o)
			if len(p.res.errs) > 0 {
				r.fail(fmt.Sprintf("sweep hops=%d run_len=%d: %s", p.hops, p.runLen, strings.Join(p.res.errs, "; ")))
				return
			}
		}
		sayf("    %4d %7d %14.0f %16.4f %14.3f\n", p.hops, p.runLen,
			p.res.values["max_recs_per_s"], p.res.values["cpu_s_per_mrec"], p.res.values["allocs_per_rec"])
		if p.runLen == w.RunLen {
			xs = append(xs, float64(p.hops))
			ys = append(ys, p.res.values["cpu_s_per_mrec"])
		}
	}
	r.set("bridge.relay_hop_cpu_s_per_mrec", slope(xs, ys), fmt.Sprintf("least-squares slope over hops %v", xs))
}

// slope is the least-squares slope of ys over xs.
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// term is one row of the attribution table: a layer's measured price
// per record, and how many times a fully delivered record pays it.
type term struct {
	layer string
	ns    float64
	times float64
}

// attribution prints, for one workload, what each layer's ladder price
// adds up to per fully delivered record against the CPU the traced
// pass measured for the whole process, and the remainder as
// unattributed.
func (r *runResult) attribution(w *workload) {
	v := r.values
	rung := func(name string, times float64) term { return term{name, v[name], times} }
	// What the harness's own subscriber callbacks cost, from their spans.
	var cbNS, cbRecs int64
	for _, t := range r.spans {
		if strings.HasPrefix(t.Name, "consumer.") {
			cbNS += t.SelfNS
			cbRecs += t.Records
		}
	}
	callbacks := func(times float64) term {
		per := 0.0
		if cbRecs > 0 {
			per = float64(cbNS) / float64(cbRecs)
		}
		return term{"harness consumer callbacks (span self time)", per, times}
	}
	var terms []term
	switch w.Name {
	case "relay-chain":
		terms = []term{
			rung("gateway.wire.publish_ns_per_rec", 1),
			{"bridge.relay_hop_cpu_s_per_mrec (sweep slope)", v["bridge.relay_hop_cpu_s_per_mrec"] * 1e3, float64(w.Hops)},
			rung("gateway.frame.decode_ns_per_rec", 1),
			rung("gateway.publish_ns_per_rec", 1),
			callbacks(1),
		}
	case "fanout-local":
		terms = []term{
			rung("bus.publish_ns_per_rec", 1),
			rung("gateway.publish_self_ns_per_rec", 1),
			rung("aggregate.fold_ns_per_rec", 1),
			callbacks(fanoutAll),
		}
	case "replicated-site":
		k := float64(w.ReplicaK)
		terms = []term{
			rung("router.publish_ns_per_rec", 1),
			rung("gateway.frame.decode_ns_per_rec", k),
			rung("gateway.publish_ns_per_rec", k),
			rung("consumer.archiver_take_ns_per_rec", k),
			rung("bridge.replicator.forward_ns_per_rec", 1),
			callbacks(k),
		}
	case "consumer-edge":
		terms = []term{
			rung("gateway.wire.publish_ns_per_rec", 1),
			rung("gateway.frame.decode_ns_per_rec", 2), // the gateway's ingest, and the v2 client
			rung("gateway.publish_ns_per_rec", 1),
			rung("consumer.archiver_take_ns_per_rec", 1),
			rung("ulm.text_encode_ns_per_rec", 1), // JSON/ULM subscriber
			rung("ulm.text_parse_ns_per_rec", 1),  // and its client
			rung("ulm.xml_encode_ns_per_rec", float64(edgeXMLSensors)/float64(w.Sensors)),
			callbacks(2),
		}
	}
	measured := v["cpu_s_per_mrec"] * 1e3 // ns of process CPU per fully delivered record
	sayf("  attribution: CPU per fully delivered record (traced pass)\n")
	sayf("    %-52s %10s %7s %12s\n", "layer", "ns/rec", "x", "ns")
	sum := 0.0
	for _, t := range terms {
		sayf("    %-52s %10.1f %7.3f %12.1f\n", t.layer, t.ns, t.times, t.ns*t.times)
		sum += t.ns * t.times
	}
	sayf("    %-52s %10s %7s %12.1f\n", "sum of layers", "", "", sum)
	sayf("    %-52s %10s %7s %12.1f\n", "measured (cpu_s_per_mrec)", "", "", measured)
	sayf("    %-52s %10s %7s %12.1f\n", "unattributed", "", "", measured-sum)
	r.set("attrib.cpu_attributed_share", sum/measured, "")
	r.set("attrib.cpu_unattributed_s_per_mrec", (measured-sum)/1e3, "")
}
