package gateway

import (
	"strings"
	"testing"
	"time"

	"jamm/internal/telemetry"
	"jamm/internal/ulm"
)

// TestFrameTraceBump pins the in-frame trace patch: a sealed batch
// frame carrying a stamped record exposes its trace id, BumpTrace
// rewrites only the two hop hex digits (CRC stays valid), and the
// bumped hop survives a full decode.
func TestFrameTraceBump(t *testing.T) {
	rec := mkRec("E", 0, 1)
	telemetry.StampTrace(&rec, 0xabcdef0123456789, 0)
	buf := appendBatchFrame(nil, 0, "cpu", []ulm.Record{rec, mkRec("E", time.Second, 2)})
	f, err := parseBatchFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	id, hop, ok := f.Trace()
	if !ok || id != 0xabcdef0123456789 || hop != 0 {
		t.Fatalf("Trace() = %x, %d, %v; want abcdef0123456789, 0, true", id, hop, ok)
	}
	if !f.BumpTrace() {
		t.Fatal("BumpTrace found no trace attribute")
	}
	if err := verifyFrame(f.Bytes()); err != nil {
		t.Fatalf("frame CRC broken after BumpTrace: %v", err)
	}
	if id, hop, ok = f.Trace(); !ok || id != 0xabcdef0123456789 || hop != 1 {
		t.Fatalf("after bump Trace() = %x, %d, %v; want same id at hop 1", id, hop, ok)
	}
	recs, err := f.Records(nil)
	if err != nil || len(recs) != 2 {
		t.Fatalf("decode after bump: %v (%d records)", err, len(recs))
	}
	v, _ := recs[0].Get(telemetry.TraceField)
	if gotID, gotHop, ok := telemetry.ParseTrace(v); !ok || gotID != 0xabcdef0123456789 || gotHop != 1 {
		t.Fatalf("decoded trace = %q, want hop 1", v)
	}
	if _, ok := recs[1].Get(telemetry.TraceField); ok {
		t.Fatal("untraced record grew a trace attribute")
	}
}

// TestFrameTraceBumpCapsAtMaxHops: at the hop ceiling BumpTrace
// declines (returning false, frame untouched) instead of wrapping.
func TestFrameTraceBumpCapsAtMaxHops(t *testing.T) {
	rec := mkRec("E", 0, 1)
	telemetry.StampTrace(&rec, 7, maxFrameHops)
	buf := appendBatchFrame(nil, 0, "cpu", []ulm.Record{rec})
	f, err := parseBatchFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.BumpTrace() {
		t.Fatal("BumpTrace bumped past maxFrameHops")
	}
	if _, hop, ok := f.Trace(); !ok || hop != maxFrameHops {
		t.Fatalf("hop = %d, want untouched %d", hop, maxFrameHops)
	}
	if err := verifyFrame(f.Bytes()); err != nil {
		t.Fatalf("declined bump corrupted frame: %v", err)
	}
}

// BenchmarkPublishInstrumented measures the telemetry tax on the hot
// publish path: the same PublishBatch loop bare and with a tracer
// attached at a realistic sampling rate, interleaved best-of-5 so the
// two runs share the machine's mood. The instrumented path must stay
// within 5% of bare (plus a fixed epsilon for timer noise at small N) —
// CI runs this as a smoke bench, so a telemetry regression fails the
// build.
func BenchmarkPublishInstrumented(b *testing.B) {
	const batch = 8
	recs := make([]ulm.Record, batch)
	for i := range recs {
		recs[i] = mkRec("E", time.Duration(i)*time.Millisecond, float64(i))
	}
	mk := func(instrumented bool) *Gateway {
		g := New("gw", func() time.Time { return epoch })
		g.Register("cpu", Meta{Host: "h1.lbl.gov", Type: "cpu", Interval: time.Second})
		if instrumented {
			reg := telemetry.NewRegistry()
			tr := telemetry.NewTracer("gw", 1024, telemetry.NewTraceLog(64))
			tr.RegisterStages(reg, "ingest")
			g.SetTracer(tr)
		}
		return g
	}
	gBare, gInst := mk(false), mk(true)
	measure := func(g *Gateway) time.Duration {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			g.PublishBatch("cpu", recs)
		}
		return time.Since(start)
	}
	bestBare, bestInst := time.Duration(1<<62), time.Duration(1<<62)
	b.ResetTimer()
	for round := 0; round < 5; round++ {
		if d := measure(gBare); d < bestBare {
			bestBare = d
		}
		if d := measure(gInst); d < bestInst {
			bestInst = d
		}
	}
	b.StopTimer()
	perOpBare := float64(bestBare.Nanoseconds()) / float64(b.N)
	perOpInst := float64(bestInst.Nanoseconds()) / float64(b.N)
	b.ReportMetric(perOpBare, "bare-ns/op")
	b.ReportMetric(perOpInst, "instr-ns/op")
	if b.N >= 100 && perOpInst > perOpBare*1.05+50 {
		b.Errorf("instrumented publish %.0f ns/op vs bare %.0f ns/op: tax above 5%%", perOpInst, perOpBare)
	}
}

// TestWireStageCoversEveryFrameOfABurst: frames that leave in one
// gathered write are each observed in the "wire" stage — every one of
// them waited for that write — and each sampled frame, relayed or
// cooked, still gets its own trace event.
func TestWireStageCoversEveryFrameOfABurst(t *testing.T) {
	reg := telemetry.NewRegistry()
	log := telemetry.NewTraceLog(16)
	tr := telemetry.NewTracer("gw", 0, log)
	tr.RegisterStages(reg, "wire")
	g := New("gw", nil)
	g.SetTracer(tr)
	sub, err := g.subscribeQueued(Request{}, 0, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	w := newFrameCodec(nopConn{}, nil).events("", sub)

	stamped := func(id uint64) ulm.Record {
		rec := mkRec("E", 0, 1)
		telemetry.StampTrace(&rec, id, 3)
		return rec
	}
	w.add("mem", []ulm.Record{stamped(0xc0)}, 64) // a cooked partial
	for i := 0; i < 4; i++ {
		rec := mkRec("E", 0, float64(i))
		if i == 2 {
			rec = stamped(0xf2)
		}
		f := mustParseFrame(t, appendBatchFrame(nil, 0, "cpu", []ulm.Record{rec}))
		w.(frameRelay).relay(&frameItem{f: f.Retain()})
	}
	if err := w.commit(); err != nil {
		t.Fatal(err)
	}
	var metrics strings.Builder
	if err := reg.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	if want := `jamm_trace_stage_latency_ns_count{stage="wire"} 5`; !strings.Contains(metrics.String(), want) {
		t.Fatalf("the wire stage did not observe all 5 frames of the burst: no %q in\n%s", want, metrics.String())
	}
	for id, sensor := range map[uint64]string{0xc0: "mem", 0xf2: "cpu"} {
		evs := log.Events(id)
		if len(evs) != 1 || evs[0].Stage != "wire" || evs[0].Sensor != sensor || evs[0].Hop != 3 {
			t.Fatalf("trace %x: events %+v, want one wire event for %s at hop 3", id, evs, sensor)
		}
	}
}
