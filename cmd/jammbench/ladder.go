package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"jamm/internal/aggregate"
	"jamm/internal/benchkit"
	"jamm/internal/bus"
	"jamm/internal/consumer"
	"jamm/internal/gateway"
	"jamm/internal/histstore"
	"jamm/internal/ring"
	"jamm/internal/router"
	"jamm/internal/telemetry"
	"jamm/internal/ulm"
)

// The ladder drives each layer's exported entry points alone, on one
// goroutine, with the workload's own records and the frames its
// publisher seals — the per-layer prices the attribution table
// multiplies by how often a record pays them.

// rungTime is how long one rung is measured; each is measured
// rungRepeats times and the median kept.
const (
	rungTime    = 25 * time.Millisecond
	rungRepeats = 3
)

// rung measures fn, which performs ops operations per call, returning
// nanoseconds and heap allocations per operation.
func rung(ops int, fn func()) (ns, allocs float64) {
	var nss, als []float64
	var ms runtime.MemStats
	for r := 0; r < rungRepeats; r++ {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		calls := 0
		t0 := time.Now()
		for time.Since(t0) < rungTime {
			for i := 0; i < 16; i++ {
				fn()
			}
			calls += 16
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&ms)
		n := float64(calls * ops)
		nss = append(nss, float64(el.Nanoseconds())/n)
		als = append(als, float64(ms.Mallocs-m0)/n)
	}
	return benchkit.Median(nss), benchkit.Median(als)
}

// ladder runs every rung for workload w and returns the per-layer
// metrics it yields.
func ladder(w *workload, seed uint64) (map[string]float64, error) {
	m := map[string]float64{}
	src := newSource(w, []int{0, 1, 2, 3}, seed)
	now := time.Now()
	run := func() (string, []ulm.Record) {
		i := src.nextSensor()
		recs, _ := src.run(i, now)
		return src.sensors[i].name, recs
	}
	topic, recs := run()
	n := len(recs)

	// ---- ulm ----
	m["ulm.text_encode_ns_per_rec"], _ = rung(n, func() {
		for i := range recs {
			sinkString = recs[i].String()
		}
	})
	lines := make([]string, n)
	for i := range recs {
		lines[i] = recs[i].String()
	}
	var perr error
	m["ulm.text_parse_ns_per_rec"], _ = rung(n, func() {
		for _, l := range lines {
			if _, err := ulm.Parse(l); err != nil {
				perr = err
			}
		}
	})
	m["ulm.xml_encode_ns_per_rec"], _ = rung(n, func() {
		for i := range recs {
			if _, err := ulm.ToXML(&recs[i]); err != nil {
				perr = err
			}
		}
	})
	var buf []byte
	m["ulm.bin_encode_ns_per_rec"], _ = rung(n, func() {
		buf = buf[:0]
		for i := range recs {
			buf = ulm.AppendBinary(buf, &recs[i])
		}
	})
	m["ulm.bin_decode_ns_per_rec"], m["ulm.bin_decode_allocs_per_rec"] = rung(n, func() {
		rest := buf
		for range recs {
			var rec ulm.Record
			var err error
			if rest, err = ulm.DecodeBinary(rest, &rec); err != nil {
				perr = err
			}
		}
	})
	if perr != nil {
		return nil, fmt.Errorf("ladder: codec: %w", perr)
	}

	// ---- bus and gateway, with as many wildcard batch subscribers as
	// the workload has consumers that must see every record ----
	subs := 1
	switch w.Name {
	case "fanout-local":
		subs = fanoutAll
	case "replicated-site", "consumer-edge":
		subs = 2
	}
	noop := func([]ulm.Record) {}
	b := bus.New(bus.Options{})
	for i := 0; i < subs; i++ {
		b.SubscribeBatch("", nil, noop)
	}
	m["bus.publish_ns_per_rec"], m["bus.publish_allocs_per_rec"] = rung(n, func() { b.PublishBatch(run()) })

	plain := func(tracer bool, agg bool) (*gateway.Gateway, func()) {
		gw := gateway.New("ladder", nil)
		for i := 0; i < subs; i++ {
			gw.SubscribeBatch(gateway.Request{}, noop) //nolint:errcheck // no authorizer is attached
		}
		if tracer {
			gw.SetTracer(telemetry.NewTracer("ladder", traceSample, telemetry.NewTraceLog(1024)))
		}
		stop := func() {}
		if agg {
			a := aggregate.New(gw, aggregate.Options{Window: 10 * time.Second, Emit: time.Second, Field: valField, TopK: 10})
			stop = a.Close
		}
		return gw, stop
	}
	publish := func(gw *gateway.Gateway) float64 {
		ns, _ := rung(n, func() { gw.PublishBatch(run()) })
		return ns
	}
	bare, _ := plain(false, false)
	traced, _ := plain(true, false)
	withAgg, stopAgg := plain(true, true)
	bareNS, tracedNS, aggNS := publish(bare), publish(traced), publish(withAgg)
	stopAgg()
	m["gateway.publish_ns_per_rec"] = tracedNS
	m["gateway.publish_self_ns_per_rec"] = tracedNS - m["bus.publish_ns_per_rec"]
	m["telemetry.tax_ratio"] = tracedNS / bareNS
	m["aggregate.fold_ns_per_rec"] = aggNS - tracedNS

	traced.EnableSummary(topic, eventE, valField)
	traced.PublishBatch(topic, recs)
	var qerr error
	m["gateway.query_ns"], _ = rung(1, func() {
		if _, found, err := traced.Query("ladder", topic, eventE); err != nil || !found {
			qerr = fmt.Errorf("query: found=%v err=%v", found, err)
		}
	})
	m["gateway.summary_ns"], _ = rung(1, func() {
		if _, err := traced.Summary("ladder", topic, eventE, valField); err != nil {
			qerr = err
		}
	})
	if qerr != nil {
		return nil, fmt.Errorf("ladder: gateway: %w", qerr)
	}

	// ---- aggregate ----
	sk := aggregate.NewSketch(aggregate.DefaultAlpha)
	v := 0.0
	m["aggregate.sketch_add_ns"], _ = rung(1, func() { v += 1.25; sk.Add(v) })
	if rec, err := aggregateRecord(recs); err != nil {
		return nil, err
	} else {
		site := aggregate.NewSite()
		m["aggregate.site_observe_ns"], _ = rung(1, func() { site.Observe(rec) })
	}

	// ---- ring ----
	rg := ring.New([]string{"127.0.0.1:9101", "127.0.0.1:9102", "127.0.0.1:9103"}, 64)
	m["ring.owners_ns"], _ = rung(1, func() { sinkStrings = rg.Owners(topic, 2) })

	if err := ladderWire(w, m, run); err != nil {
		return nil, err
	}
	if err := ladderHistory(w, m, run); err != nil {
		return nil, err
	}
	return m, nil
}

// sinks keep the compiler from discarding a measured call.
var (
	sinkString  string
	sinkStrings []string
)

// aggregateRecord obtains one real _agg/ record: what an Aggregator
// emits after folding recs.
func aggregateRecord(recs []ulm.Record) (ulm.Record, error) {
	gw := gateway.New("ladder", nil)
	var got ulm.Record
	sub := gw.Bus().SubscribeBatchTopicsPrefix(aggregate.TopicPrefix, nil, func(_ string, rs []ulm.Record) {
		if got.Event == "" {
			got = rs[0].Clone()
		}
	})
	defer sub.Cancel()
	a := aggregate.New(gw, aggregate.Options{Window: 10 * time.Second, Field: valField, TopK: 10})
	defer a.Close()
	gw.PublishBatch(sensorName(0), recs)
	a.EmitNow()
	if got.Event == "" {
		return got, fmt.Errorf("ladder: aggregator emitted nothing")
	}
	return got, nil
}

// ladderWire measures the wire and frame rungs over one loopback hop:
// publisher → server → gateway in relay position → frame stream.
func ladderWire(w *workload, m map[string]float64, run func() (string, []ulm.Record)) error {
	n := newNode("ladder", traceSample)
	if err := n.serve(); err != nil {
		return err
	}
	defer n.close()
	c := gateway.NewClient("jammbench", n.srv.Addr())

	// Capture the frames the workload's publisher seals.
	var (
		mu       sync.Mutex
		frames   []*gateway.Frame
		got      atomic.Int64
		frameCnt atomic.Int64
		byteCnt  atomic.Int64
	)
	st, err := c.SubscribeFrameStream(gateway.Request{}, gateway.StreamOptions{BatchMax: batchMax, BatchWait: batchWait},
		func(f *gateway.Frame) {
			mu.Lock()
			if len(frames) < 64 {
				frames = append(frames, f.Clone())
			}
			mu.Unlock()
			frameCnt.Add(1)
			byteCnt.Add(int64(len(f.Bytes())))
			got.Add(int64(f.Count))
		})
	if err != nil {
		return fmt.Errorf("ladder: frame stream: %w", err)
	}
	defer st.Close()
	pub, err := c.NewBatchPublisher("", batchMax, batchWait)
	if err != nil {
		return fmt.Errorf("ladder: publisher: %w", err)
	}
	defer pub.Close() //nolint:errcheck // teardown

	// Loopback throughput: closed loop at the credit window, like the
	// workloads' windowed phase.
	var sent int64
	var perr error
	t0 := time.Now()
	var inCall time.Duration
	for time.Since(t0) < 8*rungTime {
		for sent-got.Load()+int64(w.RunLen) > creditWindow {
			if perr = pub.Flush(); perr != nil {
				break
			}
			runtime.Gosched()
		}
		topic, r := run()
		c0 := time.Now()
		if _, perr = pub.PublishBatch(topic, r); perr != nil {
			break
		}
		inCall += time.Since(c0)
		sent += int64(len(r))
	}
	if perr == nil {
		c0 := time.Now()
		perr = pub.Flush()
		inCall += time.Since(c0)
	}
	if perr != nil {
		return fmt.Errorf("ladder: publish: %w", perr)
	}
	for deadline := time.Now().Add(5 * time.Second); got.Load() < sent; {
		if time.Now().After(deadline) {
			return fmt.Errorf("ladder: loopback delivered %d of %d", got.Load(), sent)
		}
		time.Sleep(200 * time.Microsecond)
	}
	el := time.Since(t0)
	m["gateway.wire.loopback_recs_per_s"] = float64(sent) / el.Seconds()
	m["gateway.wire.publish_ns_per_rec"] = float64(inCall.Nanoseconds()) / float64(sent)
	m["gateway.frame.recs_per_frame"] = float64(got.Load()) / float64(frameCnt.Load())
	m["gateway.frame.bytes_per_rec"] = float64(byteCnt.Load()) / float64(got.Load())

	var qerr error
	ns, _ := rung(1, func() {
		if _, found, err := c.Query(sensorName(0), eventE); err != nil || !found {
			qerr = fmt.Errorf("query: found=%v err=%v", found, err)
		}
	})
	if qerr != nil {
		return fmt.Errorf("ladder: wire: %w", qerr)
	}
	m["gateway.wire.query_rtt_us"] = ns / 1e3

	// ---- frame rungs, on the captured frames ----
	mu.Lock()
	captured := append([]*gateway.Frame(nil), frames...) // the stream callback keeps running
	mu.Unlock()
	if len(captured) == 0 {
		return fmt.Errorf("ladder: captured no frames")
	}
	nf := len(captured)
	perFrame := func(fn func(f *gateway.Frame)) float64 {
		ns, _ := rung(nf, func() {
			for _, f := range captured {
				fn(f)
			}
		})
		return ns
	}
	hop := 0
	m["gateway.frame.sethops_ns_per_frame"] = perFrame(func(f *gateway.Frame) { hop = (hop + 1) % 8; f.SetHops(hop) })
	m["gateway.frame.bumptrace_ns_per_frame"] = perFrame(func(f *gateway.Frame) { f.BumpTrace() })
	var keep *gateway.Frame
	m["gateway.frame.clone_ns_per_frame"] = perFrame(func(f *gateway.Frame) { keep = f.Clone() })
	_ = keep
	var scratch []ulm.Record
	var derr error
	recsIn := 0
	for _, f := range captured {
		recsIn += f.Count
	}
	decNS, _ := rung(recsIn, func() {
		for _, f := range captured {
			if scratch, derr = f.Records(scratch[:0]); derr != nil {
				return
			}
		}
	})
	if derr != nil {
		return fmt.Errorf("ladder: frame decode: %w", derr)
	}
	m["gateway.frame.decode_ns_per_rec"] = decNS

	// PublishFrame in relay position: nothing on the bus, one frame
	// subscriber draining, as on a middle gateway of a chain.
	relay := gateway.New("ladder.relay", nil)
	sub, err := relay.SubscribeFramesFunc(gateway.Request{}, 0, nil, func(*gateway.Frame) {}, func(string, []ulm.Record) {})
	if err != nil {
		return err
	}
	defer sub.Cancel()
	m["gateway.frame.publishframe_ns_per_frame"] = perFrame(func(f *gateway.Frame) {
		if err := relay.PublishFrame(f); err != nil {
			derr = err
		}
	})
	if derr != nil {
		return fmt.Errorf("ladder: PublishFrame: %w", derr)
	}

	// ---- router: one routing client in front of the same server ----
	rt, err := router.New(router.Options{Ring: ring.New([]string{n.srv.Addr()}, 64), Principal: "jammbench",
		BatchMax: batchMax, BatchWait: batchWait})
	if err != nil {
		return err
	}
	defer rt.Close()
	var rerr error
	m["router.publish_ns_per_rec"], _ = rung(w.RunLen, func() {
		for got.Load() < sent-creditWindow {
			runtime.Gosched() // let the stream drain: the rung prices the caller, not a full socket
		}
		topic, r := run()
		if err := rt.PublishBatch(topic, r); err != nil {
			rerr = err
		}
		sent += int64(len(r))
	})
	if rerr == nil {
		rerr = rt.Flush()
	}
	if rerr != nil {
		return fmt.Errorf("ladder: router: %w", rerr)
	}
	return nil
}

// ladderHistory measures the archive rungs on a store of its own.
func ladderHistory(w *workload, m map[string]float64, run func() (string, []ulm.Record)) error {
	dir, err := os.MkdirTemp(scratchRoot, "ladder-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	open := func(name string) (*histstore.Store, error) {
		return histstore.Open(filepath.Join(dir, name), histstore.Options{})
	}
	direct, err := open("append")
	if err != nil {
		return err
	}
	defer direct.Close() //nolint:errcheck // the directory is deleted next
	var aerr error
	m["histstore.append_ns_per_rec"], _ = rung(w.RunLen, func() {
		if err := direct.AppendBatch(run()); err != nil {
			aerr = err
		}
	})
	if aerr != nil {
		return fmt.Errorf("ladder: append: %w", aerr)
	}
	st := direct.Stats()
	m["histstore.append_bytes_per_rec"] = float64(st.Bytes) / float64(st.Records)

	taken, err := open("archiver")
	if err != nil {
		return err
	}
	defer taken.Close() //nolint:errcheck // the directory is deleted next
	arch := consumer.NewArchiver(nil)
	arch.SetHistory(taken)
	m["consumer.archiver_take_ns_per_rec"], _ = rung(w.RunLen, func() { arch.TakeTopicBatch(run()) })
	if e := arch.HistErrors(); e != 0 {
		return fmt.Errorf("ladder: archiver: %d batches failed to persist", e)
	}

	// Replay what the append rung wrote: sealed, so whole segments
	// qualify for the raw path.
	if err := direct.Roll(); err != nil {
		return err
	}
	replay := func(q histstore.Query) (float64, error) {
		var n int64
		t0 := time.Now()
		err := direct.ReplayFrames(q, 256,
			func(_ string, count int, _ []byte) error { n += int64(count); return nil },
			func(_ string, recs []ulm.Record) error { n += int64(len(recs)); return nil })
		if n == 0 && err == nil {
			err = fmt.Errorf("replayed nothing")
		}
		return float64(n) / time.Since(t0).Seconds(), err
	}
	if m["histstore.replay_raw_recs_per_s"], err = replay(histstore.Query{}); err != nil {
		return fmt.Errorf("ladder: raw replay: %w", err)
	}
	if m["histstore.replay_cooked_recs_per_s"], err = replay(histstore.Query{Events: []string{eventE}}); err != nil {
		return fmt.Errorf("ladder: cooked replay: %w", err)
	}
	return nil
}
