package main

import (
	"sync"

	"jamm/internal/benchkit"
	"jamm/internal/bridge"
	"jamm/internal/gateway"
	"jamm/internal/ulm"
)

// tracing is the traced pass's instrumentation, all of it in the
// harness's own files: spans around the calls the harness makes into a
// layer and around the interfaces it owns (bridge.Target,
// gateway.Forwarder, subscriber callbacks), and a tap on every gateway
// of a chain. Spans are sampled by time slice — one slice of ~1ms in
// every 16 — so that a call and the callbacks nested inside it are
// sampled together, on every hop at once, and an unsampled call costs
// one clock read.
type tracing struct {
	clk   *benchkit.WallClock
	spans *benchkit.Spans
	names map[string]int
	h     *harness

	genSpan int
	taps    []func() // cancels of the per-gateway taps

	hopMu sync.Mutex
	hops  [maxHops][]benchkit.Sample // due → seen at gateway i of a chain
}

const (
	maxHops    = 4
	spanBuffer = 1 << 20
	sliceShift = 20 // 2^20 ns ≈ 1ms slices
	sliceEvery = 16 // one slice in 16 is sampled
	tapEvery   = 16 // a tap looks at one frame or batch in 16
)

func newTracing() *tracing {
	t := &tracing{names: map[string]int{}}
	t.spans = benchkit.NewSpans(spanBuffer)
	t.genSpan = t.spanName("gen.publish")
	for _, call := range []string{"gateway.wire.query", "gateway.wire.summary", "gateway.wire.history_raw", "gateway.wire.history_filtered"} {
		t.spanName(call)
	}
	return t
}

// attach binds the tracing to the harness whose clock and tracker it
// reads, emptying what an earlier set-up of the same pass logged: the
// span buffer is allocated once per pass, not once per set-up.
func (t *tracing) attach(h *harness) {
	t.h, t.clk = h, h.clk
	t.spans.Reset()
	for i := range t.hops {
		if t.hops[i] == nil {
			t.hops[i] = make([]benchkit.Sample, 0, 1<<16)
		}
		t.hops[i] = t.hops[i][:0]
	}
}

// closeTaps cancels the taps attach-ed gateways carry.
func (t *tracing) closeTaps() {
	for _, cancel := range t.taps {
		cancel()
	}
	t.taps = nil
}

// spanName registers a span name (before the run starts) and returns
// its index.
func (t *tracing) spanName(name string) int {
	if i, ok := t.names[name]; ok {
		return i
	}
	i := len(t.spans.Names)
	t.spans.Names = append(t.spans.Names, name)
	t.names[name] = i
	return i
}

func sampled(now int64) bool { return (now>>sliceShift)%sliceEvery == 0 }

// begin opens a span for the request that sensor's record seq belongs
// to, if now falls in a sampled slice.
func (t *tracing) begin(name, sensor, seq int, now int64) int {
	if !sampled(now) {
		return -1
	}
	seq -= seq % t.h.w.RunLen
	return t.spans.Begin(name, uint32(sensor)<<16|uint32(seq), now)
}

func (t *tracing) end(span, n int) { t.spans.End(span, t.clk.Now(), n) }

// beginCall and endCall span a harness call that belongs to no record
// (a query, a history replay). They are safe on a nil tracing, so call
// sites need no guard in the untraced pass.
func (t *tracing) beginCall(name string, now int64) int {
	if t == nil || !sampled(now) {
		return -1
	}
	return t.spans.Begin(t.names[name], 0, now)
}

func (t *tracing) endCall(span int, now int64, n int) {
	if t != nil {
		t.spans.End(span, now, n)
	}
}

// frameTrace decodes a sampled frame to learn which request it carries.
func (t *tracing) frameTrace(f *gateway.Frame, scratch *[]ulm.Record) (sensor, seq int, ok bool) {
	sensor, ok = t.h.byName[f.Sensor]
	if !ok {
		return 0, 0, false
	}
	recs, err := f.Records((*scratch)[:0])
	if err != nil || len(recs) == 0 {
		return 0, 0, false
	}
	seq, ok = seqOf(&recs[0])
	clear(recs)
	*scratch = recs[:0]
	return sensor, seq, ok
}

// timedTarget is the bridge.Target / bridge.FrameTarget the traced pass
// hands a bridge in place of the gateway: it forwards every call to the
// gateway and spans the sampled ones.
type timedTarget struct {
	t       *tracing
	gw      *gateway.Gateway
	name    int
	scratch []ulm.Record // the bridge calls from one goroutine
}

func (t *tracing) wrapTarget(gw *gateway.Gateway) bridge.Target {
	return &timedTarget{t: t, gw: gw, name: t.spanName("bridge.target")}
}

func (tt *timedTarget) Publish(topic string, rec ulm.Record) { tt.gw.Publish(topic, rec) }

func (tt *timedTarget) PublishBatch(topic string, recs []ulm.Record) {
	span := -1
	if i, ok := tt.t.h.byName[topic]; ok && len(recs) > 0 {
		if seq, ok := seqOf(&recs[0]); ok {
			span = tt.t.begin(tt.name, i, seq, tt.t.clk.Now())
		}
	}
	tt.gw.PublishBatch(topic, recs)
	if span >= 0 {
		tt.t.end(span, len(recs))
	}
}

func (tt *timedTarget) PublishFrame(f *gateway.Frame) error {
	span := -1
	if now := tt.t.clk.Now(); sampled(now) {
		if sensor, seq, ok := tt.t.frameTrace(f, &tt.scratch); ok {
			span = tt.t.begin(tt.name, sensor, seq, tt.t.clk.Now())
		}
	}
	err := tt.gw.PublishFrame(f)
	if span >= 0 {
		tt.t.end(span, f.Count)
	}
	return err
}

// timedForwarder is the gateway.Forwarder wrapper around a Replicator.
type timedForwarder struct {
	t    *tracing
	fw   gateway.Forwarder
	name int
}

func (t *tracing) wrapForwarder(fw gateway.Forwarder) gateway.Forwarder {
	return &timedForwarder{t: t, fw: fw, name: t.spanName("bridge.replicator.forward")}
}

func (tf *timedForwarder) Forward(sensor string, recs []ulm.Record, f *gateway.Frame) {
	span, n := -1, len(recs)
	if now := tf.t.clk.Now(); sampled(now) {
		if f != nil {
			n = f.Count
			// Forward may run on any ingest goroutine: no shared scratch.
			var scratch []ulm.Record
			if i, seq, ok := tf.t.frameTrace(f, &scratch); ok {
				span = tf.t.begin(tf.name, i, seq, tf.t.clk.Now())
			}
		} else if i, ok := tf.t.h.byName[sensor]; ok && n > 0 {
			if seq, ok := seqOf(&recs[0]); ok {
				span = tf.t.begin(tf.name, i, seq, now)
			}
		}
	}
	tf.fw.Forward(sensor, recs, f)
	if span >= 0 {
		tf.t.end(span, n)
	}
}

// sawAt logs that gateway hop of a chain saw sensor's record seq now.
func (t *tracing) sawAt(hop, sensor, seq int, now int64) {
	if hop >= maxHops || t.h.phase.Load() != phasePaced {
		return
	}
	due := t.h.track.Due(sensor, seq)
	t.hopMu.Lock()
	t.hops[hop] = append(t.hops[hop], benchkit.Sample{T: now, V: now - due, W: 1})
	t.hopMu.Unlock()
}

// tapFrames attaches a frame-plane tap to a relaying gateway: a
// pass-through subscriber like a bridge's, which decodes one frame in
// tapEvery to time it against its due time.
func (t *tracing) tapFrames(n *node, hop int) error {
	var scratch []ulm.Record
	count := 0
	sub, err := n.gw.SubscribeFramesFunc(gateway.Request{}, 0, nil,
		func(f *gateway.Frame) {
			if count++; count%tapEvery != 0 {
				return
			}
			now := t.clk.Now()
			if sensor, seq, ok := t.frameTrace(f, &scratch); ok {
				t.sawAt(hop, sensor, seq, now)
			}
		},
		func(sensor string, recs []ulm.Record) {})
	if err == nil {
		t.taps = append(t.taps, sub.Cancel)
	}
	return err
}

// tapBus attaches a silent bus tap to the gateway that decodes anyway.
func (t *tracing) tapBus(n *node, hop int) {
	var mu sync.Mutex
	count := 0
	sub := n.gw.Bus().TapBatch("", func(topic string, recs []ulm.Record) {
		mu.Lock()
		count++
		take := count%tapEvery == 0
		mu.Unlock()
		if !take || len(recs) == 0 {
			return
		}
		now := t.clk.Now()
		if sensor, ok := t.h.byName[topic]; ok {
			if seq, ok := seqOf(&recs[0]); ok {
				t.sawAt(hop, sensor, seq, now)
			}
		}
	})
	t.taps = append(t.taps, func() { sub.Cancel() })
}
