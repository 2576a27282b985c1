package gateway

import (
	"fmt"
	"sync"
	"sync/atomic"

	"jamm/internal/auth"
	"jamm/internal/ulm"
)

// The frame hub is the gateway's zero-copy delivery plane: v2 wire
// subscribers in pass-through position (no event filter, no
// change/threshold mode) attach here instead of the record bus, and a
// binary frame arriving from a v2 publisher or an upstream bridge is
// handed to them as raw bytes. The gateway decodes the frame's record
// bodies only when something actually needs records — a local bus
// subscriber, a summary tap, an archiver, a JSON-protocol subscriber —
// so a gateway in pure-relay position (a chained-site intermediate
// hop) moves a frame for the cost of a CRC check and a memcpy.
//
// Locally published records still reach frame subscribers: Publish and
// PublishBatch feed matching hub subscriptions with copied record
// batches, which the wire server coalesces and encodes into frames
// once per connection. Exactly one plane carries any given record to a
// given subscriber — raw frames bypass the bus, decoded frames ride
// it — so nothing is delivered twice.

// frameItem is one hub delivery: either a raw relayed frame or a
// cooked batch of locally published records (exactly one is set).
type frameItem struct {
	f  *Frame
	tb TopicBatch
}

// records returns the item's record count.
func (it frameItem) records() int {
	if it.f != nil {
		return it.f.Count
	}
	return len(it.tb.Recs)
}

// frameQueue is the bounded buffer between the publish path and one
// frame subscriber's wire connection, bounding buffered RECORDS like
// SubscribeBatchChan's queue: a slow consumer pins bounded memory no
// matter how traffic is framed, and anything shed is counted per
// record, never silently.
type frameQueue struct {
	mu     sync.Mutex
	queue  []frameItem
	recs   int
	budget int
	notify chan struct{}
	quit   chan struct{}
}

// pushFrame admits a raw frame (cloning it: the caller's buffer is
// borrowed), reporting whether the record budget allowed it. An empty
// queue admits unconditionally — a relayed frame may legally carry more
// records than the whole budget (maxBatchRecords vs the wire depth of
// 256), and a strict budget check would shed every such frame forever
// instead of applying slow-consumer backpressure. The overshoot is
// bounded at one item: while it sits queued, recs exceeds the budget
// and nothing else is admitted.
func (q *frameQueue) pushFrame(f *Frame) bool {
	q.mu.Lock()
	if q.recs > 0 && q.recs+f.Count > q.budget {
		q.mu.Unlock()
		return false
	}
	q.queue = append(q.queue, frameItem{f: f.Clone()})
	q.recs += f.Count
	q.mu.Unlock()
	q.wake()
	return true
}

// pushBatch admits a cooked chunk of local records (copying them),
// with the same empty-queue overshoot allowance as pushFrame so a
// budget below the chunk size still makes progress.
func (q *frameQueue) pushBatch(topic string, part []ulm.Record) bool {
	q.mu.Lock()
	if q.recs > 0 && q.recs+len(part) > q.budget {
		q.mu.Unlock()
		return false
	}
	out := make([]ulm.Record, len(part))
	copy(out, part)
	q.queue = append(q.queue, frameItem{tb: TopicBatch{Sensor: topic, Recs: out}})
	q.recs += len(part)
	q.mu.Unlock()
	q.wake()
	return true
}

func (q *frameQueue) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

func (q *frameQueue) backlog() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.recs
}

// forward hands queued items to ch in order; an item stays counted
// against the budget until the receiver takes it.
func (q *frameQueue) forward(ch chan<- frameItem) {
	for {
		q.mu.Lock()
		if len(q.queue) == 0 {
			q.mu.Unlock()
			select {
			case <-q.notify:
				continue
			case <-q.quit:
				return
			}
		}
		it := q.queue[0]
		q.mu.Unlock()
		select {
		case ch <- it:
			q.mu.Lock()
			q.queue = q.queue[1:]
			q.recs -= it.records()
			if len(q.queue) == 0 {
				q.queue = nil
			}
			q.mu.Unlock()
		case <-q.quit:
			return
		}
	}
}

// frameSub is one frame-plane subscription: its topic scope ("" =
// every sensor) plus its bounded queue.
type frameSub struct {
	sensor string
	q      *frameQueue
	s      *Subscription
	shed   func(n int)
}

// frameHub is the gateway's copy-on-write frame-subscriber set.
type frameHub struct {
	mu   sync.Mutex
	subs atomic.Pointer[[]*frameSub]
}

func (h *frameHub) load() []*frameSub {
	if p := h.subs.Load(); p != nil {
		return *p
	}
	return nil
}

func (h *frameHub) add(fs *frameSub) {
	h.mu.Lock()
	old := h.load()
	next := make([]*frameSub, len(old)+1)
	copy(next, old)
	next[len(old)] = fs
	h.subs.Store(&next)
	h.mu.Unlock()
}

func (h *frameHub) remove(fs *frameSub) {
	h.mu.Lock()
	old := h.load()
	next := make([]*frameSub, 0, len(old))
	for _, o := range old {
		if o != fs {
			next = append(next, o)
		}
	}
	h.subs.Store(&next)
	h.mu.Unlock()
}

// PassThrough reports whether a request can ride the zero-copy frame
// plane: no per-record filtering of any kind (the same condition under
// which the bus hook compiles to nil) and an exact sensor scope —
// frame subscriptions match topics exactly, so prefix requests ride
// the record plane.
func PassThrough(req Request) bool {
	return req.Mode == DeliverAll && len(req.Events) == 0 && !req.Prefix
}

// SubscribeFrames opens a frame-plane subscription: delivered items
// are either raw relayed frames (forwarded untouched from a binary
// publisher upstream) or cooked batches of locally published records
// for the wire layer to encode. Only pass-through requests qualify —
// anything needing per-record filtering must ride the record plane.
// depth bounds buffered records exactly like SubscribeBatchChan; shed
// items are counted per record on the subscription and reported to
// onDrop. The channel-closing caveats of SubscribeChan apply.
func (g *Gateway) SubscribeFrames(req Request, depth int, onDrop func(n int)) (*Subscription, <-chan frameItem, error) {
	if !PassThrough(req) {
		return nil, nil, fmt.Errorf("gateway: frame subscriptions cannot filter (mode %v, %d events)", req.Mode, len(req.Events))
	}
	if err := g.authorize(req.Principal, req.Sensor, auth.ActionStream); err != nil {
		return nil, nil, err
	}
	if depth <= 0 {
		depth = 256
	}
	q := &frameQueue{budget: depth, notify: make(chan struct{}, 1), quit: make(chan struct{})}
	ch := make(chan frameItem)
	s := &Subscription{g: g, req: req, backlog: q.backlog}
	var cancelOnce sync.Once
	fs := &frameSub{sensor: req.Sensor, q: q, s: s}
	fs.shed = func(n int) {
		s.wireDrops.Add(uint64(n))
		if onDrop != nil {
			onDrop(n)
		}
	}
	s.onCancel = func() {
		cancelOnce.Do(func() {
			g.hub.remove(fs)
			close(q.quit)
		})
	}
	g.hub.add(fs)
	go q.forward(ch)
	g.addConsumer(req.Sensor, 1)
	return s, ch, nil
}

// SubscribeFramesFunc is the callback form of SubscribeFrames for
// in-process relays outside this package (a forwarding daemon feeding
// a sharded site): raw relayed frames reach onFrame (borrowed — Clone
// to retain), cooked batches of locally published records reach
// onBatch (slice borrowed — copy to retain). Both run on a dedicated
// goroutine, in delivery order. Cancel the returned subscription to
// stop it.
func (g *Gateway) SubscribeFramesFunc(req Request, depth int, onDrop func(n int), onFrame func(f *Frame), onBatch func(sensor string, recs []ulm.Record)) (*Subscription, error) {
	sub, ch, err := g.SubscribeFrames(req, depth, onDrop)
	if err != nil {
		return nil, err
	}
	quit := make(chan struct{})
	prev := sub.onCancel
	sub.onCancel = func() {
		prev()
		close(quit)
	}
	go func() {
		for {
			select {
			case it := <-ch:
				if it.f != nil {
					onFrame(it.f)
				} else {
					onBatch(it.tb.Sensor, it.tb.Recs)
				}
			case <-quit:
				return
			}
		}
	}()
	return sub, nil
}

// feedFrameSubs hands a cooked local batch to matching frame
// subscribers. Called by Publish/PublishBatch after bus delivery; a
// gateway with no frame subscribers pays one atomic load.
func (g *Gateway) feedFrameSubs(topic string, recs []ulm.Record) {
	subs := g.hub.load()
	if len(subs) == 0 {
		return
	}
	for _, fs := range subs {
		if fs.sensor != "" && fs.sensor != topic {
			continue
		}
		fs.s.fDelivered.Add(uint64(len(recs)))
		// Chunk like SubscribeBatchChan so a small budget can admit the
		// head of a big batch instead of starving on it.
		for off := 0; off < len(recs); off += chanBatchMax {
			end := off + chanBatchMax
			if end > len(recs) {
				end = len(recs)
			}
			if fs.q.pushBatch(topic, recs[off:end]) {
				g.frameDelivered.Add(uint64(end - off))
			} else {
				fs.shed(end - off)
			}
		}
	}
}

// PublishFrame ingests one binary record-batch frame. Matching frame
// subscribers receive the raw bytes; the record bodies are decoded —
// once — only when the record plane needs them (a bus subscriber, tap,
// or summary matches the frame's sensor). A frame nobody needs decoded
// is pure relay: producer accounting is updated from the header and
// the bytes move on untouched. The frame is borrowed: its buffer may
// be reused by the caller after return.
func (g *Gateway) PublishFrame(f *Frame) error {
	for _, fs := range g.hub.load() {
		if fs.sensor != "" && fs.sensor != f.Sensor {
			continue
		}
		fs.s.fDelivered.Add(uint64(f.Count))
		if fs.q.pushFrame(f) {
			g.frameDelivered.Add(uint64(f.Count))
		} else {
			fs.shed(f.Count)
		}
	}
	replica := f.Replica()
	if g.bus.HasConsumers(f.Sensor) {
		// The scratch goes back to the pool by the pointer it came out
		// with, whatever the decode did to the slice behind it.
		scratch := frameScratch.Get().(*[]ulm.Record)
		recs, err := f.Records((*scratch)[:0])
		if err != nil {
			frameScratch.Put(scratch)
			g.frameDecodeErrs.Add(1)
			return err
		}
		g.frameDecodes.Add(1)
		// Bus-only publish: the hub loop above already delivered the raw
		// frame to every matching frame subscriber, so the decoded records
		// must not reach the frame plane a second time.
		g.publishBatch(f.Sensor, recs, true, replica)
		clear(recs)
		*scratch = recs
		frameScratch.Put(scratch)
	} else {
		g.frameRelays.Add(1)
		g.frameRelayRecs.Add(uint64(f.Count))
		g.noteRelayed(f, replica)
	}
	// Replication rides the same hook as cooked ingest, with the raw
	// frame so a v2 replica link can relay the bytes untouched. Replica
	// copies are terminal — forwarding them again would loop.
	if !replica {
		if fw := g.forwarder(); fw != nil {
			fw.Forward(f.Sensor, nil, f)
		}
	}
	return nil
}

// frameScratch pools record slices for PublishFrame's decode path so a
// decoding ingest hop doesn't allocate a fresh batch per frame.
var frameScratch = sync.Pool{New: func() any { s := make([]ulm.Record, 0, 256); return &s }}

// noteRelayed updates producer accounting for records that passed
// through as raw frames: the publish total grows by the header count,
// the sensor registers implicitly (host parsed from the conventional
// sensor@host topic form), and the frame's bytes are stashed — a
// memcpy, never a decode — so the last-event cache can be filled
// lazily on the first Query instead of eagerly on every frame. A
// replica-flagged frame updates the same state but fires no
// registration hooks and marks the entry mirrored, exactly like
// PublishReplicaBatch.
func (g *Gateway) noteRelayed(f *Frame, replica bool) {
	sensorName := f.Sensor
	ps := g.pshard(sensorName)
	ps.mu.Lock()
	p := ps.producers[sensorName]
	if p == nil {
		p = &producer{last: make(map[string]ulm.Record)}
		ps.producers[sensorName] = p
	}
	revived := !p.live
	if revived {
		p.live = true
		if !p.explicit {
			p.meta.Host = topicHost(sensorName)
		}
	}
	if replica {
		if revived {
			p.mirrored = true
		}
	} else {
		p.mirrored = false
	}
	p.published += uint64(f.Count)
	p.lastFrame = append(p.lastFrame[:0], f.Bytes()...)
	p.gen++
	ps.ver.Add(1)
	fire := revived && !replica
	var meta Meta
	var seq uint64
	if fire {
		meta = p.meta
		seq = g.regSeq.Add(1)
	}
	ps.mu.Unlock()
	if fire {
		g.fireRegistration(sensorName, meta, true, seq)
	}
}

// topicHost extracts the host from a sensor@host bus topic ("" when
// the topic doesn't follow the convention).
func topicHost(topic string) string {
	for i := len(topic) - 1; i >= 0; i-- {
		if topic[i] == '@' {
			return topic[i+1:]
		}
	}
	return ""
}

// FrameStats snapshots the gateway's frame-plane counters — the
// observable proof of the zero-copy contract: a pure-relay hop shows
// Relays growing while Decodes stays flat.
type FrameStats struct {
	// Relays counts frames forwarded without their record bodies ever
	// being decoded; RelayRecords the records those frames declared.
	Relays       uint64
	RelayRecords uint64
	// Decodes counts ingested frames whose records were decoded because
	// the record plane (bus subscribers, taps, summaries, archivers)
	// needed them.
	Decodes uint64
	// DecodeErrors counts ingested frames whose record bodies failed to
	// decode (counted, surfaced to the wire layer, never silent).
	DecodeErrors uint64
}

// FrameStats returns a snapshot of the frame-plane counters.
func (g *Gateway) FrameStats() FrameStats {
	return FrameStats{
		Relays:       g.frameRelays.Load(),
		RelayRecords: g.frameRelayRecs.Load(),
		Decodes:      g.frameDecodes.Load(),
		DecodeErrors: g.frameDecodeErrs.Load(),
	}
}
