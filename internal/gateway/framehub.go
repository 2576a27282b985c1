package gateway

import (
	"sync"
	"sync/atomic"

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
// hop) moves a frame for the cost of a CRC check: the reader's one
// pooled buffer is what subscriber queues, replica links and the
// last-frame stash hold, by counted reference (Frame.Retain), and what
// a subscriber's writer hands to the socket.
//
// Locally published records still reach frame subscribers: Publish and
// PublishBatch feed matching hub subscriptions with copied record
// batches, which the wire server coalesces and encodes into frames
// once per connection. Exactly one plane carries any given record to a
// given subscriber — raw frames bypass the bus, decoded frames ride
// it — so nothing is delivered twice.

// frameHub is the gateway's copy-on-write set of frame-plane
// subscriptions; each one's request names its topic scope ("" = every
// sensor).
type frameHub struct {
	mu   sync.Mutex
	subs atomic.Pointer[[]*Subscription]
}

func (h *frameHub) load() []*Subscription {
	if p := h.subs.Load(); p != nil {
		return *p
	}
	return nil
}

func (h *frameHub) add(s *Subscription) {
	h.mu.Lock()
	old := h.load()
	next := make([]*Subscription, len(old)+1)
	copy(next, old)
	next[len(old)] = s
	h.subs.Store(&next)
	h.mu.Unlock()
}

func (h *frameHub) remove(s *Subscription) {
	h.mu.Lock()
	old := h.load()
	next := make([]*Subscription, 0, len(old))
	for _, o := range old {
		if o != s {
			next = append(next, o)
		}
	}
	h.subs.Store(&next)
	h.mu.Unlock()
}

// covers reports whether a frame-plane subscription's scope includes
// topic.
func (s *Subscription) covers(topic string) bool {
	return s.req.Sensor == "" || s.req.Sensor == topic
}

// PassThrough reports whether a request can ride the zero-copy frame
// plane: no per-record filtering of any kind (the same condition under
// which the bus hook compiles to nil) and an exact sensor scope —
// frame subscriptions match topics exactly, so prefix requests ride
// the record plane. subscribeQueued picks the plane by it.
func PassThrough(req Request) bool {
	return req.Mode == DeliverAll && len(req.Events) == 0 && !req.Prefix
}

// feedFrameSubs hands a cooked local batch to matching frame
// subscribers. Called by Publish/PublishBatch after bus delivery; a
// gateway with no frame subscribers pays one atomic load.
func (g *Gateway) feedFrameSubs(topic string, recs []ulm.Record) {
	for _, s := range g.hub.load() {
		if s.covers(topic) {
			s.fDelivered.Add(uint64(len(recs)))
			g.frameDelivered.Add(uint64(s.offerBatch(topic, recs)))
		}
	}
}

// PublishFrame ingests one binary record-batch frame. Matching frame
// subscribers receive the raw bytes; the record bodies are decoded —
// once — only when the record plane needs them (a bus subscriber, tap,
// or summary matches the frame's sensor). A frame nobody needs decoded
// is pure relay: producer accounting is updated from the header and
// the bytes move on untouched. The frame is borrowed: whatever keeps it
// past the call has retained it. Callers mutate it (hops, trace hop)
// before they publish it, not after.
func (g *Gateway) PublishFrame(f *Frame) error {
	for _, s := range g.hub.load() {
		if s.covers(f.Sensor) {
			s.fDelivered.Add(uint64(f.Count))
			if s.offer(frameItem{f: f}) {
				g.frameDelivered.Add(uint64(f.Count))
			}
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
// sensor@host topic form), and the frame is stashed — a reference
// swapped in under the shard lock, never a copy or a decode — so the
// last-event cache can be filled lazily on the first Query instead of
// eagerly on every frame. A
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
	p.takeFrame().Release()
	p.lastFrame = f.Retain()
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
