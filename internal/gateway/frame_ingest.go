package gateway

import (
	"sync"

	"jamm/internal/ulm"
)

// Wire frames ride the gateway's one delivery plane, the bus, as sealed
// batches (bus.Sealed, which *Frame implements): a binary frame arriving
// from a v2 publisher or an upstream bridge is published whole, and the
// bus hands it — the same bytes, by counted reference — to every
// subscriber that registered to take frames: v2 wire subscribers in
// pass-through position (PassThrough) and SubscribeFramesFunc relays.
// Everyone else on the bus — filtered and JSON-protocol subscribers,
// summary taps, archivers — is served records, which the gateway
// decodes from the frame once, and only when the bus says a subscriber
// matching the frame's sensor needs them (bus.NeedsRecords). So a
// gateway in pure-relay position (a chained-site intermediate hop) moves
// a frame for the cost of a CRC check: the reader's one pooled buffer is
// what subscriber queues, replica links and the last-frame stash hold
// (Frame.Retain), and what a subscriber's writer hands to the socket.
//
// Locally published records reach frame subscribers through the same
// index, as record batches the wire server coalesces and encodes into
// frames once per connection. Every subscription is a bus subscription
// and a publish is one id-ordered pass over those matching its topic,
// so nothing is delivered twice and a topic's frames and record batches
// reach each subscriber in publish order.
//
// One race remains, by design: NeedsRecords is asked before the frame is
// published, so a record subscriber that registers in between misses
// that one frame (it was not decoded); a frame subscriber never does.

// PassThrough reports whether a request can take frames sealed: no
// per-record filtering of any kind (the same condition under which the
// bus hook compiles to nil) and an exact sensor scope — prefix requests
// get records. subscribeQueued picks the delivery shape by it.
func PassThrough(req Request) bool {
	return req.Mode == DeliverAll && len(req.Events) == 0 && !req.Prefix
}

// PublishFrame ingests one binary record-batch frame. Subscribers that
// take frames receive the raw bytes; the record bodies are decoded —
// once — only when a subscriber, tap or summary matching the frame's
// sensor needs records. An undecodable body is counted and reported
// before anyone has seen the frame. The frame is borrowed: whatever
// keeps it past the call has retained it. Callers mutate it (hops, trace
// hop) before they publish it, not after.
func (g *Gateway) PublishFrame(f *Frame) error {
	replica := f.Replica()
	if !g.bus.NeedsRecords(f.Sensor) {
		g.frameRelays.Add(1)
		g.frameRelayRecs.Add(uint64(f.Count))
		g.ingest(f.Sensor, nil, f, replica, false)
		return nil
	}
	scratch := frameScratch.Get().(*[]ulm.Record)
	recs, err := f.Records((*scratch)[:0])
	if err != nil {
		g.frameDecodeErrs.Add(1)
	} else {
		g.frameDecodes.Add(1)
		g.ingest(f.Sensor, recs, f, replica, !replica)
	}
	putFrameScratch(scratch, recs)
	return err
}

// frameScratch pools record slices for the frame decodes — PublishFrame's
// and the lazy fold of a relayed frame (liveProducer) — so a decoding hop
// doesn't allocate a fresh batch per frame.
var frameScratch = sync.Pool{New: func() any { s := make([]ulm.Record, 0, 256); return &s }}

// putFrameScratch returns scratch to the pool by the pointer it came out
// with, whatever the decode did to the slice behind it: recs, cleared so
// the pool pins no batch.
func putFrameScratch(scratch *[]ulm.Record, recs []ulm.Record) {
	clear(recs)
	*scratch = recs
	frameScratch.Put(scratch)
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

// FrameStats snapshots what became of ingested frames — the
// observable proof of the zero-copy contract: a pure-relay hop shows
// Relays growing while Decodes stays flat.
type FrameStats struct {
	// Relays counts frames forwarded without their record bodies ever
	// being decoded; RelayRecords the records those frames declared.
	Relays       uint64
	RelayRecords uint64
	// Decodes counts ingested frames whose records were decoded because
	// a subscriber of their sensor (a filtered or JSON consumer, a tap,
	// a summary, an archiver) needed records.
	Decodes uint64
	// DecodeErrors counts ingested frames whose record bodies failed to
	// decode (counted, surfaced to the wire layer, never silent).
	DecodeErrors uint64
}

// FrameStats returns a snapshot of the frame ingest counters.
func (g *Gateway) FrameStats() FrameStats {
	return FrameStats{
		Relays:       g.frameRelays.Load(),
		RelayRecords: g.frameRelayRecs.Load(),
		Decodes:      g.frameDecodes.Load(),
		DecodeErrors: g.frameDecodeErrs.Load(),
	}
}
