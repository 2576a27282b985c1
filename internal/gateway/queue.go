package gateway

import (
	"fmt"
	"sync"

	"jamm/internal/auth"
	"jamm/internal/boundq"
	"jamm/internal/bus"
	"jamm/internal/ulm"
)

// frameItem is one queued delivery: either a raw relayed frame or a
// cooked batch of records (exactly one is set). A queued frame is
// retained (Frame.Retain): whoever takes the item out releases it. A
// queued batch's records are a copy in own, a slice from recsFree:
// whoever takes the item out recycles it once done with the records.
type frameItem struct {
	f   *Frame
	tb  TopicBatch
	own *[]ulm.Record
}

// recsFree holds the record slices of consumed cooked items (at most
// chanBatchMax records each), so a steady stream of deliveries copies
// into the same few arrays.
var recsFree = sync.Pool{New: func() any { return new([]ulm.Record) }}

// Records returns the item's record count.
func (it frameItem) Records() int {
	if it.f != nil {
		return it.f.Count
	}
	return len(it.tb.Recs)
}

// Own makes a borrowed item the queue's: its frame retained — a
// reference, not a copy — its records copied.
func (it frameItem) Own() frameItem {
	if it.f != nil {
		it.f = it.f.Retain()
	} else {
		it.own = recsFree.Get().(*[]ulm.Record)
		*it.own = append((*it.own)[:0], it.tb.Recs...)
		it.tb.Recs = *it.own
	}
	return it
}

// recycle returns a consumed cooked item's record slice, zeroed so it
// pins nothing, to the free list.
func (it *frameItem) recycle() {
	clear(*it.own)
	recsFree.Put(it.own)
	it.own, it.tb.Recs = nil, nil
}

// chanBatchMax caps the records of one cooked queue item: oversized
// batches are split so a small record budget can still admit the head
// of a big batch (partial shed) instead of starving on it.
const chanBatchMax = 64

// subscribeQueued opens a streaming subscription that delivers into a
// bounded queue (the subscription's q) instead of a callback,
// decoupling the gateway's publish path from a slow consumer transport.
// frames says the consumer forwards relayed frames as raw bytes: its
// pass-through requests subscribe sealed, so a binary frame from
// upstream arrives untouched and locally published records arrive
// cooked. Everything else arrives cooked, the records copied out of the
// bus's scratch so the consumer owns them.
// depth bounds the buffered records (<= 0 selects 256); what it refuses
// is counted per record on the subscription (WireDrops) and reported to
// onDrop, which may be nil.
func (g *Gateway) subscribeQueued(req Request, depth int, frames bool, onDrop func(n int)) (*Subscription, error) {
	if err := g.authorize(req.Principal, req.Sensor, auth.ActionStream); err != nil {
		return nil, err
	}
	if depth <= 0 {
		depth = 256
	}
	// s is complete before the bus insert, so deliveries racing this
	// function's return are queued and counted like any other.
	s := &Subscription{g: g, req: req, q: boundq.New[frameItem](depth), onDrop: onDrop}
	if frames && PassThrough(req) {
		s.sub = g.bus.SubscribeSealed(req.Sensor, func(topic string, recs []ulm.Record, sealed bus.Sealed) {
			if sealed != nil {
				s.offer(frameItem{f: sealed.(*Frame)})
			} else {
				s.offerBatch(topic, recs)
			}
		})
	} else {
		s.sub = g.subscribeBatchTopics(req, s.offerBatch)
	}
	g.addConsumer(consumerTopic(req), 1)
	return s, nil
}

// shed counts n records the transport lost after the gateway delivered
// them.
func (s *Subscription) shed(n int) {
	s.wireDrops.Add(uint64(n))
	if s.onDrop != nil {
		s.onDrop(n)
	}
}

// offer admits one borrowed delivery into the subscription's queue or
// sheds it.
func (s *Subscription) offer(it frameItem) {
	if !s.q.Push(it) {
		s.shed(it.Records())
	}
}

// offerBatch offers a borrowed batch in chunks the budget can admit, so
// a batch bigger than the remaining budget sheds only its tail.
func (s *Subscription) offerBatch(topic string, recs []ulm.Record) {
	chunk := min(chanBatchMax, s.q.Budget())
	for len(recs) > 0 {
		n := min(chunk, len(recs))
		s.offer(frameItem{tb: TopicBatch{Sensor: topic, Recs: recs[:n]}})
		recs = recs[n:]
	}
}

// SubscribeFramesFunc opens a sealed subscription for in-process
// relays outside this package (a forwarding daemon feeding a sharded
// site): raw relayed frames reach onFrame (borrowed — Retain or Clone
// to keep), cooked batches of locally published records reach onBatch
// (slice borrowed — copy to retain). Both run on one dedicated goroutine, in
// delivery order. Only pass-through requests qualify — anything needing
// per-record filtering must subscribe for records. depth and onDrop are
// subscribeQueued's. Cancel the returned subscription to stop it.
func (g *Gateway) SubscribeFramesFunc(req Request, depth int, onDrop func(n int), onFrame func(f *Frame), onBatch func(sensor string, recs []ulm.Record)) (*Subscription, error) {
	if !PassThrough(req) {
		return nil, fmt.Errorf("gateway: frame subscriptions cannot filter (mode %v, %d events)", req.Mode, len(req.Events))
	}
	sub, err := g.subscribeQueued(req, depth, true, onDrop)
	if err != nil {
		return nil, err
	}
	quit := make(chan struct{})
	sub.onCancel = func() { close(quit) }
	go func() {
		var burst []frameItem
		for {
			select {
			case <-sub.q.Ready():
				burst = sub.q.PopAll(burst)
				for i := range burst {
					if it := &burst[i]; it.f != nil {
						onFrame(it.f)
						it.f.Release()
					} else {
						onBatch(it.tb.Sensor, it.tb.Recs)
						it.recycle()
					}
				}
				sub.q.Settle()
			case <-quit:
				return
			}
		}
	}()
	return sub, nil
}
