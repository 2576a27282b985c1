package gateway

import (
	"fmt"
	"sync"

	"jamm/internal/auth"
	"jamm/internal/bus"
	"jamm/internal/ulm"
)

// frameItem is one queued delivery: either a raw relayed frame or a
// cooked batch of records (exactly one is set). A queued frame is
// retained (Frame.Retain): whoever takes the item out releases it.
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

// subQueue is the one bounded buffer between the publish path and a
// queued subscription's consumer — a wire connection's writer or
// SubscribeFramesFunc's callback goroutine, which takes what is queued
// directly. The publish path pushes under a mutex and never blocks. What
// the budget bounds is buffered RECORDS, not items: a slow consumer pins
// bounded memory no matter how traffic is framed (at most twice the
// bytes of the frames admitted, see frameBuf), and anything the budget
// refuses is shed — counted per record by the caller, never silently.
type subQueue struct {
	mu     sync.Mutex
	items  []frameItem
	recs   int // records queued, counted against budget
	taken  int // records taken and not yet settled: in the consumer's hands
	budget int
	closed bool
	// ready holds a token whenever items may be queued, so a consumer
	// selecting on it beside its timer and shutdown signals never misses
	// an item.
	ready chan struct{}
}

func newSubQueue(budget int) *subQueue {
	return &subQueue{budget: budget, ready: make(chan struct{}, 1)}
}

// push admits one delivery, reporting whether the record budget allowed
// it. The item is borrowed: on admit its frame is retained — a
// reference, not a copy — its records copied. An empty queue admits
// unconditionally — a relayed frame may legally carry more records than
// the whole budget (maxBatchRecords vs the wire depth of 256), and a
// strict check would shed every such frame forever instead of applying
// slow-consumer backpressure. The overshoot is bounded at one item:
// while it sits queued, recs exceeds the budget and nothing else is
// admitted. What reaches a closed queue, from a publish under way when
// its subscription was cancelled, is discarded.
func (q *subQueue) push(it frameItem) bool {
	n := it.records()
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return true
	}
	if q.recs > 0 && q.recs+n > q.budget {
		q.mu.Unlock()
		return false
	}
	if it.f != nil {
		it.f = it.f.Retain()
	} else {
		recs := make([]ulm.Record, n)
		copy(recs, it.tb.Recs)
		it.tb.Recs = recs
	}
	q.items = append(q.items, it)
	q.recs += n
	q.mu.Unlock()
	select {
	case q.ready <- struct{}{}:
	default:
	}
	return true
}

// popAll takes everything queued, oldest first; the frames' references
// are now the consumer's to release. It trades for spare, the previous
// take: zeroed, so a drained queue pins no frame or record, it becomes
// the array the next pushes fill, and the two swap from then on without
// allocating. The records move from the budget to the consumer's hands
// in the same critical section, so backlog never reads zero while a
// taken record is unwritten.
func (q *subQueue) popAll(spare []frameItem) []frameItem {
	clear(spare)
	q.mu.Lock()
	items := q.items
	q.items = spare[:0]
	q.taken += q.recs
	q.recs = 0
	q.mu.Unlock()
	return items
}

// settle records that everything taken so far has left the consumer's
// hands (written out, or counted as lost).
func (q *subQueue) settle() {
	q.mu.Lock()
	q.taken = 0
	q.mu.Unlock()
}

// close releases what is still queued when the subscription is
// cancelled, and admits nothing more.
func (q *subQueue) close() {
	q.mu.Lock()
	items := q.items
	q.items, q.recs, q.closed = nil, 0, true
	q.mu.Unlock()
	for i := range items {
		items[i].f.Release()
	}
}

// backlog returns the records queued or in the consumer's hands.
func (q *subQueue) backlog() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.recs + q.taken
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
	s := &Subscription{g: g, req: req, q: newSubQueue(depth), onDrop: onDrop}
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
	if !s.q.push(it) {
		s.shed(it.records())
	}
}

// offerBatch offers a borrowed batch in chunks the budget can admit, so
// a batch bigger than the remaining budget sheds only its tail.
func (s *Subscription) offerBatch(topic string, recs []ulm.Record) {
	chunk := min(chanBatchMax, s.q.budget)
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
			case <-sub.q.ready:
				burst = sub.q.popAll(burst)
				for i := range burst {
					if it := &burst[i]; it.f != nil {
						onFrame(it.f)
						it.f.Release()
					} else {
						onBatch(it.tb.Sensor, it.tb.Recs)
					}
				}
				sub.q.settle()
			case <-quit:
				return
			}
		}
	}()
	return sub, nil
}
