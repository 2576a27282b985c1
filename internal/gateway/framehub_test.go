package gateway

import (
	"sync/atomic"
	"testing"
	"time"

	"jamm/internal/ulm"
)

// SubscribeFrames is the channel view of a frame-plane subscription
// that TestFrameIngestBusConsumerNoDoubleDelivery was written against:
// SubscribeFramesFunc's deliveries, copied into a channel.
func (g *Gateway) SubscribeFrames(req Request, depth int, onDrop func(n int)) (*Subscription, <-chan frameItem, error) {
	ch := make(chan frameItem, 16) // more than any test delivers, so the callbacks never block
	sub, err := g.SubscribeFramesFunc(req, depth, onDrop,
		func(f *Frame) { ch <- frameItem{f: f.Clone()} },
		func(sensor string, recs []ulm.Record) {
			ch <- frameItem{tb: TopicBatch{Sensor: sensor, Recs: append([]ulm.Record(nil), recs...)}}
		})
	return sub, ch, err
}

// parseBatchFrame parses a full batch frame (header + payload) whose
// CRC has already been verified into a Frame that is the sole holder of
// buf.
func parseBatchFrame(buf []byte) (Frame, error) {
	sensor, count, recOff, err := splitBatchFrame(buf)
	if err != nil {
		return Frame{}, err
	}
	mem := &frameBuf{data: buf}
	mem.refs.Store(1)
	return Frame{Sensor: string(sensor), Count: count, buf: buf, recOff: recOff, mem: mem}, nil
}

// TestFrameIngestBusConsumerNoDoubleDelivery: when an ingested frame's
// sensor has BOTH a frame-plane subscriber and a bus consumer, the
// frame subscriber must receive the records exactly once (as the raw
// frame) — the decode branch feeds only the bus, never the frame plane
// a second time.
func TestFrameIngestBusConsumerNoDoubleDelivery(t *testing.T) {
	g := New("gw", nil)
	var busSeen atomic.Int64
	bsub, err := g.Subscribe(Request{Sensor: "cpu"}, func(ulm.Record) { busSeen.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer bsub.Cancel()
	fsub, ch, err := g.SubscribeFrames(Request{}, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fsub.Cancel()

	recs := []ulm.Record{mkRec("A", 0, 1), mkRec("B", time.Second, 2)}
	buf := appendBatchFrame(nil, 0, "cpu", recs)
	f, err := parseBatchFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.PublishFrame(&f); err != nil {
		t.Fatal(err)
	}

	select {
	case it := <-ch:
		if it.f == nil || it.f.Count != 2 {
			t.Fatalf("first frame-plane item = %+v, want the raw 2-record frame", it)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame subscriber received nothing")
	}
	// The decoded records must NOT arrive as a second, cooked item.
	select {
	case it := <-ch:
		t.Fatalf("frame subscriber received a duplicate item: %+v", it)
	case <-time.After(200 * time.Millisecond):
	}
	if n := busSeen.Load(); n != 2 {
		t.Fatalf("bus subscriber saw %d records, want 2", n)
	}
	if fs := g.FrameStats(); fs.Decodes != 1 || fs.Relays != 0 {
		t.Fatalf("FrameStats = %+v, want 1 decode and 0 relays", fs)
	}
	if d := g.frameDelivered.Load(); d != 2 {
		t.Fatalf("frameDelivered = %d, want 2 (each record counted once)", d)
	}
}

// TestFrameQueueAdmitsOversizedFrame: a relayed frame carrying more
// records than the subscriber's whole record budget must still be
// deliverable when the queue is empty — a one-item overshoot — rather
// than being shed 100% of the time. While it sits queued nothing else
// is admitted, and what is refused is counted.
func TestFrameQueueAdmitsOversizedFrame(t *testing.T) {
	g := New("gw", nil)
	var dropCb int
	sub, err := g.subscribeQueued(Request{}, 8, true, func(n int) { dropCb += n })
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	recs := make([]ulm.Record, 32)
	for i := range recs {
		recs[i] = mkRec("A", time.Duration(i)*time.Second, float64(i))
	}
	buf := appendBatchFrame(nil, 0, "cpu", recs)
	f, err := parseBatchFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.PublishFrame(&f); err != nil {
		t.Fatal(err)
	}
	if d := sub.WireDrops(); d != 0 {
		t.Fatalf("WireDrops = %d, want 0: the oversized frame was shed instead of admitted into the empty queue", d)
	}
	g.Publish("cpu", mkRec("A", time.Minute, 99)) // behind the overshoot: refused
	if d := sub.WireDrops(); d != 1 || dropCb != 1 {
		t.Fatalf("WireDrops = %d, onDrop total = %d, want 1 and 1", d, dropCb)
	}
	if b := sub.ChanBacklog(); b != 32 {
		t.Fatalf("backlog = %d, want 32", b)
	}
	its := sub.q.popAll(nil)
	if len(its) != 1 || its[0].f == nil || its[0].f.Count != 32 {
		t.Fatalf("taken items = %+v, want the 32-record frame alone", its)
	}
	defer its[0].f.Release()
	// Dequeued is not written: the records stay in the backlog until the
	// consumer settles them.
	if b := sub.ChanBacklog(); b != 32 {
		t.Fatalf("backlog after pop = %d, want 32 (in the consumer's hands)", b)
	}
	sub.q.settle()
	if b := sub.ChanBacklog(); b != 0 {
		t.Fatalf("backlog after settle = %d, want 0", b)
	}
	if more := sub.q.popAll(nil); len(more) != 0 {
		t.Fatalf("queue holds %d more items", len(more))
	}
}
