package gateway

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jamm/internal/ulm"
)

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

// TestFrameIngestBusConsumerNoDoubleDelivery: whatever else is
// subscribed beside it, and however the records come in, a sealed
// subscriber and a record consumer each see each record exactly once —
// a frame as the raw frame, decoded only when a record consumer
// matches.
func TestFrameIngestBusConsumerNoDoubleDelivery(t *testing.T) {
	recs := []ulm.Record{mkRec("A", 0, 1), mkRec("B", time.Second, 2)}
	consumers := map[string]*Request{
		"none": nil, "exact": {Sensor: "cpu"}, "wildcard": {}, "prefix": {Sensor: "cp", Prefix: true},
	}
	ingests := map[string]func(t *testing.T, g *Gateway){
		"Publish": func(_ *testing.T, g *Gateway) {
			for _, r := range recs {
				g.Publish("cpu", r)
			}
		},
		"PublishBatch": func(_ *testing.T, g *Gateway) { g.PublishBatch("cpu", recs) },
		"PublishFrame": func(t *testing.T, g *Gateway) {
			f := mustParseFrame(t, appendBatchFrame(nil, 0, "cpu", recs))
			if err := g.PublishFrame(&f); err != nil {
				t.Fatal(err)
			}
		},
	}
	for _, scope := range []string{"cpu", ""} {
		for cname, creq := range consumers {
			for iname, ingest := range ingests {
				t.Run(fmt.Sprintf("sealed=%q/consumer=%s/%s", scope, cname, iname), func(t *testing.T) {
					g := New("gw", nil)
					var seen, frames, raw, cooked atomic.Int64
					subscribers := uint64(1)
					if creq != nil {
						subscribers++
						csub, err := g.SubscribeBatch(*creq, func(recs []ulm.Record) { seen.Add(int64(len(recs))) })
						if err != nil {
							t.Fatal(err)
						}
						defer csub.Cancel()
					}
					fsub, err := g.SubscribeFramesFunc(Request{Sensor: scope}, 64, nil,
						func(f *Frame) { frames.Add(1); raw.Add(int64(f.Count)) },
						func(_ string, recs []ulm.Record) { cooked.Add(int64(len(recs))) })
					if err != nil {
						t.Fatal(err)
					}
					defer fsub.Cancel()
					ingest(t, g)
					waitUntil(t, "the sealed subscriber", func() bool { return raw.Load()+cooked.Load() == 2 })
					// What the bus offered the subscriber is what it counted:
					// nothing more is on its way.
					if d, _ := fsub.Counts(); d != 2 {
						t.Fatalf("sealed subscriber was offered %d records, want 2", d)
					}
					wantFS, wantFrames := FrameStats{}, int64(0)
					if iname == "PublishFrame" {
						wantFrames = 1
						if creq == nil {
							wantFS = FrameStats{Relays: 1, RelayRecords: 2}
						} else {
							wantFS = FrameStats{Decodes: 1}
						}
					}
					if frames.Load() != wantFrames || raw.Load() != 2*wantFrames {
						t.Fatalf("sealed subscriber got %d frames (%d records) and %d cooked records, want %d frames", frames.Load(), raw.Load(), cooked.Load(), wantFrames)
					}
					if creq != nil && seen.Load() != 2 {
						t.Fatalf("record consumer saw %d records, want 2", seen.Load())
					}
					if fs := g.FrameStats(); fs != wantFS {
						t.Fatalf("FrameStats = %+v, want %+v", fs, wantFS)
					}
					if st := g.Stats(); st.Published != 2 || st.Delivered != 2*subscribers {
						t.Fatalf("Stats = %+v, want 2 published, %d delivered", st, 2*subscribers)
					}
				})
			}
		}
	}
}

// TestPublishFrameOrderAndRelease: frames and record batches
// interleaved on one topic reach a sealed subscriber and a record
// subscriber in publish order, and the subscription queue's references
// to the frames are gone once they are delivered.
func TestPublishFrameOrderAndRelease(t *testing.T) {
	base := FramesRetained()
	g := New("gw", nil)
	var mu sync.Mutex
	var sealed, cooked []float64
	vals := func(dst *[]float64, recs []ulm.Record) {
		mu.Lock()
		defer mu.Unlock()
		for i := range recs {
			v, _ := recs[i].Float("VAL")
			*dst = append(*dst, v)
		}
	}
	csub, err := g.SubscribeBatch(Request{Sensor: "cpu"}, func(recs []ulm.Record) { vals(&cooked, recs) })
	if err != nil {
		t.Fatal(err)
	}
	fsub, err := g.SubscribeFramesFunc(Request{Sensor: "cpu"}, 1024, nil,
		func(f *Frame) {
			recs, err := f.Records(nil)
			if err != nil {
				t.Error(err)
			}
			vals(&sealed, recs)
		},
		func(_ string, recs []ulm.Record) { vals(&sealed, recs) })
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i += 2 {
		g.PublishBatch("cpu", []ulm.Record{mkRec("E", 0, float64(i))})
		f := mustParseFrame(t, appendBatchFrame(nil, 0, "cpu", []ulm.Record{mkRec("E", 0, float64(i+1))}))
		if err := g.PublishFrame(&f); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "the sealed subscriber to drain", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(sealed) == n
	})
	for name, got := range map[string][]float64{"sealed": sealed, "record": cooked} {
		if len(got) != n {
			t.Fatalf("%s subscriber saw %d records, want %d", name, len(got), n)
		}
		for i, v := range got {
			if v != float64(i) {
				t.Fatalf("%s subscriber: record %d carries VAL %v: out of publish order", name, i, v)
			}
		}
	}
	if d := fsub.WireDrops(); d != 0 {
		t.Fatalf("WireDrops = %d", d)
	}
	csub.Cancel()
	fsub.Cancel()
	settled(t, base)
}

// TestSealedSubscriptionCancelTwice: a sealed subscription is a bus
// subscription, so its second Cancel is a no-op like anyone's.
func TestSealedSubscriptionCancelTwice(t *testing.T) {
	g := New("gw", nil)
	keep, err := g.Subscribe(Request{Sensor: "cpu"}, func(ulm.Record) {})
	if err != nil {
		t.Fatal(err)
	}
	defer keep.Cancel()
	sub, err := g.subscribeQueued(Request{Sensor: "cpu"}, 0, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := g.Consumers("cpu"); n != 2 {
		t.Fatalf("Consumers = %d, want 2", n)
	}
	sub.Cancel()
	sub.Cancel()
	if n := g.Consumers("cpu"); n != 1 {
		t.Fatalf("Consumers after two Cancels = %d, want 1", n)
	}
	if c := g.Stats().ConsumerClamps; c != 0 {
		t.Fatalf("ConsumerClamps = %d", c)
	}
}

// TestPublishFrameIgnoresUnrelatedSubscriptions: sealed subscriptions
// to other sensors are in the bus's per-topic index, so a frame neither
// reaches them nor pays for them.
func TestPublishFrameIgnoresUnrelatedSubscriptions(t *testing.T) {
	g := New("gw", nil)
	var subs []*Subscription
	for i := 0; i < 1000; i++ {
		sub, err := g.subscribeQueued(Request{Sensor: fmt.Sprintf("mem@h%d", i)}, 0, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Cancel()
		subs = append(subs, sub)
	}
	f := mustParseFrame(t, appendBatchFrame(nil, 0, "cpu@h1", fatRun(4, 1)))
	if !raceEnabled { // sync.Pool drops a quarter of its Puts under the race detector
		assertNoAllocs(t, "PublishFrame beside 1000 unrelated sealed subscriptions", func() {
			if err := g.PublishFrame(&f); err != nil {
				t.Fatal(err)
			}
		})
	}
	if err := g.PublishFrame(&f); err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs {
		if d, _ := sub.Counts(); d != 0 || sub.ChanBacklog() != 0 {
			t.Fatalf("subscription to %s was delivered %d records of cpu@h1", sub.Request().Sensor, d)
		}
	}
	g.Unregister("cpu@h1") // the last-frame stash
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
	its := sub.q.PopAll(nil)
	if len(its) != 1 || its[0].f == nil || its[0].f.Count != 32 {
		t.Fatalf("taken items = %+v, want the 32-record frame alone", its)
	}
	defer its[0].f.Release()
	// Dequeued is not written: the records stay in the backlog until the
	// consumer settles them.
	if b := sub.ChanBacklog(); b != 32 {
		t.Fatalf("backlog after pop = %d, want 32 (in the consumer's hands)", b)
	}
	sub.q.Settle()
	if b := sub.ChanBacklog(); b != 0 {
		t.Fatalf("backlog after settle = %d, want 0", b)
	}
	if more := sub.q.PopAll(nil); len(more) != 0 {
		t.Fatalf("queue holds %d more items", len(more))
	}
}
