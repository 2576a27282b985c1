package gateway

import (
	"testing"
	"time"

	"jamm/internal/ulm"
)

func mkBatch(event string, n int) []ulm.Record {
	recs := make([]ulm.Record, n)
	for i := range recs {
		recs[i] = mkRec(event, time.Duration(i)*time.Second, float64(i))
	}
	return recs
}

// PublishBatch must maintain the producer state a record-at-a-time
// Publish loop would: published totals, the per-event last-record
// cache, and one implicit registration for the whole batch.
func TestPublishBatchUpdatesProducerState(t *testing.T) {
	g := New("gw", nil)
	var regs int
	g.OnRegistration(func(sensor string, meta Meta, registered bool) {
		if registered {
			regs++
		}
	})
	batch := []ulm.Record{
		mkRec("A", 0, 1),
		mkRec("B", time.Second, 2),
		mkRec("A", 2*time.Second, 3),
	}
	g.PublishBatch("cpu@h", batch)
	if regs != 1 {
		t.Fatalf("implicit registrations = %d, want 1 per batch", regs)
	}
	infos := g.Sensors()
	if len(infos) != 1 || infos[0].Published != 3 || infos[0].Host != "h1.lbl.gov" {
		t.Fatalf("listing = %+v", infos)
	}
	// The cache holds the latest record per event type.
	rec, ok, err := g.Query("", "cpu@h", "A")
	if err != nil || !ok {
		t.Fatalf("query: %v ok=%v", err, ok)
	}
	if v, _ := rec.Float("VAL"); v != 3 {
		t.Fatalf("last A = %v, want the batch's later record", v)
	}
	if rec, _, _ := g.Query("", "cpu@h", "B"); mustVal(t, rec) != 2 {
		t.Fatal("last B lost")
	}
	if st := g.Stats(); st.Published != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func mustVal(t *testing.T, rec ulm.Record) float64 {
	t.Helper()
	v, err := rec.Float("VAL")
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// SubscribeBatch applies the request's filters per record: a batch
// subscriber sees exactly the records a per-record subscription with
// the same request would, as one slice.
func TestSubscribeBatchFiltersPerRecord(t *testing.T) {
	g := New("gw", nil)
	var batches int
	var got []float64
	sub, err := g.SubscribeBatch(Request{Sensor: "cpu@h", Mode: DeliverThreshold, Above: Float64(1.5)}, func(recs []ulm.Record) {
		batches++
		for i := range recs {
			v, _ := recs[i].Float("VAL")
			got = append(got, v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 0,1 below; 2 crosses; 3,4 stay above (no new crossing).
	g.PublishBatch("cpu@h", mkBatch("E", 5))
	if batches != 1 {
		t.Fatalf("batches = %d, want 1", batches)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("threshold sub-batch = %v, want [2]", got)
	}
	d, s := sub.Counts()
	if d != 1 || s != 4 {
		t.Fatalf("counts = %d/%d", d, s)
	}
	sub.Cancel()
	if c := g.Consumers("cpu@h"); c != 0 {
		t.Fatalf("consumers after cancel = %d", c)
	}
}

// Summaries fold batches: one published batch lands every matching
// sample in the window.
func TestSummaryFoldsBatches(t *testing.T) {
	now := epoch
	g := New("gw", func() time.Time { return now })
	g.EnableSummary("cpu@h", "E", "VAL", time.Minute)
	g.PublishBatch("cpu@h", mkBatch("E", 4))
	g.PublishBatch("cpu@h", mkBatch("OTHER", 3)) // wrong event: ignored
	pts, err := g.Summary("", "cpu@h", "E", "VAL")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Count != 4 || pts[0].Min != 0 || pts[0].Max != 3 {
		t.Fatalf("summary = %+v", pts)
	}
}

// Regression: a bounded sink shedding a batch must count every record
// it carried — WireDrops is a record counter, not a batch counter —
// and depth bounds buffered records, not batches, so giant publisher
// batches cannot amplify a slow consumer's memory.
func TestSubscribeBatchChanCountsPerRecordDrops(t *testing.T) {
	g := New("gw", nil)
	var dropCb int
	// depth 3 records = one 3-record queue item.
	sub, err := g.subscribeQueued(Request{Sensor: "cpu@h"}, 3, false, func(n int) { dropCb += n })
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	g.PublishBatch("cpu@h", mkBatch("E", 3)) // fills the record budget
	g.PublishBatch("cpu@h", mkBatch("E", 5)) // sheds: 5 record drops
	if d := sub.WireDrops(); d != 5 {
		t.Fatalf("WireDrops = %d, want 5 (per record, not per batch)", d)
	}
	if dropCb != 5 {
		t.Fatalf("onDrop total = %d, want 5", dropCb)
	}
	// The buffered batch is intact and owned by the receiver.
	its := sub.q.PopAll(nil)
	if len(its) != 1 || its[0].tb.Sensor != "cpu@h" || len(its[0].tb.Recs) != 3 {
		t.Fatalf("buffered batches = %+v, want one of 3 records for cpu@h", its)
	}
	// Delivered counts include shed records; delivered - WireDrops is
	// what actually crossed the queue.
	d, _ := sub.Counts()
	if d != 8 || d-sub.WireDrops() != 3 {
		t.Fatalf("delivered=%d wireDrops=%d", d, sub.WireDrops())
	}
}

// A batch larger than the queue's record budget is split into
// chunks: what fits is delivered, the remainder is shed per record —
// never the whole batch for want of one oversized slot. The same on
// either plane.
func TestSubscribeBatchChanSplitsOversizedBatches(t *testing.T) {
	for _, frames := range []bool{false, true} {
		g := New("gw", nil)
		sub, err := g.subscribeQueued(Request{Sensor: "cpu@h"}, 2*chanBatchMax, frames, nil)
		if err != nil {
			t.Fatal(err)
		}
		g.PublishBatch("cpu@h", mkBatch("E", 3*chanBatchMax)) // 2 chunks fit, 1 shed
		if d := sub.WireDrops(); d != chanBatchMax {
			t.Fatalf("frames=%v: WireDrops = %d, want %d (only the overflow chunk)", frames, d, chanBatchMax)
		}
		// The two buffered chunks carry the batch's head, in order.
		want := 0.0
		its := sub.q.PopAll(nil)
		if len(its) != 2 {
			t.Fatalf("frames=%v: %d chunks buffered, want 2", frames, len(its))
		}
		for i, it := range its {
			if len(it.tb.Recs) != chanBatchMax {
				t.Fatalf("frames=%v: chunk %d carries %d records", frames, i, len(it.tb.Recs))
			}
			for k := range it.tb.Recs {
				if v, _ := it.tb.Recs[k].Float("VAL"); v != want {
					t.Fatalf("frames=%v: chunk %d record %d VAL = %v, want %v", frames, i, k, v, want)
				}
				want++
			}
		}
		sub.Cancel()
	}
}

// A batched wire publish frame must ingest as per-sensor batches and
// come out of a batched subscribe stream with order and sensors
// intact, end to end over TCP.
func TestWireBatchPublishToBatchStream(t *testing.T) {
	g, srv := startServer(t)
	c := NewClient("", srv.Addr())

	type gotBatch struct {
		sensor string
		n      int
	}
	recsCh := make(chan gotBatch, 64)
	var total int
	st, err := c.SubscribeBatchStream(Request{}, StreamOptions{BatchMax: 64, BatchWait: time.Millisecond},
		func(sensor string, recs []ulm.Record) {
			recsCh <- gotBatch{sensor, len(recs)}
		})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	deadline := time.Now().Add(2 * time.Second)
	for g.Consumers("") == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	pub, err := c.NewBatchPublisher(FormatULM, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if n, err := pub.PublishBatch("cpu", mkBatch("E", 6)); err != nil || n != 6 {
		t.Fatalf("publish cpu batch: n=%d err=%v", n, err)
	}
	if n, err := pub.PublishBatch("mem", mkBatch("E", 4)); err != nil || n != 4 {
		t.Fatalf("publish mem batch: n=%d err=%v", n, err)
	}
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	deadline = time.Now().Add(5 * time.Second)
	for total < 10 && time.Now().Before(deadline) {
		select {
		case gb := <-recsCh:
			seen[gb.sensor] += gb.n
			total += gb.n
		case <-time.After(50 * time.Millisecond):
		}
	}
	if seen["cpu"] != 6 || seen["mem"] != 4 {
		t.Fatalf("per-sensor delivery = %v", seen)
	}
	if ws := srv.WireStats(); ws.Drops() != 0 {
		t.Fatalf("wire drops = %+v", ws)
	}
	if st.DecodeErrors() != 0 {
		t.Fatalf("decode errors = %d", st.DecodeErrors())
	}
	// The server ingested the frames as batches: published totals per
	// sensor match.
	found := map[string]uint64{}
	for _, info := range g.Sensors() {
		found[info.Name] = info.Published
	}
	if found["cpu"] != 6 || found["mem"] != 4 {
		t.Fatalf("server-side published = %v", found)
	}
}

// Filters and batch delivery interact correctly across the wire: a
// threshold subscription over a batched stream sees only crossings.
func TestWireBatchStreamWithFilter(t *testing.T) {
	g, srv := startServer(t)
	c := NewClient("", srv.Addr())
	vals := make(chan float64, 16)
	st, err := c.SubscribeBatchStream(
		Request{Sensor: "cpu", Mode: DeliverThreshold, Above: Float64(2.5)},
		StreamOptions{BatchMax: 8, BatchWait: time.Millisecond},
		func(_ string, recs []ulm.Record) {
			for i := range recs {
				v, _ := recs[i].Float("VAL")
				vals <- v
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	deadline := time.Now().Add(2 * time.Second)
	for g.Consumers("cpu") == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	g.PublishBatch("cpu", mkBatch("E", 5)) // VAL 0..4: one crossing at 3
	select {
	case v := <-vals:
		if v != 3 {
			t.Fatalf("crossing = %v, want 3", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no crossing delivered")
	}
	select {
	case v := <-vals:
		t.Fatalf("unexpected extra delivery %v", v)
	case <-time.After(50 * time.Millisecond):
	}
}
