package gateway

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"jamm/internal/ulm"
)

// Counter-asserted guards on the v2 frame ingest path: what a frame costs to take off the wire, decode and
// ingest is a constant number of allocations, not a multiple of its
// record count, and what the gateway keeps of it afterwards is the
// records it caches, not the frames they arrived in.

// fatRun builds n self-similar records of nf fields, as one sensor
// emits them: only the date and the last field's value change.
func fatRun(n, nf int) []ulm.Record {
	recs := make([]ulm.Record, n)
	for i := range recs {
		recs[i] = mkRec("VMSTAT_SYS_TIME", time.Duration(i)*time.Millisecond, float64(i))
		for f := 1; f < nf; f++ {
			recs[i].Fields = append(recs[i].Fields, ulm.Field{Key: fmt.Sprintf("KEY%02d", f), Value: fmt.Sprintf("value-%02d", f)})
		}
	}
	return recs
}

func mustParseFrame(t testing.TB, buf []byte) Frame {
	t.Helper()
	f, err := parseBatchFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// skipIfPoolLossy skips an allocation guard when sync.Pool discards
// what is put back, as it does at random under the race detector: the
// decoder's pooled working memory is then rebuilt — and counted — every
// few calls.
func skipIfPoolLossy(t *testing.T) {
	t.Helper()
	var p sync.Pool
	x := new(int)
	for i := 0; i < 64; i++ {
		p.Put(x)
		if p.Get() == nil {
			t.Skip("sync.Pool is dropping items (race detector?): allocation counts mean nothing")
		}
	}
}

func TestFrameRecordsAllocs(t *testing.T) {
	skipIfPoolLossy(t)
	fat := mustParseFrame(t, appendBatchFrame(nil, 0, "cpu@h1", fatRun(32, 12)))
	hopped := mustParseFrame(t, appendBatchFrame(nil, 0, "cpu@h1", fatRun(4, 1)))
	hopped.SetHops(1) // one relay hop since encode: decode adds JAMM.HOPS to every record
	for _, tc := range []struct {
		name string
		f    *Frame
	}{{"32 records x 12 fields", &fat}, {"4 records x 1 field, hop delta 1", &hopped}} {
		dst := make([]ulm.Record, 0, tc.f.Count)
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			if dst, err = tc.f.Records(dst[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%s: Frame.Records costs %.1f allocs, want <= 2 (one arena, one slab)", tc.name, allocs)
		}
	}
	// The hop field went into each record's spare slab slot: appended,
	// in place, and with nothing left to spill into a neighbour.
	recs, err := hopped.Records(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if len(r.Fields) != 2 || r.Fields[1] != (ulm.Field{Key: hopField, Value: "1"}) || cap(r.Fields) != 2 {
			t.Fatalf("record %d after hop delta: fields %+v cap %d", i, r.Fields, cap(r.Fields))
		}
		if want := fmt.Sprintf("%g", float64(i)); r.Fields[0].Value != want {
			t.Fatalf("record %d VAL = %q, want %q (clobbered by a neighbour's hop field?)", i, r.Fields[0].Value, want)
		}
	}
}

// TestPublishFrameAllocsIndependentOfCount: on the decode path (a bus
// consumer wants the records) a frame's ingest cost does not grow with
// the records it carries, and it is the decode alone: what the
// last-event cache keeps of the frame is written into storage it
// already owns, and decoded only when someone reads it.
func TestPublishFrameAllocsIndependentOfCount(t *testing.T) {
	skipIfPoolLossy(t)
	g := New("gw", nil)
	g.Register("cpu@h1", Meta{Host: "h1"})
	delivered := 0
	if _, err := g.SubscribeBatch(Request{Sensor: "cpu@h1"}, func(recs []ulm.Record) { delivered += len(recs) }); err != nil {
		t.Fatal(err)
	}
	measure := func(n int) float64 {
		f := mustParseFrame(t, appendBatchFrame(nil, 0, "cpu@h1", fatRun(n, 12)))
		return testing.AllocsPerRun(200, func() {
			if err := g.PublishFrame(&f); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := measure(4), measure(64)
	if delivered == 0 || g.FrameStats().Decodes == 0 {
		t.Fatal("frames were not decoded: the test is not on the decode path")
	}
	if small != big {
		t.Errorf("PublishFrame allocs grow with Count: %.1f for 4 records, %.1f for 64", small, big)
	}
	if big > 2 {
		t.Errorf("PublishFrame costs %.1f allocs per frame, want <= 2 (the decode's arena and slab; the last-event cache re-encodes into a buffer it reuses)", big)
	}
}

// replayReader serves the same bytes over and over.
type replayReader struct {
	data []byte
	off  int
}

func (r *replayReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}

func TestFrameReaderLoopZeroAllocs(t *testing.T) {
	fr := newFrameReader(&replayReader{data: appendBatchFrame(nil, 0, "cpu@h1", fatRun(8, 4))})
	assertNoAllocs(t, "frameReader.next + batchFrame", func() {
		buf, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		f, err := fr.batchFrame(buf)
		if err != nil || f.Sensor != "cpu@h1" || f.Count != 8 {
			t.Fatalf("frame %+v, err %v", f, err)
		}
	})
	// The same through the codec the connection loops read with: the
	// indirection, and the control object a frame never fills, cost
	// nothing per frame.
	var cdc wireCodec = newFrameCodec(nopConn{}, &replayReader{data: appendBatchFrame(nil, 0, "cpu@h1", fatRun(8, 4))})
	var req wireRequest
	assertNoAllocs(t, "wireCodec.read of a batch frame", func() {
		req = wireRequest{}
		f, err := cdc.readRequest(&req)
		if err != nil || f == nil || f.Sensor != "cpu@h1" || f.Count != 8 {
			t.Fatalf("frame %+v, err %v", f, err)
		}
	})
}

// TestSubscriberWriteZeroAllocs: a warmed binary-framing subscriber
// write path allocates nothing per frame, relayed or cooked — less than
// replicated-site's allocs_per_rec bound of one allocation per 64-record
// frame leaves room for.
func TestSubscriberWriteZeroAllocs(t *testing.T) {
	g := New("gw", nil)
	sub, err := g.subscribeQueued(Request{}, 0, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	var cdc wireCodec = newFrameCodec(nopConn{}, nil)
	w := cdc.events("", sub)
	raw := mustParseFrame(t, appendBatchFrame(nil, 0, "cpu@h1", fatRun(64, 12)))
	var item frameItem
	assertNoAllocs(t, "relay of a raw frame", func() {
		item.f = raw.Retain()
		w.(frameRelay).relay(&item)
		if err := w.commit(); err != nil {
			t.Fatal(err)
		}
	})
	recs := fatRun(64, 12)
	assertNoAllocs(t, "two cooked frames", func() {
		w.add("cpu@h1", recs, 32)
		if err := w.commit(); err != nil {
			t.Fatal(err)
		}
	})
	// And the publishing side of a relay: a record and a spliced frame
	// through the Publisher's frame builder.
	pub := &Publisher{conn: nopConn{}, ver: cdc.version(), batch: cdc.newBatch("", false), maxRecs: 64}
	assertNoAllocs(t, "Publisher.Publish + PublishFrame + Flush", func() {
		if err := pub.Publish("cpu@h1", recs[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := pub.PublishFrame(&raw); err != nil {
			t.Fatal(err)
		}
		if err := pub.Flush(); err != nil {
			t.Fatal(err)
		}
	})
}

func retainedHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetentionFrameIngest: records decoded from a frame share the
// frame's string arena and field slab, so every long-lived holder in
// the gateway — the last-event cache, the registered host, an
// on-change filter's last value — must keep copies.
// One 64-record frame per sensor goes in through PublishFrame; what the
// gateway retains afterwards is compared with the same gateway fed the
// same records as standalone values. A holder that pins its frame keeps
// ~25 KB per sensor instead of ~1 KB.
func TestRetentionFrameIngest(t *testing.T) {
	const sensors, perFrame = 1000, 64
	sensorName := func(s int) string { return fmt.Sprintf("cpu@h%04d", s) }
	frameRecs := func(s int) []ulm.Record {
		recs := make([]ulm.Record, perFrame)
		for i := range recs {
			event := "FIRST_HALF"
			if i >= perFrame/2 {
				event = "SECOND_HALF"
			}
			recs[i] = mkRec(event, time.Duration(i)*time.Millisecond, float64(s*perFrame+i))
			recs[i].Host = fmt.Sprintf("h%04d.lbl.gov", s)
			// A fat value that differs record to record, so the arena
			// cannot shrink it away by same-slot sharing.
			recs[i].Fields = append(recs[i].Fields, ulm.Field{Key: "PAD", Value: strings.Repeat("x", 256) + fmt.Sprint(i)})
		}
		return recs
	}
	build := func(ingest func(g *Gateway, sensor string, recs []ulm.Record)) *Gateway {
		g := New("gw", nil)
		for s := 0; s < sensors; s++ {
			if _, err := g.Subscribe(Request{Sensor: sensorName(s), Mode: DeliverOnChange}, func(ulm.Record) {}); err != nil {
				t.Fatal(err)
			}
		}
		for s := 0; s < sensors; s++ {
			ingest(g, sensorName(s), frameRecs(s))
		}
		for s := 0; s < sensors; s++ { // a read decodes what the cache keeps
			if _, ok, err := g.Query("", sensorName(s), "SECOND_HALF"); err != nil || !ok {
				t.Fatalf("query %s: ok %v err %v", sensorName(s), ok, err)
			}
		}
		return g
	}

	base := retainedHeap()
	ref := build(func(g *Gateway, sensor string, recs []ulm.Record) { g.PublishBatch(sensor, recs) })
	refHeld := int64(retainedHeap() - base)
	runtime.KeepAlive(ref)
	ref = nil

	base = retainedHeap()
	g := build(func(g *Gateway, sensor string, recs []ulm.Record) {
		f := mustParseFrame(t, appendBatchFrame(nil, 0, sensor, recs))
		if err := g.PublishFrame(&f); err != nil {
			t.Fatal(err)
		}
	})
	held := int64(retainedHeap() - base)
	if g.FrameStats().Decodes != sensors {
		t.Fatalf("%d frames decoded, want %d: the test is not on the decode path", g.FrameStats().Decodes, sensors)
	}
	t.Logf("retained after %d sensors x %d-record frames: %d KiB from frames, %d KiB from standalone records", sensors, perFrame, held>>10, refHeld>>10)
	if held > 2*refHeld {
		t.Errorf("gateway retains %d KiB after frame ingest, more than twice the %d KiB it retains of the same records as standalone values: something pins frame arenas or slabs", held>>10, refHeld>>10)
	}

	// The cache still answers, with the last record of each event run.
	for _, s := range []int{0, 499, sensors - 1} {
		want := frameRecs(s)
		for event, idx := range map[string]int{"FIRST_HALF": perFrame/2 - 1, "SECOND_HALF": perFrame - 1} {
			got, ok, err := g.Query("", sensorName(s), event)
			if err != nil || !ok {
				t.Fatalf("query %s/%s after GC: ok %v err %v", sensorName(s), event, ok, err)
			}
			if got.String() != want[idx].String() {
				t.Errorf("query %s/%s after GC:\n got  %s\n want %s", sensorName(s), event, got.String(), want[idx].String())
			}
		}
	}
	if infos := g.Sensors(); len(infos) != sensors || infos[0].Host != "h0000.lbl.gov" {
		t.Errorf("sensor listing after GC: %d sensors, first host %q", len(infos), infos[0].Host)
	}
}

// TestWriteChunkedBatch: an oversized stored frame is re-framed in
// batchMax-sized wire frames carrying the same records in order.
func TestWriteChunkedBatch(t *testing.T) {
	want := fatRun(10, 3)
	var recBytes []byte
	for i := range want {
		recBytes = ulm.AppendBinary(recBytes, &want[i])
	}
	client, server := net.Pipe()
	defer client.Close()
	errc := make(chan error, 1)
	n := 0
	go func() {
		var out []byte
		errc <- writeChunkedBatch(server, &out, "cpu@h1", len(want), recBytes, 4, &n)
		server.Close()
	}()
	fr := newFrameReader(client)
	var got []ulm.Record
	var sizes []int
	for {
		buf, err := fr.next()
		if err != nil {
			break
		}
		f, err := fr.batchFrame(buf)
		if err != nil || f.Sensor != "cpu@h1" {
			t.Fatalf("frame %+v, err %v", f, err)
		}
		sizes = append(sizes, f.Count)
		if got, err = f.Records(got); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sizes) != "[4 4 2]" || n != len(want) {
		t.Fatalf("chunk sizes %v, n %d", sizes, n)
	}
	for i := range want {
		if got[i].String() != want[i].String() {
			t.Fatalf("record %d: got %s want %s", i, got[i].String(), want[i].String())
		}
	}
	// A frame that declares more records than it holds is an error, not
	// a short stream.
	var out []byte
	if err := writeChunkedBatch(nopConn{}, &out, "cpu@h1", len(want)+1, recBytes, 4, &n); err == nil {
		t.Fatal("accepted a frame short of its declared count")
	}
}

// nopConn swallows writes.
type nopConn struct{ net.Conn }

func (nopConn) Write(p []byte) (int, error) { return len(p), nil }
