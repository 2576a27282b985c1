package gateway

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"jamm/internal/ulm"
)

// The steady-state publish path must be allocation-free: the matched
// buffer is pooled, subscriber lists are pre-sorted, and no closures or
// id slices are built per event. A rare stray allocation can come from
// a GC clearing the sync.Pool mid-measurement, so the assertions allow
// a small fractional average rather than exactly zero.
func assertNoAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f() // warm the producer map and buffer pool
	if avg := testing.AllocsPerRun(1000, f); avg > 0.05 {
		t.Fatalf("%s: %v allocs/op, want 0", name, avg)
	}
}

func TestPublishNoSubscriberZeroAllocs(t *testing.T) {
	g := New("gw", nil)
	g.Register("cpu@h", Meta{Host: "h"})
	r := mkRec("E", 0, 42)
	assertNoAllocs(t, "no-subscriber publish", func() {
		g.Publish("cpu@h", r)
	})
}

func TestPublishSingleSubscriberZeroAllocs(t *testing.T) {
	g := New("gw", nil)
	g.Register("cpu@h", Meta{Host: "h"})
	var n int
	if _, err := g.Subscribe(Request{Sensor: "cpu@h"}, func(ulm.Record) { n++ }); err != nil {
		t.Fatal(err)
	}
	r := mkRec("E", 0, 42)
	assertNoAllocs(t, "single-subscriber publish", func() {
		g.Publish("cpu@h", r)
	})
	if n == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestPublishFilteredSubscriberZeroAllocs(t *testing.T) {
	g := New("gw", nil)
	g.Register("cpu@h", Meta{Host: "h"})
	if _, err := g.Subscribe(Request{Sensor: "cpu@h", Mode: DeliverOnChange}, func(ulm.Record) {}); err != nil {
		t.Fatal(err)
	}
	r := mkRec("E", 0, 42)
	assertNoAllocs(t, "on-change suppressed publish", func() {
		g.Publish("cpu@h", r) // same value every time: all suppressed
	})
}

// TestLineSubscriberWriteZeroAllocs: a warmed JSON-lines subscriber
// write path — payload rendered, escaped into the line, the burst
// written — allocates nothing per record in either text format, at
// batched and at single-record frames.
func TestLineSubscriberWriteZeroAllocs(t *testing.T) {
	g := New("gw", nil)
	sub, err := g.subscribeQueued(Request{}, 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	recs := fatRun(64, 12)
	for _, format := range []string{FormatULM, FormatXML} {
		var cdc wireCodec = newLineCodec(nopConn{}, nil, maxLineBytes)
		w := cdc.events(format, sub)
		assertNoAllocs(t, format+": two batched lines and a partial", func() {
			w.add("cpu@h1", recs, 24)
			if err := w.commit(); err != nil {
				t.Fatal(err)
			}
		})
		assertNoAllocs(t, format+": single-record lines", func() {
			w.add("cpu@h1", recs[:4], 1)
			if err := w.commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// eventLine is the line a JSON-lines subscriber of format is sent for
// recs.
func eventLine(t testing.TB, format string, recs []ulm.Record) []byte {
	t.Helper()
	var w lineWriter
	w.buf = append(w.buf, `{"ok":true,"recs":[`...)
	for i := range recs {
		if i > 0 {
			w.buf = append(w.buf, ',')
		}
		w.event(format, "cpu@h1", &recs[i])
	}
	return append(w.buf, "]}\n"...)
}

// TestLineStreamDecodeAllocsPerLine: a client reading event lines pays
// for the records it hands over — one string arena and one field slab —
// and nothing else, however many records a line holds.
func TestLineStreamDecodeAllocsPerLine(t *testing.T) {
	for _, format := range []string{FormatULM, FormatXML} {
		for _, n := range []int{1, 8, 64} {
			cdc := newLineCodec(nopConn{}, &replayReader{data: eventLine(t, format, fatRun(n, 4))}, 0)
			var in inboundEvents
			var resp wireResponse
			got := 0
			deliver := func(_ string, recs []ulm.Record) error { got = len(recs); return nil }
			fail := func(err error) error { return err }
			f := func() {
				resp = wireResponse{events: &in}
				if _, err := cdc.readResponse(&resp); err != nil || !resp.OK {
					t.Fatalf("read: %+v, %v", resp, err)
				}
				if m, err := in.runs(format, fail, deliver); err != nil || m != n || got != n {
					t.Fatalf("%d records delivered (%d in one run), want %d: %v", m, got, n, err)
				}
			}
			f() // the line buffer and the decoder's scratch grow to size
			f()
			if avg := testing.AllocsPerRun(200, f); avg > 3 {
				t.Errorf("%s, %d records a line: %.2f allocs per line, want <= 3", format, n, avg)
			}
			if in.fallbacks != 0 || in.batch.Fallbacks() != 0 {
				t.Errorf("%s: %d lines through encoding/json, %d payloads through encoding/xml", format, in.fallbacks, in.batch.Fallbacks())
			}
		}
	}
}

// TestTextBatchCompactReleasesLine: the records of one event line share
// an arena and a slab, so keeping one keeps the line; keeping its
// Compact copy keeps only itself.
func TestTextBatchCompactReleasesLine(t *testing.T) {
	recs := fatRun(512, 2)
	for i := range recs {
		recs[i].Fields[1].Value = strings.Repeat(string(rune('a'+i%26)), 2048) + fmt.Sprint(i)
	}
	line := eventLine(t, FormatULM, recs)
	recs = nil
	const arena = 512 * 2048
	decode := func(keep func(ulm.Record) ulm.Record) (kept ulm.Record) {
		var in inboundEvents
		var resp wireResponse
		if !in.scan(bytes.TrimSpace(line), &resp) {
			t.Fatal("the event scanner refused an event line")
		}
		n, err := in.runs(FormatULM, func(err error) error { return err }, func(_ string, recs []ulm.Record) error {
			kept = keep(recs[100])
			return nil
		})
		if n != 512 || err != nil {
			t.Fatalf("%d records, %v", n, err)
		}
		return kept
	}
	base := retainedHeap()
	kept := decode(func(r ulm.Record) ulm.Record { return r })
	if held := int64(retainedHeap() - base); held < arena {
		t.Fatalf("a kept record of the line holds %d bytes; expected it to pin the %d-byte arena (test has no teeth)", held, arena)
	}
	runtime.KeepAlive(kept)
	compact := decode(func(r ulm.Record) ulm.Record { return r.Compact() })
	if held := int64(retainedHeap() - base); held > arena/16 {
		t.Fatalf("a Compact record still holds %d bytes of its line", held)
	}
	runtime.KeepAlive(compact)
	runtime.KeepAlive(line)
}

// warmCallAllocs measures call on a kept connection to srv — request
// appended, scanned, served and answered by a real server, answer
// scanned — both ends together, and fails above limit.
func warmCallAllocs(t *testing.T, srv *TCPServer, what string, limit float64, call func()) {
	t.Helper()
	call() // dials
	avg := testing.AllocsPerRun(500, call)
	t.Logf("%.1f allocations per warm %s", avg, what)
	if avg > limit {
		t.Fatalf("%.1f allocations per warm %s, want <= %.0f", avg, what, limit)
	}
	if a := srv.WireStats().Accepts; a != 1 {
		t.Fatalf("%d connections accepted: the %s calls were not warm", a, what)
	}
}

// TestWarmQueryAllocs: what a Query on a kept connection allocates is
// the record it returns — its string arena and its field slab — and
// nothing else: no encoding/json on either end, no request or answer
// struct on the heap, no payload string, no resource string to
// authorize. A dial, a codec and a server connection per call would be
// about twenty more.
func TestWarmQueryAllocs(t *testing.T) {
	g, srv := startServer(t)
	g.Publish("cpu", mkRec("LOAD", 0, 42))
	c := NewClient("", srv.Addr())
	defer c.Close()
	warmCallAllocs(t, srv, "query", 6, func() {
		if _, found, err := c.Query("cpu", "LOAD"); err != nil || !found {
			t.Fatalf("query: %v found=%v", err, found)
		}
	})
}

// TestWarmSummaryAllocs: a Summary on a kept connection allocates the
// slice of points it returns, and the points its server computes from
// the series' slots.
func TestWarmSummaryAllocs(t *testing.T) {
	g, srv := startServer(t)
	g.EnableSummary("cpu", "LOAD", "VAL", time.Minute, time.Hour)
	g.Publish("cpu", mkRec("LOAD", 0, 42))
	c := NewClient("", srv.Addr())
	defer c.Close()
	warmCallAllocs(t, srv, "summary", 3, func() {
		if pts, err := c.Summary("cpu", "LOAD", "VAL"); err != nil || len(pts) != 2 || pts[0].Count != 1 {
			t.Fatalf("summary: %+v, %v", pts, err)
		}
	})
}
