package gateway

import (
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"jamm/internal/ulm"
)

// The last-event cache keeps its own encoded copy of each event's newest
// record: nothing it answers with aliases a batch or a publisher's
// records, whichever way they came in, and its answers carry the
// published DATE exactly.

// TestLastEventCacheCopiesPublishedRecords: a publisher lends its
// records to PublishBatch for the call only. Mutating them afterwards —
// also while another goroutine queries — does not change what the cache
// answers, and the answer's Date is the published one to the nanosecond,
// in its Location.
func TestLastEventCacheCopiesPublishedRecords(t *testing.T) {
	g := New("gw", nil)
	date := time.Date(2000, 5, 1, 12, 0, 0, 123456789, time.FixedZone("PDT", -7*3600))
	recs := []ulm.Record{mkRec("LOAD", 0, 1)}
	recs[0].Date = date
	g.PublishBatch("cpu@h1", recs)
	recs[0].Fields[0].Value = "2"

	got, ok, err := g.Query("", "cpu@h1", "LOAD")
	if err != nil || !ok {
		t.Fatalf("query: ok %v err %v", ok, err)
	}
	if v, _ := got.Get("VAL"); v != "1" {
		t.Fatalf("cache answers VAL=%s after the publisher reused its record, want the published 1", v)
	}
	if got.Date != date || !got.Date.Equal(date) || got.Date.Location() != date.Location() {
		t.Fatalf("cache answers DATE %v, want %v exactly", got.Date, date)
	}

	// The publisher keeps reusing its array while readers query: no race,
	// and every answer is still the published record.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			recs[0].Fields[0].Value = strconv.Itoa(i)
		}
	}()
	for i := 0; i < 1000; i++ {
		got, _, _ := g.Query("", "cpu@h1", "LOAD")
		if v, _ := got.Get("VAL"); v != "1" {
			t.Fatalf("query %d answers VAL=%s, want 1", i, v)
		}
	}
	wg.Wait()
}

// TestLastEventCacheOneAnswerPerPath: the same two-event batch, one hop
// from its source, comes in by each ingest path — an in-process
// PublishBatch, a JSON-lines publish, a v2 frame decoded for a
// subscriber, a v2 frame relayed undecoded and folded in on the first
// read. Query and Handoff answer the same records, the last of each
// event run with its JAMM.HOPS, and the same again after the deprecated
// EnableSnapshots (snapshots=true), which leaves every read as it was.
func TestLastEventCacheOneAnswerPerPath(t *testing.T) {
	const sensor = "cpu@h1"
	var src []ulm.Record // as encoded at the source, before the hop
	for i := 0; i < 6; i++ {
		event := "FIRST"
		if i >= 3 {
			event = "SECOND"
		}
		src = append(src, mkRec(event, time.Duration(i)*time.Millisecond+time.Microsecond, float64(i)))
	}
	hopped := make([]ulm.Record, len(src)) // as they arrive one hop later
	for i := range src {
		hopped[i] = src[i].Clone()
		hopped[i].Set(hopField, "1")
	}
	want := map[string]ulm.Record{"FIRST": hopped[2], "SECOND": hopped[5]}
	frame := func() Frame {
		f := mustParseFrame(t, appendBatchFrame(nil, 0, sensor, src))
		f.SetHops(1)
		return f
	}

	paths := []struct {
		name   string
		ingest func(t *testing.T, g *Gateway)
	}{
		{"PublishBatch", func(t *testing.T, g *Gateway) { g.PublishBatch(sensor, hopped) }},
		{"JSON-lines publish", func(t *testing.T, g *Gateway) {
			srv, err := ServeTCP(g, "127.0.0.1:0", nil)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			req := wireRequest{Op: "publish", Request: Request{Sensor: sensor}}
			for i := range hopped {
				req.Recs = append(req.Recs, wireEvent{Rec: hopped[i].String()})
			}
			line, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(append(line, '\n')); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); g.Stats().Published != uint64(len(hopped)); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d records ingested, want %d", g.Stats().Published, len(hopped))
				}
			}
		}},
		{"decoded PublishFrame", func(t *testing.T, g *Gateway) {
			sub, err := g.SubscribeBatch(Request{Sensor: sensor}, func([]ulm.Record) {})
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Cancel()
			f := frame()
			if err := g.PublishFrame(&f); err != nil {
				t.Fatal(err)
			}
			if g.FrameStats().Decodes != 1 {
				t.Fatal("the frame was not decoded")
			}
		}},
		{"relayed PublishFrame", func(t *testing.T, g *Gateway) {
			f := frame()
			if err := g.PublishFrame(&f); err != nil {
				t.Fatal(err)
			}
			if g.FrameStats().Relays != 1 {
				t.Fatal("the frame was not relayed")
			}
		}},
	}
	check := func(t *testing.T, how string, got ulm.Record, ok bool, err error, event string) {
		t.Helper()
		if err != nil || !ok {
			t.Fatalf("%s %s: ok %v err %v", how, event, ok, err)
		}
		w := want[event]
		if got.String() != w.String() || got.Date != w.Date {
			t.Errorf("%s %s:\n got  %s (%v)\n want %s (%v)", how, event, got.String(), got.Date, w.String(), w.Date)
		}
		if h, _ := got.Get(hopField); h != "1" {
			t.Errorf("%s %s: %s=%q, want 1", how, event, hopField, h)
		}
	}
	for _, path := range paths {
		for _, snapshots := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/snapshots=%v", path.name, snapshots), func(t *testing.T) {
				g := New("gw", nil)
				if snapshots {
					g.EnableSnapshots(SnapshotOptions{MaxStale: time.Hour})
				}
				path.ingest(t, g)
				for event := range want {
					got, ok, err := g.Query("", sensor, event)
					check(t, "Query", got, ok, err, event)
				}
				if st := g.Stats(); st.SnapshotHits != 0 || st.SnapshotMisses != 0 {
					t.Fatalf("%d snapshot hits, %d misses: the deprecated counters moved", st.SnapshotHits, st.SnapshotMisses)
				}
				st, ok := g.Handoff(sensor)
				if !ok || len(st.Recs) != len(want) {
					t.Fatalf("handoff: ok %v, %d records, want %d", ok, len(st.Recs), len(want))
				}
				for _, rec := range st.Recs {
					check(t, "Handoff", rec, true, nil, rec.Event)
				}
			})
		}
	}
}

// TestLastEventCacheGivesBackOversizedBuffer: one oversized record does not
// pin its buffer for the life of the event. The next small record moves
// to a buffer of its own size, while a buffer within lastEventKeepCap is
// reused as it is.
func TestLastEventCacheGivesBackOversizedBuffer(t *testing.T) {
	small := mkRec("LOAD", 0, 1)
	big := small.Clone()
	big.Set("BLOB", strings.Repeat("x", 1<<16))
	var e lastEvent
	e.set(&big)
	if cap(e.bin) < 1<<16 {
		t.Fatalf("oversized record encoded into %d bytes", cap(e.bin))
	}
	e.set(&small)
	if cap(e.bin) > lastEventKeepCap {
		t.Errorf("after a small record the buffer holds %d bytes, want <= %d", cap(e.bin), lastEventKeepCap)
	}
	if got := e.record(); got.String() != small.String() {
		t.Errorf("cache answers %s, want %s", got.String(), small.String())
	}

	mid := small.Clone()
	mid.Set("BLOB", strings.Repeat("x", lastEventKeepCap/2))
	e.set(&mid)
	kept := cap(e.bin)
	e.set(&small)
	if cap(e.bin) != kept {
		t.Errorf("a %d-byte buffer was replaced by %d bytes, want it kept", kept, cap(e.bin))
	}
}

// TestQueryAfterWriteAllocs: the cache decodes on read, not on write. A
// locked-path Query after a write pays the decode — the record's string
// arena and field slab — and a repeat with no write between pays nothing.
func TestQueryAfterWriteAllocs(t *testing.T) {
	skipIfPoolLossy(t)
	g := New("gw", nil)
	recs := fatRun(4, 12)
	g.PublishBatch("cpu@h1", recs)
	query := func() {
		if _, ok, err := g.Query("", "cpu@h1", "VMSTAT_SYS_TIME"); err != nil || !ok {
			t.Fatalf("query: ok %v err %v", ok, err)
		}
	}
	query()
	if avg := testing.AllocsPerRun(200, func() {
		g.PublishBatch("cpu@h1", recs)
		query()
	}); avg > 2 {
		t.Errorf("write + Query costs %.1f allocs, want <= 2 (the decoded record's arena and slab)", avg)
	}
	if avg := testing.AllocsPerRun(200, query); avg != 0 {
		t.Errorf("a Query with no write since the last costs %.1f allocs, want 0", avg)
	}
}
