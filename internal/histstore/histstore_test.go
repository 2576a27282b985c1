package histstore

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"jamm/internal/bus"
	"jamm/internal/ulm"
)

// trec builds a record stamped at base+off with the given event.
func trec(base time.Time, off time.Duration, event string) ulm.Record {
	return ulm.Record{
		Date: base.Add(off), Host: "h1.lbl.gov", Prog: "test", Lvl: ulm.LvlUsage,
		Event:  event,
		Fields: []ulm.Field{{Key: "VAL", Value: "1"}},
	}
}

var t0 = time.Date(2000, 3, 30, 11, 23, 20, 0, time.UTC)

func openStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestAppendQueryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	defer s.Close()

	if err := s.AppendBatch("cpu", []ulm.Record{
		trec(t0, 0, "LOAD"), trec(t0, time.Second, "LOAD"),
	}); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if err := s.Append("net", trec(t0, 2*time.Second, "BYTES")); err != nil {
		t.Fatalf("Append: %v", err)
	}

	all, err := s.Query(Query{})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(all) != 3 {
		t.Fatalf("Query all: %d entries, want 3", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Rec.Date.Before(all[i-1].Rec.Date) {
			t.Fatalf("Query result unsorted at %d", i)
		}
	}

	cpu, err := s.Query(Query{Sensor: "cpu"})
	if err != nil || len(cpu) != 2 {
		t.Fatalf("Query cpu: %d entries (err %v), want 2", len(cpu), err)
	}
	for _, e := range cpu {
		if e.Sensor != "cpu" || e.Rec.Event != "LOAD" {
			t.Fatalf("Query cpu returned %s/%s", e.Sensor, e.Rec.Event)
		}
	}

	// Half-open time range: [t0+1s, t0+2s) matches exactly one record.
	mid, err := s.Query(Query{From: t0.Add(time.Second), To: t0.Add(2 * time.Second)})
	if err != nil || len(mid) != 1 {
		t.Fatalf("Query range: %d entries (err %v), want 1", len(mid), err)
	}

	// Field round trip survives the binary frame encoding.
	if v, ok := mid[0].Rec.Get("VAL"); !ok || v != "1" {
		t.Fatalf("round-tripped record lost VAL field: %q %v", v, ok)
	}

	ev, err := s.Query(Query{Events: []string{"BYTES"}})
	if err != nil || len(ev) != 1 || ev[0].Sensor != "net" {
		t.Fatalf("Query events: %+v (err %v)", ev, err)
	}
}

func TestReopenServesHistory(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if err := s.Append("cpu", trec(t0, time.Duration(i)*time.Second, "LOAD")); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// "The system outlives its own process": a fresh store over the
	// same directory serves the previous run's records.
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	got, err := s2.Query(Query{Sensor: "cpu"})
	if err != nil || len(got) != 10 {
		t.Fatalf("reopened Query: %d entries (err %v), want 10", len(got), err)
	}
	// And keeps accepting appends.
	if err := s2.Append("cpu", trec(t0, time.Minute, "LOAD")); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if got, _ := s2.Query(Query{Sensor: "cpu"}); len(got) != 11 {
		t.Fatalf("after reopen+append: %d entries, want 11", len(got))
	}
}

func TestSegmentRollAndIndexPruning(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rolls every few batches.
	s := openStore(t, dir, Options{MaxSegmentBytes: 512})
	defer s.Close()
	const batches = 40
	for i := 0; i < batches; i++ {
		recs := []ulm.Record{
			trec(t0, time.Duration(2*i)*time.Minute, "LOAD"),
			trec(t0, time.Duration(2*i)*time.Minute+time.Second, "LOAD"),
		}
		if err := s.AppendBatch("cpu", recs); err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
	}
	st := s.Stats()
	if st.Segments < 4 {
		t.Fatalf("expected multiple segments, got %d", st.Segments)
	}
	if st.Records != 2*batches {
		t.Fatalf("Records = %d, want %d", st.Records, 2*batches)
	}

	// A query scoped to one early window must open only the segments
	// whose index overlaps it — not the whole archive.
	before := s.Stats().SegmentOpens
	got, err := s.Query(Query{From: t0, To: t0.Add(3 * time.Minute)})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(got) != 4 { // batches 0 and 1 fall inside [t0, t0+3m)
		t.Fatalf("ranged query: %d entries, want 4", len(got))
	}
	opened := s.Stats().SegmentOpens - before
	if opened == 0 || opened >= uint64(st.Segments) {
		t.Fatalf("ranged query opened %d of %d segments; the sparse index should prune most", opened, st.Segments)
	}

	// A query for a sensor the store never carried opens nothing.
	before = s.Stats().SegmentOpens
	if got, err := s.Query(Query{Sensor: "nosuch"}); err != nil || len(got) != 0 {
		t.Fatalf("nosuch sensor: %d entries (err %v)", len(got), err)
	}
	if opened := s.Stats().SegmentOpens - before; opened != 0 {
		t.Fatalf("nosuch-sensor query opened %d segments, want 0", opened)
	}
}

func TestCrashRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := s.Append("cpu", trec(t0, time.Duration(i)*time.Second, "LOAD")); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// Simulate a kill mid-append: the process dies without Close (no
	// sidecar is written) and the final frame is half on disk. Write
	// the torn frame bytes directly, as the crashed write would have.
	activePath := s.active.path
	s.f.Close() //nolint:errcheck — abandoning the store, as a crash would
	full := appendFrame(nil, "cpu", []ulm.Record{trec(t0, time.Hour, "NEVER")})
	f, err := os.OpenFile(activePath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)-7]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	if torn := s2.Stats().TornBytes; torn != int64(len(full)-7) {
		t.Fatalf("TornBytes = %d, want %d", torn, len(full)-7)
	}
	got, err := s2.Query(Query{})
	if err != nil {
		t.Fatalf("Query after recovery: %v", err)
	}
	if len(got) != 5 {
		t.Fatalf("recovered %d records, want 5 (torn frame must not surface)", len(got))
	}
	for _, e := range got {
		if e.Rec.Event == "NEVER" {
			t.Fatal("torn frame's record surfaced after recovery")
		}
	}
	// The truncated segment accepts no more writes (it is sealed); new
	// appends land in a fresh segment and both are queryable.
	if err := s2.Append("cpu", trec(t0, 10*time.Second, "LOAD")); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if got, _ := s2.Query(Query{Sensor: "cpu"}); len(got) != 6 {
		t.Fatalf("after recovery+append: %d records, want 6", len(got))
	}
}

func TestCrashRecoveryGarbageTail(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	if err := s.AppendBatch("cpu", []ulm.Record{trec(t0, 0, "LOAD")}); err != nil {
		t.Fatal(err)
	}
	activePath := s.active.path
	s.f.Close() //nolint:errcheck
	// A tail of pure garbage (a torn length word pointing nowhere).
	f, _ := os.OpenFile(activePath, os.O_WRONLY|os.O_APPEND, 0)
	f.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}) //nolint:errcheck
	f.Close()

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	got, err := s2.Query(Query{})
	if err != nil || len(got) != 1 {
		t.Fatalf("recovered %d records (err %v), want 1", len(got), err)
	}
	if s2.Stats().TornBytes != 10 {
		t.Fatalf("TornBytes = %d, want 10", s2.Stats().TornBytes)
	}
}

func TestRetentionPruneByBytes(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{MaxSegmentBytes: 512, RetainBytes: 1536})
	defer s.Close()
	for i := 0; i < 60; i++ {
		if err := s.AppendBatch("cpu", []ulm.Record{
			trec(t0, time.Duration(i)*time.Minute, "LOAD"),
			trec(t0, time.Duration(i)*time.Minute+time.Second, "LOAD"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.PrunedSegments == 0 {
		t.Fatal("retention never pruned despite byte budget")
	}
	if st.Bytes > 2048 { // budget + one active segment of slack
		t.Fatalf("store size %d exceeds retention budget by more than a segment", st.Bytes)
	}
	// Early records are gone (whole-segment deletes), recent ones serve.
	early, _ := s.Query(Query{To: t0.Add(5 * time.Minute)})
	late, _ := s.Query(Query{From: t0.Add(55 * time.Minute)})
	if len(early) != 0 {
		t.Fatalf("pruned range still returned %d records", len(early))
	}
	if len(late) == 0 {
		t.Fatal("recent range empty after pruning")
	}
	// Pruned files are actually off disk.
	paths, _, _ := listSegments(dir)
	if len(paths) != st.Segments {
		t.Fatalf("%d segment files on disk, stats say %d", len(paths), st.Segments)
	}
}

func TestRetentionPruneByAge(t *testing.T) {
	dir := t.TempDir()
	clock := t0.Add(time.Hour)
	s := openStore(t, dir, Options{
		MaxSegmentBytes: 256,
		RetainAge:       30 * time.Minute,
		Now:             func() time.Time { return clock },
	})
	defer s.Close()
	// Old records (t0..t0+10m), then enough new ones to roll segments.
	for i := 0; i < 10; i++ {
		if err := s.Append("cpu", trec(t0, time.Duration(i)*time.Minute, "OLD")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Roll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Append("cpu", trec(clock, time.Duration(i)*time.Second, "NEW")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Prune(); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Query(Query{})
	for _, e := range got {
		if e.Rec.Event == "OLD" {
			t.Fatal("record older than RetainAge survived pruning")
		}
	}
	if len(got) != 10 {
		t.Fatalf("%d records after age pruning, want 10", len(got))
	}
	if s.Stats().PrunedSegments == 0 {
		t.Fatal("age pruning removed no segments")
	}
}

func TestReplayBatchesAndBus(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	defer s.Close()
	var recs []ulm.Record
	for i := 0; i < 100; i++ {
		recs = append(recs, trec(t0, time.Duration(i)*time.Second, "LOAD"))
	}
	if err := s.AppendBatch("cpu", recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("net", trec(t0, time.Second, "BYTES")); err != nil {
		t.Fatal(err)
	}

	// Replay respects batchMax and per-sensor framing.
	var batches, total int
	err := s.Replay(Query{Sensor: "cpu"}, 16, func(sensor string, rb []ulm.Record) error {
		if sensor != "cpu" {
			t.Fatalf("replay batch sensor %q", sensor)
		}
		if len(rb) > 16 {
			t.Fatalf("replay batch of %d exceeds batchMax", len(rb))
		}
		batches++
		total += len(rb)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if total != 100 || batches < 7 {
		t.Fatalf("replayed %d records in %d batches", total, batches)
	}

	// Historical→live handoff: replay into a bus and receive on a
	// plain batch subscription.
	b := bus.New(bus.Options{})
	byTopic := map[string]int{}
	b.SubscribeBatchTopics("", nil, func(topic string, rb []ulm.Record) {
		byTopic[topic] += len(rb)
	})
	n, err := s.ReplayBus(Query{}, b, 32)
	if err != nil || n != 101 {
		t.Fatalf("ReplayBus: n=%d err=%v, want 101", n, err)
	}
	if byTopic["cpu"] != 100 || byTopic["net"] != 1 {
		t.Fatalf("bus received %+v", byTopic)
	}
}

func TestQueryDuringAppends(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{MaxSegmentBytes: 2048})
	defer s.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s.AppendBatch("cpu", []ulm.Record{trec(t0, time.Duration(i)*time.Second, "LOAD")}) //nolint:errcheck
		}
	}()
	// Concurrent queries must never see torn frames or error.
	for i := 0; i < 50; i++ {
		if _, err := s.Query(Query{Sensor: "cpu"}); err != nil {
			t.Fatalf("concurrent Query: %v", err)
		}
	}
	<-done
	got, err := s.Query(Query{Sensor: "cpu"})
	if err != nil || len(got) != 200 {
		t.Fatalf("final query: %d records (err %v), want 200", len(got), err)
	}
}

func TestClosedStoreErrors(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	if err := s.Append("cpu", trec(t0, 0, "LOAD")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := s.Append("cpu", trec(t0, 0, "LOAD")); err != ErrClosed {
		t.Fatalf("append on closed store: %v, want ErrClosed", err)
	}
	// Sidecars exist for every segment after a clean close.
	paths, _, _ := listSegments(dir)
	for _, p := range paths {
		if _, err := os.Stat(idxPath(p)); err != nil {
			t.Fatalf("segment %s missing sidecar after Close: %v", filepath.Base(p), err)
		}
	}
}

// TestReplayFramesRawPath: an unfiltered whole-range replay serves
// stored frames raw — record bodies never decoded — and the raw bytes
// must decode to exactly what a cooked replay yields. Any filter that
// needs record bodies (events, levels, a time range cutting through a
// segment) pushes that segment onto the cooked path.
func TestReplayFramesRawPath(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	defer s.Close()
	for i := 0; i < 30; i++ {
		if err := s.AppendBatch("cpu", []ulm.Record{trec(t0, time.Duration(i)*time.Second, "LOAD")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append("net", trec(t0, 5*time.Second, "BYTES")); err != nil {
		t.Fatal(err)
	}

	var rawRecs, cookedRecs []ulm.Record
	err := s.ReplayFrames(Query{Sensor: "cpu"}, 64,
		func(sensor string, count int, recBytes []byte) error {
			if sensor != "cpu" {
				t.Fatalf("raw frame sensor = %q", sensor)
			}
			rest := recBytes
			for i := 0; i < count; i++ {
				var rec ulm.Record
				var err error
				if rest, err = ulm.DecodeBinary(rest, &rec); err != nil {
					t.Fatalf("raw frame record %d: %v", i, err)
				}
				rawRecs = append(rawRecs, rec)
			}
			if len(rest) != 0 {
				t.Fatalf("%d trailing bytes after %d raw records", len(rest), count)
			}
			return nil
		},
		func(sensor string, recs []ulm.Record) error {
			cookedRecs = append(cookedRecs, recs...)
			return nil
		})
	if err != nil {
		t.Fatalf("ReplayFrames: %v", err)
	}
	if len(rawRecs)+len(cookedRecs) != 30 {
		t.Fatalf("replayed %d raw + %d cooked records, want 30 total", len(rawRecs), len(cookedRecs))
	}
	if len(rawRecs) == 0 {
		t.Fatal("unfiltered replay never took the raw path")
	}
	if s.Stats().RawFrames == 0 {
		t.Fatal("Stats().RawFrames = 0 after raw replay")
	}

	// The raw bytes carry the same records a cooked replay decodes.
	var viaCooked []ulm.Record
	if err := s.Replay(Query{Sensor: "cpu"}, 64, func(sensor string, recs []ulm.Record) error {
		viaCooked = append(viaCooked, recs...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	all := append(append([]ulm.Record{}, rawRecs...), cookedRecs...)
	if len(all) != len(viaCooked) {
		t.Fatalf("raw replay yielded %d records, cooked %d", len(all), len(viaCooked))
	}
	for i := range all {
		if !all[i].Date.Equal(viaCooked[i].Date) || all[i].Event != viaCooked[i].Event {
			t.Fatalf("record %d differs: raw %v/%s cooked %v/%s", i,
				all[i].Date, all[i].Event, viaCooked[i].Date, viaCooked[i].Event)
		}
	}

	// An event filter forces decode: no new raw frames.
	before := s.Stats().RawFrames
	var n int
	if err := s.ReplayFrames(Query{Events: []string{"BYTES"}}, 64,
		func(string, int, []byte) error { t.Fatal("filtered replay used the raw path"); return nil },
		func(sensor string, recs []ulm.Record) error { n += len(recs); return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("filtered replay yielded %d records, want 1", n)
	}
	if s.Stats().RawFrames != before {
		t.Fatalf("RawFrames grew on filtered replay (%d -> %d)", before, s.Stats().RawFrames)
	}

	// A time range slicing through a segment needs per-record bounds
	// checks: cooked, even with no event filter.
	var sliced int
	if err := s.ReplayFrames(Query{Sensor: "cpu", From: t0.Add(5 * time.Second), To: t0.Add(10 * time.Second)}, 64,
		func(sensor string, count int, recBytes []byte) error {
			// Raw is only legal when the whole segment sits inside the
			// range; with one active segment spanning 0..29s it cannot.
			t.Fatal("mid-segment range used the raw path")
			return nil
		},
		func(sensor string, recs []ulm.Record) error { sliced += len(recs); return nil }); err != nil {
		t.Fatal(err)
	}
	if sliced != 5 {
		t.Fatalf("ranged replay yielded %d records, want 5", sliced)
	}
}

// TestHistoryScanAllocsIndependentOfSkippedFrames: replaying one sensor
// costs the same allocations whether its frames are alone in the segment
// or every 64th of it — a frame the sensor filter walks past is neither
// named nor decoded — and the frames it does return are named by the
// filter's own string, raw and cooked alike.
func TestHistoryScanAllocsIndependentOfSkippedFrames(t *testing.T) {
	const frames = 64
	scan := func(sensors int) (raw, cooked float64) {
		s := openStore(t, t.TempDir(), Options{})
		defer s.Close()
		for f := 0; f < frames; f++ {
			for i := 0; i < sensors; i++ {
				recs := []ulm.Record{trec(t0, time.Duration(f)*time.Second, "LOAD"), trec(t0, time.Duration(f)*time.Second, "IDLE")}
				if err := s.AppendBatch("cpu@h"+string(rune('0'+i)), recs); err != nil {
					t.Fatal(err)
				}
			}
		}
		q := Query{Sensor: "cpu@h0"}
		got := 0
		onRaw := func(sensor string, count int, _ []byte) error { got += count; return nil }
		onRecs := func(sensor string, recs []ulm.Record) error { got += len(recs); return nil }
		replay := func(q Query) float64 {
			return testing.AllocsPerRun(20, func() {
				got = 0
				if err := s.ReplayFrames(q, 0, onRaw, onRecs); err != nil || got == 0 {
					t.Fatalf("replay of %+v: %d records, %v", q, got, err)
				}
			})
		}
		raw = replay(q)
		q.Events = []string{"IDLE"} // an event filter decodes
		return raw, replay(q)
	}
	raw1, cooked1 := scan(1)
	raw64, cooked64 := scan(64)
	// The segment list, the file, the scanner and its growing frame
	// buffer: a handful per scan, none per frame.
	if raw1 > 12 {
		t.Errorf("a raw replay of %d frames allocates %.0f times: it pays per frame", frames, raw1)
	}
	// Equal, give or take what the pools under the answer's own frames
	// drop when the race detector is on; one allocation per skipped frame
	// would be 63 × 64 more.
	const slack = frames
	if raw64 > raw1+slack {
		t.Errorf("raw replay: %.0f allocations among 64 sensors, %.0f alone", raw64, raw1)
	}
	if cooked64 > cooked1+slack {
		t.Errorf("filtered replay: %.0f allocations among 64 sensors, %.0f alone", cooked64, cooked1)
	}
}
