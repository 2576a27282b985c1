package ulm

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// sensorRun builds n self-similar records of nf fields — one sensor's
// output: everything but the date and the last field's value repeats.
func sensorRun(n, nf int) []Record {
	date := time.Date(2000, 6, 14, 10, 30, 0, 0, time.UTC)
	recs := make([]Record, n)
	for i := range recs {
		fields := make([]Field, nf)
		for f := range fields {
			fields[f] = Field{fmt.Sprintf("KEY%02d", f), fmt.Sprintf("value-%02d", f)}
		}
		if nf > 0 {
			fields[nf-1].Value = fmt.Sprint(i)
		}
		recs[i] = Record{
			Date: date.Add(time.Duration(i) * time.Millisecond),
			Host: "dpss2.lbl.gov", Prog: "jamm.cpu", Lvl: LvlUsage, Event: "VMSTAT_SYS_TIME",
			Fields: fields,
		}
	}
	return recs
}

func encodeRun(recs []Record) []byte {
	var data []byte
	for i := range recs {
		data = AppendBinary(data, &recs[i])
	}
	return data
}

func TestBatchDecodeMatchesSingle(t *testing.T) {
	want := sensorRun(8, 5)
	want[3].Event = "" // a slot that changes and changes back
	want[5].Fields = want[5].Fields[:2]
	want[6].Fields = nil
	data := append(encodeRun(want), 0xAA, 0xBB)
	got, rest, err := DecodeBinaryBatch(nil, data, len(want), 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(rest) != "\xaa\xbb" {
		t.Fatalf("rest = %x, want aabb", rest)
	}
	for i := range want {
		if !recordsEqual(got[i], want[i]) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	// Appends to dst, keeping what was there.
	got, _, err = DecodeBinaryBatch(got[:1], data, 2, 0)
	if err != nil || len(got) != 3 || !recordsEqual(got[0], want[0]) || !recordsEqual(got[2], want[1]) {
		t.Fatalf("append form: %d records, err %v", len(got), err)
	}
}

func TestBatchDecodeRejectsWhatSingleRejects(t *testing.T) {
	data := encodeRun(sensorRun(3, 2))
	for cut := 0; cut < len(data); cut++ {
		dst := make([]Record, 1, 8)
		got, rest, err := DecodeBinaryBatch(dst, data[:cut], 3, 0)
		if err == nil {
			t.Fatalf("accepted a batch truncated at %d of %d", cut, len(data))
		}
		if len(got) != 1 || len(rest) != cut {
			t.Fatalf("rejected batch changed dst (%d records) or rest (%d of %d)", len(got), len(rest), cut)
		}
	}
	bad := append([]byte(nil), data...)
	bad[0] = 0
	if _, _, err := DecodeBinaryBatch(nil, bad, 3, 0); err == nil || !strings.Contains(err.Error(), "record 0/3") {
		t.Fatalf("bad magic: err = %v", err)
	}
}

// TestBatchRecordsAreIndependent pins the aliasing contract: records
// share an arena and a slab but behave as independent values.
func TestBatchRecordsAreIndependent(t *testing.T) {
	want := sensorRun(4, 3)
	data := encodeRun(want)

	for _, spare := range []int{0, 1} {
		got, _, err := DecodeBinaryBatch(nil, data, len(want), spare)
		if err != nil {
			t.Fatal(err)
		}
		// Mutate every record every way Record allows: replace a value,
		// append through Set, append directly.
		for i := range got {
			got[i].Set("KEY00", "changed")
			got[i].Set("NEW", "field")
			got[i].Fields = append(got[i].Fields, Field{"MORE", "x"})
		}
		for i := range got {
			w := want[i].Clone()
			w.Fields[0].Value = "changed"
			w.Fields = append(w.Fields, Field{"NEW", "field"}, Field{"MORE", "x"})
			if !recordsEqual(got[i], w) {
				t.Fatalf("spare %d: record %d clobbered by a neighbour's mutation:\n got  %+v\n want %+v", spare, i, got[i], w)
			}
		}
	}

	// One Set per record stays inside the slab when a spare slot was
	// asked for, and moves out of it when not.
	for _, spare := range []int{0, 1} {
		got, _, _ := DecodeBinaryBatch(nil, data, len(want), spare)
		for i := range got {
			before := &got[i].Fields[0]
			got[i].Set("JAMM.HOPS", "1")
			if inPlace := before == &got[i].Fields[0]; inPlace != (spare == 1) {
				t.Fatalf("spare %d: record %d Set in place = %v", spare, i, inPlace)
			}
		}
	}

	// Overwriting the source buffer after decode changes no record.
	got, _, _ := DecodeBinaryBatch(nil, data, len(want), 0)
	for i := range data {
		data[i] = 0xFF
	}
	for i := range want {
		if !recordsEqual(got[i], want[i]) {
			t.Fatalf("record %d changed when the source buffer was overwritten", i)
		}
	}
}

func TestCompactEqualsInput(t *testing.T) {
	for _, r := range append(sensorRun(2, 4), Record{}, Record{Host: "h", Fields: []Field{{"", ""}}}) {
		c := r.Compact()
		if !recordsEqual(c, r) {
			t.Fatalf("Compact changed the record: %+v -> %+v", r, c)
		}
		if len(r.Fields) > 0 && &c.Fields[0] == &r.Fields[0] {
			t.Fatal("Compact shares the input's field slice")
		}
		if cap(c.Fields) != len(c.Fields) {
			t.Fatalf("Compact left %d spare field slots", cap(c.Fields)-len(c.Fields))
		}
	}
}

func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCompactRetention shows the pinning Compact exists to break: one
// record kept from a batch keeps the batch's arena and slab alive, its
// Compact copy keeps only itself.
func TestCompactRetention(t *testing.T) {
	recs := sensorRun(512, 4)
	for i := range recs {
		recs[i].Fields[0].Value = strings.Repeat(string(rune('a'+i%26)), 2048) + fmt.Sprint(i)
	}
	data := encodeRun(recs)
	recs = nil
	const arena = 512 * 2048

	base := heapAfterGC()
	got, _, err := DecodeBinaryBatch(nil, data, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	kept := got[100]
	got = nil
	if held := int64(heapAfterGC() - base); held < arena {
		t.Fatalf("a kept batch record holds %d bytes; expected it to pin the %d-byte arena (test has no teeth)", held, arena)
	}
	compact := kept.Compact()
	kept = Record{}
	if held := int64(heapAfterGC() - base); held > arena/16 {
		t.Fatalf("a Compact record still holds %d bytes of its batch", held)
	}
	runtime.KeepAlive(compact)
	runtime.KeepAlive(data)
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

// TestBatchDecodeAllocs is the counter-asserted guard on the batch
// decoder's cost: two allocations per batch, whatever its size.
func TestBatchDecodeAllocs(t *testing.T) {
	skipIfPoolLossy(t)
	for _, tc := range []struct{ n, nf, spare int }{{32, 12, 0}, {4, 1, 1}, {256, 12, 1}} {
		data := encodeRun(sensorRun(tc.n, tc.nf))
		dst := make([]Record, 0, tc.n)
		allocs := testing.AllocsPerRun(50, func() {
			var err error
			if dst, _, err = DecodeBinaryBatch(dst[:0], data, tc.n, tc.spare); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%d records x %d fields, spare %d: %.1f allocs per batch, want <= 2", tc.n, tc.nf, tc.spare, allocs)
		}
	}
}
