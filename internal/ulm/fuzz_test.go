package ulm

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// FuzzULMRecord hammers the binary record codec with the
// decode→encode→decode identity: any byte string that decodes at all
// must re-encode to a form that decodes to the identical record. The
// corpus is seeded with the record shapes the wire path actually
// carries (NetLogger-style events with session/value fields, bare
// minimum records, back-to-back streams, truncations).
func FuzzULMRecord(f *testing.F) {
	date := time.Date(2000, 6, 14, 10, 30, 0, 123456000, time.UTC)
	seeds := []Record{
		{
			Date: date, Host: "dpss2.lbl.gov", Prog: "netlogger", Lvl: LvlUsage,
			Event:  "NL.EVNT.SERV_IN",
			Fields: []Field{{"NL.SEC", "960978600"}, {"SES", "1"}, {"VAL", "42.5"}},
		},
		{Date: date.Add(time.Second), Host: "h1", Prog: "p", Lvl: LvlError},
		{
			Date: time.UnixMicro(0).UTC(), Host: "", Prog: "", Lvl: "",
			Fields: []Field{{"K", ""}, {"", "v"}},
		},
	}
	for i := range seeds {
		f.Add(AppendBinary(nil, &seeds[i]))
	}
	stream := AppendBinary(AppendBinary(nil, &seeds[0]), &seeds[1])
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	f.Add([]byte{})
	f.Add([]byte{binaryMagic})

	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for len(rest) > 0 {
			var r1 Record
			next, err := DecodeBinary(rest, &r1)
			if err != nil {
				return // rejection is fine; the invariant is no panic
			}
			if len(next) >= len(rest) {
				t.Fatalf("decode consumed no bytes (rest %d -> %d)", len(rest), len(next))
			}
			rest = next

			enc := AppendBinary(nil, &r1)
			var r2 Record
			tail, err := DecodeBinary(enc, &r2)
			if err != nil {
				t.Fatalf("re-encoded record fails decode: %v\nrecord: %+v", err, r1)
			}
			if len(tail) != 0 {
				t.Fatalf("re-encoded record leaves %d trailing bytes", len(tail))
			}
			if !r1.Date.Equal(r2.Date) {
				t.Fatalf("date drifts across re-encode: %v -> %v", r1.Date, r2.Date)
			}
			r2.Date = r1.Date
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("record drifts across re-encode:\n  first:  %+v\n  second: %+v", r1, r2)
			}
		}
	})
}

// FuzzULMBatch is the differential test between the two binary
// decoders: for arbitrary bytes and count, DecodeBinaryBatch accepts
// iff count successive DecodeBinary calls accept, and then yields
// field-for-field equal records and the same remaining bytes.
func FuzzULMBatch(f *testing.F) {
	date := time.Date(2000, 6, 14, 10, 30, 0, 123456000, time.UTC)
	seeds := []Record{
		{
			Date: date, Host: "dpss2.lbl.gov", Prog: "netlogger", Lvl: LvlUsage,
			Event:  "NL.EVNT.SERV_IN",
			Fields: []Field{{"NL.SEC", "960978600"}, {"SES", "1"}, {"VAL", "42.5"}},
		},
		{Date: date.Add(time.Second), Host: "h1", Prog: "p", Lvl: LvlError},
		{
			Date: time.UnixMicro(0).UTC(), Host: "", Prog: "", Lvl: "",
			Fields: []Field{{"K", ""}, {"", "v"}},
		},
	}
	for i := range seeds {
		f.Add(AppendBinary(nil, &seeds[i]), 1)
	}
	stream := AppendBinary(AppendBinary(nil, &seeds[0]), &seeds[1])
	f.Add(stream, 2)
	f.Add(stream, 3)
	f.Add(stream[:len(stream)/2], 2)
	f.Add([]byte{}, 0)
	f.Add([]byte{binaryMagic}, 1)
	// Self-similar runs — what one sensor emits — so the same-slot
	// sharing path is in the corpus from the start.
	var run []byte
	for i := 0; i < 4; i++ {
		r := seeds[0]
		r.Date = date.Add(time.Duration(i) * time.Millisecond)
		r.Fields = []Field{{"NL.SEC", "960978600"}, {"SES", "1"}, {"VAL", string(rune('0' + i))}}
		run = AppendBinary(run, &r)
	}
	f.Add(run, 4)
	f.Add(append(run, stream...), 6)

	f.Fuzz(func(t *testing.T, data []byte, count int) {
		if count < 0 || count > 64 {
			return
		}
		var want []Record
		rest := data
		var refErr error
		for i := 0; i < count && refErr == nil; i++ {
			var r Record
			if rest, refErr = DecodeBinary(rest, &r); refErr == nil {
				want = append(want, r)
			}
		}
		orig := append([]byte(nil), data...)
		spare := count % 2
		got, gotRest, err := DecodeBinaryBatch(nil, data, count, spare)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoders disagree: batch err %v, record-at-a-time err %v", err, refErr)
		}
		if err != nil {
			if len(got) != 0 || len(gotRest) != len(data) {
				t.Fatalf("rejected batch returned %d records, rest %d of %d", len(got), len(gotRest), len(data))
			}
			return
		}
		if !bytes.Equal(gotRest, rest) {
			t.Fatalf("rest differs: batch %d bytes, record-at-a-time %d", len(gotRest), len(rest))
		}
		if len(got) != len(want) {
			t.Fatalf("batch decoded %d records, want %d", len(got), len(want))
		}
		// Decoded records alias nothing in data.
		for i := range data {
			data[i] ^= 0xff
		}
		for i := range want {
			if !recordsEqual(got[i], want[i]) {
				t.Fatalf("record %d differs:\n  batch:  %+v\n  single: %+v", i, got[i], want[i])
			}
			if cap(got[i].Fields)-len(got[i].Fields) != spare {
				t.Fatalf("record %d: %d spare field slots, want %d", i, cap(got[i].Fields)-len(got[i].Fields), spare)
			}
		}
		copy(data, orig)
	})
}
