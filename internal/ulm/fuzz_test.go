package ulm

import (
	"bytes"
	"reflect"
	"strings"
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

// fuzzRecord builds a record from fuzzed parts: fields is key, value,
// key, value, ... separated by NUL bytes.
func fuzzRecord(usec int64, host, prog, lvl, event, fields string) Record {
	r := Record{Date: time.UnixMicro(usec).UTC(), Host: host, Prog: prog, Lvl: lvl, Event: event}
	if fields != "" {
		kv := strings.Split(fields, "\x00")
		for i := 0; i+1 < len(kv); i += 2 {
			r.Fields = append(r.Fields, Field{kv[i], kv[i+1]})
		}
	}
	return r
}

// FuzzTextEncode is the differential test of the append encoders
// against what they replaced: for an arbitrary record AppendText is the
// old Record.String and AppendXML is encoding/xml's marshalling of the
// record's schema, byte for byte.
func FuzzTextEncode(f *testing.F) {
	for _, r := range textShapes() {
		var fields []string
		for _, fl := range r.Fields {
			fields = append(fields, fl.Key, fl.Value)
		}
		f.Add(r.Date.UnixMicro(), r.Host, r.Prog, r.Lvl, r.Event, strings.Join(fields, "\x00"))
	}
	for _, p := range transcriptPayloads(f) {
		if r, err := refParse(string(p)); err == nil {
			f.Add(r.Date.UnixMicro(), r.Host, r.Prog, r.Lvl, r.Event, "VAL\x00"+r.Fields[0].Value)
		}
	}
	f.Fuzz(func(t *testing.T, usec int64, host, prog, lvl, event, fields string) {
		r := fuzzRecord(usec, host, prog, lvl, event, fields)
		if got, want := string(AppendText([]byte("x"), &r)), "x"+refString(r); got != want {
			t.Fatalf("AppendText differs from the old String:\n got %q\nwant %q", got, want)
		}
		if got, want := r.String(), refString(r); got != want {
			t.Fatalf("String differs from the old String:\n got %q\nwant %q", got, want)
		}
		want, err := refToXML(&r)
		if err != nil {
			t.Fatalf("encoding/xml refuses %+v: %v", r, err)
		}
		if got := AppendXML([]byte("x"), &r); string(got) != "x"+string(want) {
			t.Fatalf("AppendXML differs from encoding/xml:\n got %q\nwant %q", got, want)
		}
	})
}

// FuzzTextDecode is the differential test of the text scanners against
// what they replaced. For arbitrary bytes the ULM scanner accepts iff
// the old Parse does, with the same record or the same error; the XML
// scanner either hands the bytes to encoding/xml or agrees with it —
// the same record, or both refuse.
func FuzzTextDecode(f *testing.F) {
	for _, r := range textShapes() {
		f.Add(AppendText(nil, &r))
		f.Add(AppendXML(nil, &r))
	}
	for _, p := range transcriptPayloads(f) {
		f.Add(p)
	}
	for _, s := range []string{
		"", " ", "DATE=20000330112320.9 HOST=h PROG=p LVL=l", "DATE=20000230112320.957943 HOST=h PROG=p LVL=l",
		`DATE=20000330112320.957943 HOST=h PROG=p LVL=l X="a\"b\n" Y="c"Z=d`, `A="x`, `A="x\`, "=v", "k", "a b=c",
		" DATE=00010101000000.000000 HOST=h PROG=p LVL=l ",
		" <ulmEvent  lvl='l' prog = \"p\" host='&#x68;&#104;&lt;' date='20000330112320.957943'>\n<field name='k' >v&amp;&apos;&quot;&gt;</field >\n</ulmEvent > ",
		`<ulmEvent date="20000330112320.957943" host="h" prog="p" lvl="l"><field>v</field><field name="a b">v</field></ulmEvent>`,
		`<ulmEvent date="x" host="h" prog="p" lvl="l"></ulmEvent>`, `<ulmEvent host="h" host="i"></ulmEvent>`,
		`<ulmEvent date="20000330112320.957943" host="&#xD800;" prog="&#0;" lvl="&#x110000;"></ulmEvent>`,
		`<ulmEvent date="20000330112320.957943" host="h" prog="p" lvl="l"></ulmEvent>trailing`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := append([]byte(nil), data...)
		var b TextBatch
		want, refErr := refParse(string(data))
		err := b.AddText(data)
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("ULM scanner: %v, old Parse: %v", err, refErr)
		}
		if _, perr := Parse(string(data)); (perr == nil) != (refErr == nil) {
			t.Fatalf("Parse: %v, old Parse: %v", perr, refErr)
		}
		if err == nil {
			got := b.Records(nil, 0)
			for i := range data {
				data[i] ^= 0xff // the record aliases nothing of the line
			}
			if len(got) != 1 || !recordsEqual(got[0], want) || got[0].Date != want.Date {
				t.Fatalf("ULM scanner differs from the old Parse:\n got %+v\nwant %+v", got, want)
			}
			copy(data, orig)
		}
		if len(b.s.recs) != 0 {
			t.Fatalf("%d records left in the batch", len(b.s.recs))
		}

		err = b.AddXML(data)
		if !bytes.Equal(data, orig) {
			t.Fatal("AddXML wrote to its input")
		}
		if b.Fallbacks() != 0 {
			return // encoding/xml decided
		}
		want, refErr = unmarshalXML(data)
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("XML scanner: %v, encoding/xml: %v", err, refErr)
		}
		if err == nil {
			if got := b.Records(nil, 0); len(got) != 1 || !recordsEqual(got[0], want) || got[0].Date != want.Date {
				t.Fatalf("XML scanner differs from encoding/xml:\n got %+v\nwant %+v", got, want)
			}
		}
	})
}
