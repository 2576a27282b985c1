package gateway

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"encoding/xml"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"jamm/internal/ulm"
)

// transcriptLines returns the JSON lines of the golden wire transcripts,
// both directions: the text fuzzers' seed corpus.
func transcriptLines(tb testing.TB) [][]byte {
	files, err := filepath.Glob("testdata/transcripts/*.golden")
	if err != nil || len(files) == 0 {
		tb.Fatalf("no transcripts: %v", err)
	}
	var out [][]byte
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		for _, l := range strings.Split(string(data), "\n") {
			if len(l) < 3 || (l[0] != '<' && l[0] != '>') {
				continue
			}
			if raw, err := strconv.Unquote(l[2:]); err == nil && strings.HasPrefix(raw, "{") {
				out = append(out, []byte(strings.TrimSuffix(raw, "\n")))
			}
		}
	}
	return out
}

// captureConn keeps what is written to it.
type captureConn struct {
	nopConn
	bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) { return c.Buffer.Write(p) }

// refPayload renders a payload the way the wire did before the append
// encoders: through encoding/xml, Record.String and base64 of the
// binary form.
func refPayload(t *testing.T, format string, rec ulm.Record) string {
	switch format {
	case FormatXML:
		b, err := xml.Marshal(rec)
		if err != nil {
			t.Fatalf("encoding/xml refuses %+v: %v", rec, err)
		}
		return string(b)
	case FormatBinary:
		return base64.StdEncoding.EncodeToString(ulm.AppendBinary(nil, &rec))
	}
	return rec.String()
}

// FuzzTextEncode is the differential test of the JSON-lines writers
// against json.Encoder: for arbitrary records, sensors and drop counts,
// a subscription's event lines, a history answer's and a Publisher's
// request lines are byte for byte what encoding/json makes of the
// equivalent wireResponse or wireRequest.
func FuzzTextEncode(f *testing.F) {
	f.Add(int64(957139200000000), "h1.lbl.gov", "jamm.cpu", "Usage", "LOAD", "VAL\x001", "cpu@h1", uint64(0), uint8(3), uint8(0))
	f.Add(int64(0), "h <1>", `p"q\`, "a=b&c", "", "MSG\x00line1\nline2\r\x00E\x00", "", uint64(7), uint8(1), uint8(1))
	f.Add(int64(-1), "caf\u00e9\u2028", "\xff\xfe", "\x00\x1f\x7f", "\ufffd\ufffe", "K\xc3\x00\xed\xa0\x80", "s\"<&>\u2029\x08\x0c", uint64(1)<<63, uint8(2), uint8(2))
	for _, line := range transcriptLines(f) {
		var msg wireResponse
		if json.Unmarshal(line, &msg) != nil {
			continue
		}
		for _, ev := range append(msg.Recs, wireEvent{Sensor: msg.Sensor, Rec: msg.Rec}) {
			if r, err := ulm.Parse(ev.Rec); err == nil {
				f.Add(r.Date.UnixMicro(), r.Host, r.Prog, r.Lvl, r.Event, "VAL\x00"+r.Fields[0].Value, ev.Sensor, msg.Drops, uint8(len(msg.Recs)), uint8(0))
			}
		}
	}
	g := New("gw", nil)
	f.Fuzz(func(t *testing.T, usec int64, host, prog, lvl, event, fields, sensor string, drops uint64, n, mode uint8) {
		format := []string{FormatULM, FormatXML, FormatBinary}[mode%3]
		replica := mode&4 != 0
		recs := make([]ulm.Record, 1+n%5)
		events := make([]wireEvent, len(recs))
		for i := range recs {
			recs[i] = ulm.Record{Date: time.UnixMicro(usec + int64(i)).UTC(), Host: host, Prog: prog, Lvl: lvl, Event: event}
			if kv := strings.Split(fields, "\x00"); fields != "" {
				for j := 0; j+1 < len(kv); j += 2 {
					recs[i].Fields = append(recs[i].Fields, ulm.Field{Key: kv[j], Value: kv[j+1]})
				}
			}
			events[i] = wireEvent{Sensor: sensor, Rec: refPayload(t, format, recs[i])}
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		expect := func(what string, got *captureConn, msgs ...any) {
			t.Helper()
			want.Reset()
			for _, m := range msgs {
				if err := enc.Encode(m); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s differs from json.Encoder:\n got %q\nwant %q", what, got.Bytes(), want.Bytes())
			}
			got.Reset()
		}

		// A subscription: two batched lines, each a partial its commit
		// closes, then single-record lines.
		sub := &Subscription{g: g}
		sub.wireDrops.Store(drops)
		conn := &captureConn{}
		w := newLineCodec(conn, nil, maxLineBytes).events(format, sub)
		for _, batch := range [][]ulm.Record{recs, recs[:1]} {
			w.add(sensor, batch, 8)
			if err := w.commit(); err != nil {
				t.Fatal(err)
			}
		}
		expect("batched event lines", conn, wireResponse{OK: true, Recs: events, Drops: drops}, wireResponse{OK: true, Recs: events[:1], Drops: drops})
		w.add(sensor, recs[:min(2, len(recs))], 1)
		if err := w.commit(); err != nil {
			t.Fatal(err)
		}
		singles := []any{wireResponse{OK: true, Sensor: sensor, Rec: events[0].Rec, Drops: drops}}
		if len(recs) > 1 {
			singles = append(singles, wireResponse{OK: true, Sensor: sensor, Rec: events[1].Rec, Drops: drops})
		}
		expect("single-record event lines", conn, singles...)

		// A history answer.
		cdc := newLineCodec(conn, nil, maxLineBytes)
		if m, err := cdc.writeBatch(format, sensor, recs); err != nil || m != len(recs) {
			t.Fatal(m, err)
		}
		expect("history line", conn, wireResponse{OK: true, Recs: events})

		// A Publisher's requests, batched and one per record.
		pb := cdc.newBatch(format, false)
		if replica {
			pb.markReplica()
		}
		for i := range recs {
			pb.add(sensor, recs[i]) //nolint:errcheck
		}
		if err := pb.flush(); err != nil {
			t.Fatal(err)
		}
		expect("batched publish line", conn, wireRequest{Op: "publish", Format: format, Recs: events, Replica: replica})
		pb = cdc.newBatch(format, true)
		if replica {
			pb.markReplica()
		}
		pb.add(sensor, recs[0]) //nolint:errcheck
		if err := pb.flush(); err != nil {
			t.Fatal(err)
		}
		expect("single publish line", conn, wireRequest{Op: "publish", Format: format, Rec: events[0].Rec, Replica: replica, Request: Request{Sensor: sensor}})
	})
}

// FuzzTextDecode is the differential test of the event-line scanner
// against json.Unmarshal: for arbitrary bytes the scanner either hands
// the line over, or json.Unmarshal accepts it too and reads the same
// message — flags, counters, error text, and the same events in the
// same order. The payloads it yields then decode, in all three formats,
// to what the pre-change decoders made of them.
func FuzzTextDecode(f *testing.F) {
	for _, line := range transcriptLines(f) {
		f.Add(line)
	}
	for _, s := range []string{
		`{}`, ` { "ok" : true , "drops" : 18446744073709551615 } `, `{"ok":true,"drops":99999999999999999999}`,
		`{"ok":false,"error":"gateway: no \"such\" sensor\n"}`, `{"ok":true,"eof":true,"n":12}`, `{"ok":true,"n":-1}`,
		`{"ok":true,"sensor":"sé 😀","rec":"DATE=1"}`, `{"ok":true,"rec":"a\/b\b\f\tA"}`,
		`{"ok":true,"rec":"x","recs":[{"rec":"y"}]}`, `{"ok":true,"recs":[]}`, `{"ok":true,"recs":[{"sensor":"s"}]}`,
		`{"ok":true,"recs":[{"rec":"x","sensor":"s"},{"rec":""}],"drops":01}`, `{"ok":true,"ok":false}`, `{"OK":true}`,
		`{"ok":true,"rec":null}`, `{"ok":true,"recs":null}`, `{"ok":true,"found":true,"rec":"x"}`, `{"ok":true,}`, `{"ok":true}x`,
		`{"ok":true,"rec":"` + "\xff" + `"}`, `{"ok":true,"rec":"a` + "\x01" + `"}`, `{"ok":tru}`, `{"ok":true,"drops":1.5}`, `{"ok":true,"drops":1e3}`,
		`[{"ok":true}]`, `{"ok":true,"recs":[{"rec":"x"},]}`, `{"ok":true "drops":1}`, `{"rec":"\ud800"}`, `{"rec":"\u12"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		orig := append([]byte(nil), line...)
		var in inboundEvents
		var got, want wireResponse
		if !in.scan(line, &got) {
			return // json.Unmarshal decides
		}
		if !bytes.Equal(line, orig) {
			t.Fatal("the scanner wrote to its line")
		}
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("the scanner read %q, json.Unmarshal refuses it: %v", line, err)
		}
		if got.OK != want.OK || got.Error != want.Error || got.Drops != want.Drops || got.Eof != want.Eof || got.N != want.N {
			t.Fatalf("%q: scanner %+v, json.Unmarshal %+v", line, got, want)
		}
		events := want.Recs
		if want.Rec != "" {
			events = append(events, wireEvent{Sensor: want.Sensor, Rec: want.Rec})
		}
		if len(in.evs) != len(events) {
			t.Fatalf("%q: scanner found %d events, json.Unmarshal %d", line, len(in.evs), len(events))
		}
		for i, ev := range in.evs {
			if s, p := string(in.text[ev.s0:ev.s1]), string(in.text[ev.p0:ev.p1]); s != events[i].Sensor || p != events[i].Rec {
				t.Fatalf("%q: event %d: scanner (%q, %q), json.Unmarshal (%q, %q)", line, i, s, p, events[i].Sensor, events[i].Rec)
			}
		}
		// What runs makes of the events is what decoding each payload on
		// its own makes of it.
		for _, format := range []string{FormatULM, FormatXML, FormatBinary} {
			var refs []ulm.Record
			for _, ev := range events {
				if r, err := refDecode(format, ev.Rec); err == nil {
					refs = append(refs, r)
				}
			}
			var recs []ulm.Record
			n, err := in.runs(format, func(error) error { return nil }, func(_ string, run []ulm.Record) error {
				recs = append(recs, run...)
				return nil
			})
			if err != nil || n != len(refs) || len(recs) != len(refs) {
				t.Fatalf("%q as %s: %d records delivered, %v; one at a time %d decode", line, format, n, err, len(refs))
			}
			for i := range refs {
				if a, b := recs[i].String(), refs[i].String(); a != b {
					t.Fatalf("%q as %s: record %d is %q, decoded alone %q", line, format, i, a, b)
				}
			}
		}
	})
}

// refDecode decodes one payload the way the wire did before TextBatch.
func refDecode(format, payload string) (ulm.Record, error) {
	var rec ulm.Record
	switch format {
	case FormatXML:
		err := xml.Unmarshal([]byte(payload), &rec)
		return rec, err
	case FormatBinary:
		raw, err := base64.StdEncoding.DecodeString(payload)
		if err == nil {
			_, err = ulm.DecodeBinary(raw, &rec)
		}
		return rec, err
	}
	return ulm.Parse(payload)
}
