package ulm

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// textShapes are records that exercise every branch of the two text
// encoders: quoting and escapes, the characters XML references, bytes
// that are not UTF-8, characters XML does not allow, empty strings.
func textShapes() []Record {
	date := time.Date(2000, 6, 14, 10, 30, 0, 123456000, time.UTC)
	return []Record{
		sampleRecord(),
		{Date: date, Host: "h1", Prog: "p", Lvl: LvlError},
		{Date: date, Host: "h 1", Prog: `p"q\r`, Lvl: "a=b", Event: "tab\there",
			Fields: []Field{{"MSG", "line1\nline2\r"}, {"EMPTY", ""}, {"Q", `'<&>"`}}},
		{Date: date, Host: "caf\u00e9", Prog: "\xff\xfe", Lvl: "\x00\x1f\x7f", Event: "\ufffd\ufffe\U0010ffff\u2028",
			Fields: []Field{{"K\xc3", "\xed\xa0\x80"}, {"", "v"}}},
		{Date: time.UnixMicro(0).UTC(), Host: "", Prog: "", Lvl: ""},
	}
}

func TestAppendEncodersMatchReference(t *testing.T) {
	for _, r := range textShapes() {
		if got, want := string(AppendText([]byte("x"), &r)), "x"+refString(r); got != want {
			t.Errorf("AppendText\n got %q\nwant %q", got, want)
		}
		want, err := refToXML(&r)
		if err != nil {
			t.Fatalf("encoding/xml refuses %+v: %v", r, err)
		}
		if got := AppendXML([]byte("x"), &r); string(got) != "x"+string(want) {
			t.Errorf("AppendXML\n got %q\nwant %q", got, want)
		}
	}
}

// A batch of lines decodes to what Parse makes of each, from two
// allocations, sharing what repeats and nothing with the lines.
func TestTextBatchMatchesParse(t *testing.T) {
	recs := sensorRun(8, 5)
	recs[3].Event = ""
	recs[5].Fields = recs[5].Fields[:2]
	recs[6].Fields = nil
	recs[7].Fields[1].Value = `needs "quoting" here`
	var b TextBatch
	var line []byte
	for i := range recs {
		line = AppendText(line[:0], &recs[i])
		if err := b.AddText(line); err != nil {
			t.Fatal(err)
		}
		if i == 4 {
			// A rejected line in the middle leaves the batch as it was.
			if err := b.AddText([]byte("DATE=20000614103000.000000 HOST=h PROG=p")); err == nil {
				t.Fatal("a line without LVL was accepted")
			}
		}
	}
	for i := range line {
		line[i] = 'X'
	}
	if len(b.s.recs) != len(recs) {
		t.Fatalf("Len = %d, want %d", len(b.s.recs), len(recs))
	}
	got := b.Records(nil, 1)
	if len(got) != len(recs) || len(b.s.recs) != 0 {
		t.Fatalf("%d records, %d left in the batch", len(got), len(b.s.recs))
	}
	for i := range recs {
		if !recordsEqual(got[i], recs[i]) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
		if cap(got[i].Fields)-len(got[i].Fields) != 1 {
			t.Fatalf("record %d: %d spare field slots, want 1", i, cap(got[i].Fields)-len(got[i].Fields))
		}
	}
}

func TestTextBatchMixedFormats(t *testing.T) {
	recs := textShapes()[:3]
	var b TextBatch
	if err := b.AddXML(AppendXML(nil, &recs[0])); err != nil {
		t.Fatal(err)
	}
	if err := b.AddBinary(append(AppendBinary(nil, &recs[1]), 0xAA)); err != nil {
		t.Fatal(err)
	}
	if err := b.AddText(AppendText(nil, &recs[2])); err != nil {
		t.Fatal(err)
	}
	// The same element through encoding/xml: a comment is not the
	// scanner's.
	doc := append([]byte("<!-- hi -->"), AppendXML(nil, &recs[2])...)
	if err := b.AddXML(doc); err != nil || b.Fallbacks() != 1 {
		t.Fatalf("AddXML behind a comment: %v, %d fallbacks", err, b.Fallbacks())
	}
	got := b.Records(nil, 0)
	for i, want := range []Record{recs[0], recs[1], recs[2], recs[2]} {
		if !recordsEqual(got[i], want) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want)
		}
	}
}

// The XML scanner reads what other writers of the same schema produce.
func TestXMLScannerVariants(t *testing.T) {
	want := Record{Date: time.Date(2000, 5, 1, 0, 0, 1, 0, time.UTC), Host: "h<1>", Prog: "p q", Lvl: "Usage", Event: "E'\"",
		Fields: []Field{{"VAL", "1 & 2\n"}, {"E", ""}}}
	docs := []string{
		`<ulmEvent date="20000501000001.000000" host="h&lt;1&gt;" prog="p q" lvl="Usage" event="E&apos;&quot;"><field name="VAL">1 &amp; 2&#10;</field><field name="E"></field></ulmEvent>`,
		" \n<ulmEvent\n\tevent='E&#39;\"' lvl = 'Usage' prog='p q'  host='h&#x3c;1&#x3E;' date='20000501000001.000000' >\n <field name='VAL' >1 &#38; 2\n</field >\n<field name=\"E\"></field>\n</ulmEvent >\n",
	}
	for _, doc := range docs {
		var b TextBatch
		if err := b.AddXML([]byte(doc)); err != nil || b.Fallbacks() != 0 {
			t.Fatalf("AddXML(%q): %v, %d fallbacks", doc, err, b.Fallbacks())
		}
		if got := b.Records(nil, 0)[0]; !recordsEqual(got, want) {
			t.Errorf("AddXML(%q)\n got %+v\nwant %+v", doc, got, want)
		}
		if ref, err := unmarshalXML([]byte(doc)); err != nil || !recordsEqual(ref, want) {
			t.Errorf("encoding/xml disagrees on %q: %+v, %v", doc, ref, err)
		}
	}
	// Not the scanner's, and encoding/xml's verdict stands.
	for _, doc := range []string{
		`<?xml version="1.0"?>` + docs[0],
		strings.Replace(docs[0], "1 &amp; 2", "<![CDATA[1 & 2]]>", 1),
		strings.Replace(docs[0], ` prog="p q"`, ` prog="p q" xmlns:x="urn:x" x:extra="1"`, 1),
		strings.Replace(docs[0], "</ulmEvent>", "<extra/></ulmEvent>", 1),
		strings.Replace(docs[0], "&#10;", "\r\n", 1),
		`<ulmEvent date="20000501000001.000000" host="h" prog="p" lvl="Usage"/>`,
		`<ulmEvent date="20000501000001.000000" host="h" prog="p" lvl="&bogus;"></ulmEvent>`,
		`<ulmEvent date="20000501000001.000000" host="h" prog="p" lvl="Usage">`,
	} {
		var b TextBatch
		err := b.AddXML([]byte(doc))
		ref, refErr := unmarshalXML([]byte(doc))
		if b.Fallbacks() != 1 || (err == nil) != (refErr == nil) {
			t.Errorf("AddXML(%q): %v (encoding/xml: %v), %d fallbacks", doc, err, refErr, b.Fallbacks())
		}
		if err == nil && !recordsEqual(b.Records(nil, 0)[0], ref) {
			t.Errorf("AddXML(%q) differs from encoding/xml", doc)
		}
	}
}

// TestTextBatchAllocs: a line's records cost two allocations, whatever
// their number and whichever text format they came in.
func TestTextBatchAllocs(t *testing.T) {
	for _, n := range []int{1, 8, 64} {
		recs := sensorRun(n, 4)
		var text, xml [][]byte
		for i := range recs {
			text = append(text, AppendText(nil, &recs[i]))
			xml = append(xml, AppendXML(nil, &recs[i]))
		}
		var b TextBatch
		dst := make([]Record, 0, n)
		for name, add := range map[string]func([]byte) error{"ulm": b.AddText, "xml": b.AddXML} {
			payloads := text
			if name == "xml" {
				payloads = xml
			}
			allocs := testing.AllocsPerRun(50, func() {
				for _, p := range payloads {
					if err := add(p); err != nil {
						t.Fatal(err)
					}
				}
				dst = b.Records(dst[:0], 0)
			})
			if allocs > 2 || len(dst) != n {
				t.Errorf("%s, %d records: %.1f allocs per batch, want <= 2", name, n, allocs)
			}
		}
	}
}

// transcriptPayloads returns the event payloads of the gateway's golden
// wire transcripts — ULM lines, XML elements and base64 — as the text
// fuzzers' seed corpus.
func transcriptPayloads(tb testing.TB) [][]byte {
	files, _ := filepath.Glob("../gateway/testdata/transcripts/*.golden")
	var out [][]byte
	seen := map[string]bool{}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		for _, l := range strings.Split(string(data), "\n") {
			if len(l) < 3 || (l[0] != '<' && l[0] != '>') {
				continue
			}
			raw, err := strconv.Unquote(l[2:])
			if err != nil {
				continue
			}
			var msg struct {
				Rec  string
				Recs []struct{ Rec string }
			}
			if json.Unmarshal([]byte(raw), &msg) != nil {
				continue
			}
			for _, ev := range append(msg.Recs, struct{ Rec string }{msg.Rec}) {
				if ev.Rec != "" && !seen[ev.Rec] {
					seen[ev.Rec] = true
					out = append(out, []byte(ev.Rec))
				}
			}
		}
	}
	return out
}

func TestTranscriptPayloadsDecode(t *testing.T) {
	payloads := transcriptPayloads(t)
	if len(payloads) < 50 {
		t.Fatalf("only %d payloads found in the gateway's transcripts", len(payloads))
	}
	var b TextBatch
	text, xml := 0, 0
	for _, p := range payloads {
		switch {
		case bytes.HasPrefix(p, []byte("DATE=")):
			if err := b.AddText(p); err != nil {
				t.Fatalf("%q: %v", p, err)
			}
			text++
		case bytes.HasPrefix(p, []byte("<ulmEvent")):
			if err := b.AddXML(p); err != nil {
				t.Fatalf("%q: %v", p, err)
			}
			xml++
		}
	}
	if text == 0 || xml == 0 || b.Fallbacks() != 0 {
		t.Fatalf("%d ULM and %d XML payloads, %d through encoding/xml", text, xml, b.Fallbacks())
	}
}
