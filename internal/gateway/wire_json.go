package gateway

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"unicode/utf8"

	"jamm/internal/ulm"
)

// The JSON-lines framing: one JSON object per line in either direction,
// event payloads inside it as strings in the requested format.
//
// Nothing on a line is reflected over. Control messages — requests,
// acks, one-shot answers — are appended and scanned by the control codec
// both framings share (wire_control.go). Event lines are the record
// path. Outbound, an event line (a subscription's, a history answer's, a
// Publisher's request) is appended to a buffer its writer owns and
// reuses: the envelope, then per record the sensor and the payload
// (ulm.AppendText, ulm.AppendXML, or base64 of ulm.AppendBinary)
// escaped exactly as json.Encoder would escape them, so the bytes on
// the wire are the ones reflection produced. A subscription's finished
// lines are held until the pump's commit and leave with one Write per
// burst. Inbound, an answer — an event line, a query's record — is read
// by inboundEvents.scan, which knows the keys of the answers the hot
// ops get and hands any line with another key in it to json.Unmarshal;
// the payloads are unescaped into one reused buffer and decoded by a
// ulm.TextBatch, so all records of a line are materialised from one
// string arena and one field slab. A server's publish ingest decodes
// payloads the same way behind json.Unmarshal of the request line.

// lineCodec is the JSON-lines framing of one connection.
type lineCodec struct {
	conn net.Conn
	// Both ends read line by line. A server's lines are capped, and one
	// that is not JSON is consumed whole and can be skipped. A client
	// trusts its server: it takes lines of any size, and ends the stream
	// at the first that is not a JSON object.
	sc     *bufio.Scanner
	server bool
	// in reads inbound control messages: a server's requests, and a
	// client's answers when their reader brings no events of its own.
	in inboundEvents
	// out is the write side's line: a control message, a history answer.
	out lineWriter
}

// newLineCodec frames conn as JSON lines, reading from r (conn itself,
// or a buffered reader already holding bytes of it). maxLine > 0 makes
// it a server's: no inbound line may be longer. The line buffer starts
// small and grows on demand: most lines are a query, summary or list
// request or its answer, and a Client's request/answer connection keeps
// its codec — buffer and all — from call to call.
func newLineCodec(conn net.Conn, r io.Reader, maxLine int) *lineCodec {
	c := &lineCodec{conn: conn, sc: bufio.NewScanner(r), server: maxLine > 0}
	if c.server {
		c.sc.Buffer(nil, maxLine)
	} else {
		c.sc.Buffer(make([]byte, 0, 512), math.MaxInt)
	}
	return c
}

func (c *lineCodec) version() int { return 1 }

// line returns the next inbound line, valid until the next call.
func (c *lineCodec) line() ([]byte, error) {
	var line []byte
	// Between a server's lines a client lets blank ones pass.
	for more := true; more; more = !c.server && len(bytes.TrimSpace(line)) == 0 {
		if !c.sc.Scan() {
			if err := c.sc.Err(); err != nil {
				return nil, err
			}
			return nil, io.EOF
		}
		line = c.sc.Bytes()
	}
	return line, nil
}

func (c *lineCodec) readRequest(req *wireRequest) (*Frame, error) {
	line, err := c.line()
	if err != nil {
		return nil, err
	}
	if err := c.in.readRequest(line, req); err != nil {
		return nil, &badMessage{err: err, answer: true}
	}
	return nil, nil
}

func (c *lineCodec) readResponse(resp *wireResponse) (*Frame, error) {
	line, err := c.line()
	if err != nil {
		return nil, err
	}
	if resp.events == nil {
		resp.events = &c.in
	}
	return nil, resp.events.readResponse(line, resp)
}

func (c *lineCodec) writeRequest(req *wireRequest) error {
	buf, err := marshalRequest(c.out.buf[:0], req)
	if c.out.buf = buf; err != nil {
		return err
	}
	return c.send()
}

func (c *lineCodec) writeResponse(resp *wireResponse) error {
	c.out.buf = marshalResponse(c.out.buf[:0], resp)
	return c.send()
}

// send writes the control message in out as a line.
func (c *lineCodec) send() error {
	c.out.buf = append(c.out.buf, '\n')
	_, err := c.conn.Write(c.out.buf)
	return err
}

// checkFormat reports whether format names a payload format.
func checkFormat(format string) error {
	switch format {
	case "", FormatULM, FormatXML, FormatBinary:
		return nil
	}
	return fmt.Errorf("gateway: unknown format %q", format)
}

func (c *lineCodec) checkFormat(format string) error { return checkFormat(format) }

func (c *lineCodec) eventFormat(format string) string { return format }

// lineWriter builds outbound event lines in buf; tmp is where a payload
// is rendered before it is escaped into the line.
type lineWriter struct {
	buf, tmp []byte
}

// payload appends rec's payload in format — one checkFormat passed — as
// a JSON string.
func (w *lineWriter) payload(format string, rec *ulm.Record) {
	switch format {
	case FormatXML:
		w.tmp = ulm.AppendXML(w.tmp[:0], rec)
	case FormatBinary:
		w.tmp = ulm.AppendBinary(w.tmp[:0], rec)
		w.buf = append(w.buf, '"')
		w.buf = base64.StdEncoding.AppendEncode(w.buf, w.tmp)
		w.buf = append(w.buf, '"')
		return
	default:
		w.tmp = ulm.AppendText(w.tmp[:0], rec)
	}
	w.buf = appendJSONString(w.buf, w.tmp)
}

// event appends one element of a "recs" array: the record's sensor, if
// it has one, and its payload.
func (w *lineWriter) event(format, sensor string, rec *ulm.Record) {
	if sensor != "" {
		w.buf = append(w.buf, `{"sensor":`...)
		w.buf = appendJSONString(w.buf, sensor)
		w.buf = append(w.buf, `,"rec":`...)
	} else {
		w.buf = append(w.buf, `{"rec":`...)
	}
	w.payload(format, rec)
	w.buf = append(w.buf, '}')
}

// appendPayload appends the payload of a one-record answer (query,
// handoff) in format — one checkFormat passed — as the text the answer
// carries.
func appendPayload(dst []byte, format string, rec *ulm.Record) []byte {
	switch format {
	case FormatXML:
		return ulm.AppendXML(dst, rec)
	case FormatBinary:
		// The binary record goes behind dst, its base64 behind that, and
		// the base64 moves down over the record.
		start := len(dst)
		dst = ulm.AppendBinary(dst, rec)
		mid := len(dst)
		dst = base64.StdEncoding.AppendEncode(dst, dst[start:mid])
		return dst[:start+copy(dst[start:], dst[mid:])]
	}
	return ulm.AppendText(dst, rec)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends src as a JSON string the way json.Encoder
// writes one: HTML-safe ('<', '>' and '&' as \u00XX), U+2028 and U+2029
// escaped, a byte that is not UTF-8 as \ufffd.
func appendJSONString[Bytes []byte | string](dst []byte, src Bytes) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(src); {
		b := src[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, src[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(string(src[i:min(len(src), i+utf8.UTFMax)]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, src[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, src[start:]...)
	return append(dst, '"')
}

// lineEvents writes event frames as JSON lines: the records of a frame
// carry their sensor each, so one frame mixes sensors. Finished lines
// collect in out.buf, the open "recs" line behind them, and commit
// closes that one and writes them all out together.
type lineEvents struct {
	c      *lineCodec
	format string
	// drops is the subscription's cumulative slow-consumer drop counter,
	// piggybacked on every frame so the subscriber can observe loss it
	// never received.
	drops func() uint64
	out   lineWriter
	// n is the number of records in the open line.
	n int
}

func (c *lineCodec) events(format string, sub *Subscription) eventWriter {
	return &lineEvents{c: c, format: format, drops: sub.WireDrops}
}

func (c *lineCodec) writeBatch(format, sensor string, recs []ulm.Record) (int, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	w := &c.out
	w.buf = append(w.buf[:0], `{"ok":true,"recs":[`...)
	for i := range recs {
		if i > 0 {
			w.buf = append(w.buf, ',')
		}
		w.event(format, sensor, &recs[i])
	}
	w.buf = append(w.buf, "]}\n"...)
	_, err := c.conn.Write(w.buf)
	return len(recs), err
}

func (w *lineEvents) add(sensor string, recs []ulm.Record, bm int) {
	out := &w.out
	for i := range recs {
		if bm == 1 && w.n == 0 {
			// Single-record frames: the wire-compatible format.
			out.buf = append(out.buf, `{"ok":true`...)
			if sensor != "" {
				out.buf = append(out.buf, `,"sensor":`...)
				out.buf = appendJSONString(out.buf, sensor)
			}
			out.buf = append(out.buf, `,"rec":`...)
			out.payload(w.format, &recs[i])
			w.finish()
			continue
		}
		if w.n == 0 {
			out.buf = append(out.buf, `{"ok":true,"recs":[`...)
		} else {
			out.buf = append(out.buf, ',')
		}
		out.event(w.format, sensor, &recs[i])
		if w.n++; w.n >= bm {
			w.seal()
		}
	}
}

// seal closes the open "recs" line, if there is one.
func (w *lineEvents) seal() {
	if w.n > 0 {
		w.out.buf = append(w.out.buf, ']')
		w.n = 0
		w.finish()
	}
}

// finish closes the line being built, with the drop counter once it is
// not zero.
func (w *lineEvents) finish() {
	if d := w.drops(); d > 0 {
		w.out.buf = append(w.out.buf, `,"drops":`...)
		w.out.buf = strconv.AppendUint(w.out.buf, d, 10)
	}
	w.out.buf = append(w.out.buf, "}\n"...)
}

// commit closes the open line and writes every line with one Write.
func (w *lineEvents) commit() error {
	w.seal()
	if len(w.out.buf) == 0 {
		return nil
	}
	_, err := w.c.conn.Write(w.out.buf)
	w.out.buf = w.out.buf[:0]
	return err
}

// linePubBatch builds a Publisher's request lines: one {"recs":[...]}
// request for everything buffered, or one {"rec":...} request each.
type linePubBatch struct {
	c               *lineCodec
	format          string
	single, replica bool
	out             lineWriter
	// n is the number of records in the open "recs" request.
	n int
}

func (c *lineCodec) newBatch(format string, single bool) pubBatch {
	return &linePubBatch{c: c, format: format, single: single}
}

// head opens a publish request; tail closes it with what a wireRequest
// marshals behind its records.
func (b *linePubBatch) head(key string) {
	b.out.buf = append(b.out.buf, `{"op":"publish"`...)
	if b.format != "" {
		b.out.buf = append(b.out.buf, `,"format":`...)
		b.out.buf = appendJSONString(b.out.buf, b.format)
	}
	b.out.buf = append(b.out.buf, key...)
}

func (b *linePubBatch) tail(sensor string) {
	if b.replica {
		b.out.buf = append(b.out.buf, `,"replica":true`...)
	}
	if sensor != "" {
		b.out.buf = append(b.out.buf, `,"sensor":`...)
		b.out.buf = appendJSONString(b.out.buf, sensor)
	}
	b.out.buf = append(b.out.buf, `,"mode":0}`+"\n"...)
}

func (b *linePubBatch) add(sensor string, rec ulm.Record) (int, error) {
	pre := len(b.out.buf)
	switch {
	case b.single:
		b.head(`,"rec":`)
		b.out.payload(b.format, &rec)
		b.tail(sensor)
		return len(b.out.buf) - pre, nil
	case b.n == 0:
		b.head(`,"recs":[`)
	default:
		b.out.buf = append(b.out.buf, ',')
	}
	b.out.event(b.format, sensor, &rec)
	b.n++
	return len(b.out.buf) - pre, nil
}

func (b *linePubBatch) markReplica() { b.replica = true }

func (b *linePubBatch) flush() error {
	if len(b.out.buf) == 0 {
		return nil
	}
	if b.n > 0 {
		b.out.buf = append(b.out.buf, ']')
		b.tail("")
		b.n = 0
	}
	_, err := b.c.conn.Write(b.out.buf)
	b.out.buf = b.out.buf[:0]
	return err
}

// inboundEvents is the events of one inbound JSON-lines message and the
// state that decodes them, reused from message to message: a client's
// reader sets it in the wireResponse it reads into, a server's publish
// ingest fills it from the request. text holds each event's sensor and
// payload, unescaped; runs decodes the payloads as one batch. A codec
// reads its control messages with one too: text is where their strings
// are unescaped, names where their names are interned.
type inboundEvents struct {
	text    []byte
	evs     []eventSpan
	names   sensorNames
	batch   ulm.TextBatch
	raw     []byte // a binary payload out of its base64
	sensors []string
	recs    []ulm.Record
	points  []SummaryPoint // a summary answer's, before they get a slice of their own
	// fallbacks counts the lines scan handed to json.Unmarshal.
	fallbacks uint64
}

// eventSpan locates one event in inboundEvents.text: its sensor at
// [s0, s1), its payload at [p0, p1).
type eventSpan struct{ s0, s1, p0, p1 int }

func (in *inboundEvents) reset() { in.text, in.evs = in.text[:0], in.evs[:0] }

// addEvent appends one event that was read as strings.
func (in *inboundEvents) addEvent(sensor, payload string) {
	s0 := len(in.text)
	in.text = append(in.text, sensor...)
	p0 := len(in.text)
	in.text = append(in.text, payload...)
	in.evs = append(in.evs, eventSpan{s0, p0, p0, len(in.text)})
}

// take fills in from a message json.Unmarshal read: the line had a key
// scan does not know.
func (in *inboundEvents) take(resp *wireResponse) {
	in.fallbacks++
	in.reset()
	for _, ev := range resp.Recs {
		in.addEvent(ev.Sensor, ev.Rec)
	}
	if resp.Rec != "" {
		in.addEvent(resp.Sensor, resp.Rec)
	}
}

// runs decodes the events' payloads and hands fn each run of
// consecutive same-sensor records as one batch. The records of a
// message share one string arena and one field slab and the slice is
// reused: fn keeps rec.Compact(), not the record. bad decides what a
// payload that fails to decode means: a nil result skips the record and
// the rest of the message still delivers, an error abandons the
// message. The count is of records delivered.
func (in *inboundEvents) runs(format string, bad func(error) error, fn func(sensor string, recs []ulm.Record) error) (int, error) {
	if len(in.evs) == 0 {
		return 0, nil
	}
	in.sensors = in.sensors[:0]
	for _, ev := range in.evs {
		payload := in.text[ev.p0:ev.p1]
		var err error
		switch format {
		case FormatULM, "":
			err = in.batch.AddText(payload)
		case FormatXML:
			err = in.batch.AddXML(payload)
		case FormatBinary:
			if in.raw, err = base64.StdEncoding.AppendDecode(in.raw[:0], payload); err == nil {
				err = in.batch.AddBinary(in.raw)
			}
		default:
			err = checkFormat(format)
		}
		if err != nil {
			if err = bad(err); err != nil {
				in.batch.Reset()
				return 0, err
			}
			continue
		}
		in.sensors = append(in.sensors, in.names.intern(in.text[ev.s0:ev.s1]))
	}
	in.recs = in.batch.Records(in.recs[:0], 0)
	n := 0
	var err error
	for i, j := 0, 0; i < len(in.recs) && err == nil; i = j {
		for j = i + 1; j < len(in.recs) && in.sensors[j] == in.sensors[i]; j++ {
		}
		n += j - i
		err = fn(in.sensors[i], in.recs[i:j])
	}
	clear(in.recs) // nothing of the message stays behind in the reused slice
	return n, err
}

// Keys of an answer, as bits of the set scan has seen.
const (
	keyOK = 1 << iota
	keyError
	keySensor
	keyRec
	keyRecs
	keyFound
	keySummary
	keyDrops
	keyEOF
	keyN
	keyVersion
)

// scan reads line as an answer — an event message, a query's, a
// summary's, a ping's, a hello's, an ack, an error, a history's eof: an
// object of the keys ok, error, sensor, rec, recs, found, summary,
// drops, eof, n and version, each at most once, "recs" an array of
// {"sensor":...,"rec":...} objects — into resp and in, and reports
// whether it was one. The events it carries are left in in, not in
// resp.Rec and resp.Recs. Whatever else the line is — another key (a
// listing, a handoff), a null, an escape or a number encoding/json would
// have to judge — it is json.Unmarshal's to read: scan accepts nothing
// that would read differently there.
func (in *inboundEvents) scan(line []byte, resp *wireResponse) bool {
	in.reset()
	p := lineParser{d: line}
	if !p.open('{') {
		return false
	}
	seen := 0
	var single eventSpan
	for first := true; !p.close('}', first); first = false {
		key, ok := p.key()
		if !ok {
			return false
		}
		var bit int
		switch string(key) {
		case "ok":
			bit, resp.OK = keyOK, p.bool()
		case "error":
			bit, resp.Error = keyError, in.value(&p)
		case "sensor", "rec":
			bit = in.eventMember(&p, key, &single)
		case "recs":
			bit = keyRecs
			in.scanRecs(&p)
		case "found":
			bit, resp.Found = keyFound, p.bool()
		case "summary":
			bit, resp.Summary = keySummary, in.summary(&p)
		case "drops":
			bit, resp.Drops = keyDrops, p.uint(19)
		case "eof":
			bit, resp.Eof = keyEOF, p.bool()
		case "n":
			bit, resp.N = keyN, int(p.uint(18))
		case "version":
			bit, resp.Version = keyVersion, int(p.int())
		default:
			return false
		}
		if p.failed || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
	switch {
	case seen&keyRec != 0:
		// An empty "rec" is no event, and which of "rec" and "recs" goes
		// first is encoding/json's to say.
		if seen&keyRecs != 0 || single.p1 == single.p0 {
			return false
		}
		in.evs = append(in.evs, single)
	case seen&keySensor != 0:
		// A sensor of no event is resp.Sensor, which scan does not fill.
		return false
	}
	return p.end()
}

// eventMember reads the value of an event's "sensor" or "rec" member
// into in.text and notes in ev where it lies.
func (in *inboundEvents) eventMember(p *lineParser, key []byte, ev *eventSpan) (bit int) {
	start := len(in.text)
	p.str(&in.text)
	switch string(key) {
	case "sensor":
		ev.s0, ev.s1 = start, len(in.text)
		return keySensor
	case "rec":
		ev.p0, ev.p1 = start, len(in.text)
		return keyRec
	}
	p.fail()
	return 0
}

// scanRecs reads the "recs" array.
func (in *inboundEvents) scanRecs(p *lineParser) {
	if !p.open('[') {
		return
	}
	for first := true; !p.close(']', first); first = false {
		if !p.open('{') {
			return
		}
		var ev eventSpan
		seen := 0
		for first := true; !p.close('}', first); first = false {
			key, ok := p.key()
			if !ok {
				return
			}
			bit := in.eventMember(p, key, &ev)
			if p.failed || seen&bit != 0 {
				p.fail()
				return
			}
			seen |= bit
		}
		if p.failed || seen&keyRec == 0 {
			p.fail()
			return
		}
		in.evs = append(in.evs, ev)
	}
}

// lineParser walks the JSON tokens of one line. Every method skips the
// white space before its token; failed is set once the line has left
// the grammar, and everything fails from there.
type lineParser struct {
	d      []byte
	i      int
	failed bool
}

func (p *lineParser) space() {
	for p.i < len(p.d) && (p.d[p.i] == ' ' || p.d[p.i] == '\t' || p.d[p.i] == '\r' || p.d[p.i] == '\n') {
		p.i++
	}
}

func (p *lineParser) fail() bool {
	p.failed = true
	return false
}

// open consumes the opening bracket c.
func (p *lineParser) open(c byte) bool {
	if p.space(); p.failed || p.i >= len(p.d) || p.d[p.i] != c {
		return p.fail()
	}
	p.i++
	return true
}

// close steps a loop over the members of an object or array: it
// consumes the closing bracket c and reports true, or consumes the
// comma that must separate members — none before the first — and
// reports false. A line that has neither where it must fails, which
// also ends the loop.
func (p *lineParser) close(c byte, first bool) bool {
	if p.space(); p.failed || p.i >= len(p.d) {
		p.failed = true
		return true
	}
	switch {
	case p.d[p.i] == c:
		p.i++
		return true
	case first:
		return false
	case p.d[p.i] == ',':
		p.i++
		return false
	}
	p.failed = true
	return true
}

// end reports whether nothing but white space is left.
func (p *lineParser) end() bool {
	p.space()
	return !p.failed && p.i == len(p.d)
}

// key consumes a member's key — lower case and '_', no escapes, as
// every key a scanner knows is written — and the colon behind it.
func (p *lineParser) key() ([]byte, bool) {
	if p.space(); p.failed || p.i >= len(p.d) || p.d[p.i] != '"' {
		return nil, p.fail()
	}
	start := p.i + 1
	for p.i = start; p.i < len(p.d) && (p.d[p.i] >= 'a' && p.d[p.i] <= 'z' || p.d[p.i] == '_'); p.i++ {
	}
	if p.i+1 >= len(p.d) || p.d[p.i] != '"' {
		return nil, p.fail()
	}
	key := p.d[start:p.i]
	p.i++
	if p.space(); p.i >= len(p.d) || p.d[p.i] != ':' {
		return nil, p.fail()
	}
	p.i++
	return key, true
}

// The value methods below consume one value each; what they return is
// meaningless once the line has failed.

func (p *lineParser) bool() bool {
	p.space()
	switch rest := p.d[p.i:]; {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		p.i += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		p.i += 5
		return false
	}
	return p.fail()
}

// uint consumes a non-negative integer of at most digits digits.
func (p *lineParser) uint(digits int) uint64 {
	p.space()
	return p.digits(digits)
}

// int consumes an integer of at most 18 digits — one encoding/json
// reads into an int without overflow.
func (p *lineParser) int() int64 {
	p.space()
	if p.i < len(p.d) && p.d[p.i] == '-' {
		p.i++
		return -int64(p.digits(18))
	}
	return int64(p.digits(18))
}

// digits consumes the digits of an integer, at most max of them, with
// no leading zero.
func (p *lineParser) digits(max int) uint64 {
	start := p.i
	var n uint64
	for ; p.i < len(p.d) && p.d[p.i] >= '0' && p.d[p.i] <= '9'; p.i++ {
		n = n*10 + uint64(p.d[p.i]-'0')
	}
	if k := p.i - start; k == 0 || k > max || k > 1 && p.d[start] == '0' {
		p.fail()
		return 0
	}
	return n
}

// float consumes a number and reads it as encoding/json reads one into
// a float64: a JSON number, parsed by strconv.ParseFloat, out of range
// refused.
func (p *lineParser) float() float64 {
	p.space()
	d, i := p.d, p.i
	digits := func() int {
		j := i
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
		}
		return i - j
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	k := digits()
	ok := k == 1 || k > 1 && d[i-k] != '0'
	if ok && i < len(d) && d[i] == '.' {
		i++
		ok = digits() > 0
	}
	if ok && i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		ok = digits() > 0
	}
	var f float64
	if ok {
		var err error
		f, err = strconv.ParseFloat(string(d[p.i:i]), 64)
		ok = err == nil
	}
	if !ok {
		p.fail()
		return 0
	}
	p.i = i
	return f
}

// str consumes a string and appends what it stands for to dst. A byte
// that is not UTF-8 (encoding/json reads U+FFFD there), a control
// character and a surrogate escape are not this parser's.
func (p *lineParser) str(dst *[]byte) bool {
	if p.space(); p.i >= len(p.d) || p.d[p.i] != '"' {
		return p.fail()
	}
	d, out := p.d, *dst
	i := p.i + 1
	start := i
	for i < len(d) {
		c := d[i]
		switch {
		case c == '"':
			*dst = append(out, d[start:i]...)
			p.i = i + 1
			return true
		case c == '\\':
			out = append(out, d[start:i]...)
			if i+1 >= len(d) {
				return p.fail()
			}
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				if i+6 > len(d) {
					return p.fail()
				}
				var r rune
				for _, h := range d[i+2 : i+6] {
					switch {
					case h >= '0' && h <= '9':
						r = r<<4 | rune(h-'0')
					case h >= 'a' && h <= 'f':
						r = r<<4 | rune(h-'a'+10)
					case h >= 'A' && h <= 'F':
						r = r<<4 | rune(h-'A'+10)
					default:
						return p.fail()
					}
				}
				if r >= 0xD800 && r < 0xE000 {
					return p.fail()
				}
				out = utf8.AppendRune(out, r)
				i += 4
			default:
				return p.fail()
			}
			i += 2
			start = i
		case c < ' ':
			return p.fail()
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && size == 1 {
				return p.fail()
			}
			i += size
		}
	}
	return p.fail()
}
