package ulm

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"
	"unicode/utf8"
)

// The text codecs of the record path: append-style encoders for the
// ULM line and the XML element, and TextBatch, which decodes the text
// payloads of one wire line the way DecodeBinaryBatch decodes a frame.
// None of them reflects, and none allocates per record.

// AppendText appends r in ULM line format (without a trailing newline)
// to dst.
func AppendText(dst []byte, r *Record) []byte {
	dst = append(dst, "DATE="...)
	dst = r.Date.UTC().AppendFormat(dst, DateLayout)
	dst = append(dst, " HOST="...)
	dst = appendValue(dst, r.Host)
	dst = append(dst, " PROG="...)
	dst = appendValue(dst, r.Prog)
	dst = append(dst, " LVL="...)
	dst = appendValue(dst, r.Lvl)
	if r.Event != "" {
		dst = append(dst, " NL.EVNT="...)
		dst = appendValue(dst, r.Event)
	}
	for _, f := range r.Fields {
		dst = append(dst, ' ')
		dst = append(dst, f.Key...)
		dst = append(dst, '=')
		dst = appendValue(dst, f.Value)
	}
	return dst
}

// appendValue appends v, quoted and backslash-escaped when it is empty
// or holds whitespace, a quote or '='.
func appendValue(dst []byte, v string) []byte {
	plain := v != ""
	for i := 0; plain && i < len(v); i++ {
		switch v[i] {
		case ' ', '\t', '\n', '\r', '"', '=':
			plain = false
		}
	}
	if plain {
		return append(dst, v...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// AppendXML appends r as one ulmEvent element to dst, byte for byte
// what encoding/xml marshals the record to.
func AppendXML(dst []byte, r *Record) []byte {
	dst = append(dst, `<ulmEvent date="`...)
	dst = r.Date.UTC().AppendFormat(dst, DateLayout)
	dst = append(dst, `" host="`...)
	dst = appendXMLText(dst, r.Host)
	dst = append(dst, `" prog="`...)
	dst = appendXMLText(dst, r.Prog)
	dst = append(dst, `" lvl="`...)
	dst = appendXMLText(dst, r.Lvl)
	if r.Event != "" {
		dst = append(dst, `" event="`...)
		dst = appendXMLText(dst, r.Event)
	}
	dst = append(dst, `">`...)
	for _, f := range r.Fields {
		dst = append(dst, `<field name="`...)
		dst = appendXMLText(dst, f.Key)
		dst = append(dst, `">`...)
		dst = appendXMLText(dst, f.Value)
		dst = append(dst, `</field>`...)
	}
	return append(dst, `</ulmEvent>`...)
}

// appendXMLText appends s escaped as xml.EscapeText escapes it, which
// is also how encoding/xml escapes attribute values: the five markup
// characters and tab, newline and carriage return as references, a byte
// that is not UTF-8 or a character XML does not allow as U+FFFD.
func appendXMLText(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\'' && c != '&' && c != '<' && c != '>' {
			i++
			continue
		}
		r, width := utf8.DecodeRuneInString(s[i:])
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if xmlChar(r) && (r != utf8.RuneError || width != 1) {
				i += width
				continue
			}
			esc = "\uFFFD"
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, esc...)
		i += width
		last = i
	}
	return append(dst, s[last:]...)
}

// xmlChar reports whether r is in XML's Char production.
func xmlChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// TextBatch decodes the event payloads of one text-framed wire message
// — ULM lines, XML elements, or binary records that travelled as text —
// into records that, like DecodeBinaryBatch's, are all materialised
// from one string arena and one field slab: add each payload, then take
// the Records. The records alias none of the payload bytes, which may
// be overwritten at once, and they share the arena and the slab:
// anything that keeps one longer than its batch keeps its Compact().
// The zero value is ready; a TextBatch is reused from message to
// message and is not safe for concurrent use.
type TextBatch struct {
	s batchScratch
	// tmp is where a value with escapes in it is unescaped before it is
	// interned; date holds an XML element's date attribute until the
	// whole element has scanned.
	tmp, date []byte
	// in is Parse's copy of its line.
	in        []byte
	fallbacks uint64
}

// Reset drops the records added and not yet taken.
func (b *TextBatch) Reset() { b.s.reset() }

// Fallbacks counts the XML payloads that were not of the shape
// AppendXML writes and went through encoding/xml instead.
func (b *TextBatch) Fallbacks() uint64 { return b.fallbacks }

// Records appends the added records to dst, each with spare unused
// field slots behind its Fields (see DecodeBinaryBatch), and empties
// the batch.
func (b *TextBatch) Records(dst []Record, spare int) []Record {
	if len(b.s.recs) > 0 {
		dst = b.s.records(dst, spare)
	}
	b.s.reset()
	return dst
}

// AddBinary adds the binary record at the front of data.
func (b *TextBatch) AddBinary(data []byte) error {
	_, err := b.s.addBinary(data, 0)
	return err
}

// AddText adds one ULM line. It accepts what Parse accepts, with
// Parse's errors; a line it rejects adds nothing.
func (b *TextBatch) AddText(line []byte) error {
	b.s.begin(headStrings)
	date, err := b.scanText(line)
	return b.finish(date, err)
}

// AddXML adds one ulmEvent element. It accepts what encoding/xml
// accepts into the record's schema, with its errors: documents of the
// shape AppendXML writes — give or take attribute order, either quote,
// whitespace between tokens, the five named entities and numeric
// character references — are scanned in place, and anything else (a
// prolog, comments, CDATA, namespaces, unknown attributes or elements)
// is handed to encoding/xml to decide. A document it rejects adds
// nothing.
func (b *TextBatch) AddXML(doc []byte) error {
	b.s.begin(headStrings)
	if !b.scanXML(doc) {
		b.s.abort()
		b.fallbacks++
		r, err := unmarshalXML(doc)
		if err != nil {
			return err
		}
		b.addRecord(&r)
		return nil
	}
	return b.finish(parseDate(b.date))
}

// finish closes the open record if it scanned (err is nil) and is
// valid, and drops it otherwise.
func (b *TextBatch) finish(date time.Time, err error) error {
	if err == nil {
		err = b.validate(date)
	}
	if err != nil {
		b.s.abort()
		return err
	}
	b.s.end(date)
	return nil
}

// addRecord adds a record that already exists as one.
func (b *TextBatch) addRecord(r *Record) {
	put := func(v string) {
		b.tmp = append(b.tmp[:0], v...)
		b.s.put(b.tmp)
	}
	b.s.begin(0)
	put(r.Host)
	put(r.Prog)
	put(r.Lvl)
	put(r.Event)
	for _, f := range r.Fields {
		put(f.Key)
		put(f.Value)
	}
	b.s.end(r.Date)
}

// validate is Record.Validate on the open record.
func (b *TextBatch) validate(date time.Time) error {
	if date.IsZero() {
		return fmt.Errorf("%w: DATE", ErrMissingField)
	}
	refs := b.s.refs[b.s.start:]
	for i, name := range [...]string{"HOST", "PROG", "LVL"} {
		if refs[i].n == 0 {
			return fmt.Errorf("%w: %s", ErrMissingField, name)
		}
	}
	for j := headStrings; j < len(refs); j += 2 {
		if err := checkKey(b.s.arena[refs[j].off : refs[j].off+refs[j].n]); err != nil {
			return err
		}
	}
	return nil
}

// checkKey is validKey on bytes.
func checkKey(k []byte) error {
	if len(k) == 0 || bytes.ContainsAny(k, " \t\n\r=\"") {
		return validKey(string(k))
	}
	return nil
}

// scanText parses one ULM line into the open record and returns its
// date. Unknown ordering of the required fields is accepted; they are
// conventionally first but the format does not demand it.
func (b *TextBatch) scanText(line []byte) (date time.Time, err error) {
	rest := bytes.TrimSpace(line)
	if len(rest) == 0 {
		return date, errors.New("ulm: empty line")
	}
	sawDate := false
	for len(rest) > 0 {
		eq := bytes.IndexByte(rest, '=')
		if eq <= 0 {
			return date, fmt.Errorf("ulm: malformed pair near %q", truncate(string(rest)))
		}
		key := rest[:eq]
		if err := checkKey(key); err != nil {
			return date, err
		}
		var value []byte
		if value, rest, err = b.scanValue(key, rest[eq+1:]); err != nil {
			return date, err
		}
		switch string(key) {
		case "DATE":
			if date, err = parseDate(value); err != nil {
				return date, err
			}
			sawDate = true
		case "HOST":
			b.s.setHead(0, value)
		case "PROG":
			b.s.setHead(1, value)
		case "LVL":
			b.s.setHead(2, value)
		case "NL.EVNT":
			b.s.setHead(3, value)
		default:
			b.s.put(key)
			b.s.put(value)
		}
	}
	if !sawDate {
		return date, fmt.Errorf("%w: DATE", ErrMissingField)
	}
	return date, nil
}

// scanValue consumes one value from the front of s — bare up to the
// next blank, or quoted with backslash escapes — and the blanks behind
// it. The value is a slice of s, or of b.tmp when it had escapes in it.
func (b *TextBatch) scanValue(key, s []byte) (value, rest []byte, err error) {
	if len(s) == 0 || s[0] != '"' {
		end := bytes.IndexAny(s, " \t")
		if end < 0 {
			return s, nil, nil
		}
		return s[:end], bytes.TrimLeft(s[end:], " \t"), nil
	}
	i := 1
	for i < len(s) && s[i] != '"' && s[i] != '\\' {
		i++
	}
	if i < len(s) && s[i] == '"' {
		return s[1:i], bytes.TrimLeft(s[i+1:], " \t"), nil
	}
	b.tmp = append(b.tmp[:0], s[1:i]...)
	for {
		if i >= len(s) {
			return nil, nil, fmt.Errorf("ulm: unterminated quote in value of %q", key)
		}
		c := s[i]
		if c == '"' {
			return b.tmp, bytes.TrimLeft(s[i+1:], " \t"), nil
		}
		if c != '\\' {
			b.tmp = append(b.tmp, c)
			i++
			continue
		}
		if i+1 >= len(s) {
			return nil, nil, fmt.Errorf("ulm: dangling escape in value of %q", key)
		}
		switch e := s[i+1]; e {
		case 'n':
			b.tmp = append(b.tmp, '\n')
		case 'r':
			b.tmp = append(b.tmp, '\r')
		case 't':
			b.tmp = append(b.tmp, '\t')
		default:
			b.tmp = append(b.tmp, e)
		}
		i += 2
	}
}

// parseDate is ParseDate on bytes: a value in the canonical layout is
// read in place, anything else — a short fraction, a malformed value —
// is ParseDate's to accept or name the fault of.
func parseDate(v []byte) (time.Time, error) {
	if len(v) != len(DateLayout) || v[14] != '.' {
		return ParseDate(string(v))
	}
	num := func(from, to int) int {
		n := 0
		for _, c := range v[from:to] {
			if c < '0' || c > '9' {
				return -1 << 32
			}
			n = n*10 + int(c-'0')
		}
		return n
	}
	year, month, day := num(0, 4), num(4, 6), num(6, 8)
	hour, min, sec, usec := num(8, 10), num(10, 12), num(12, 14), num(15, 21)
	if year < 0 || month < 1 || month > 12 || day < 1 || day > daysIn(month, year) ||
		hour < 0 || hour > 23 || min < 0 || min > 59 || sec < 0 || sec > 59 || usec < 0 {
		return ParseDate(string(v))
	}
	return time.Date(year, time.Month(month), day, hour, min, sec, usec*1000, time.UTC), nil
}

func daysIn(month, year int) int {
	switch month {
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}

func xmlBlank(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

// xmlSpace skips XML white space from d[i:].
func xmlSpace(d []byte, i int) int {
	for i < len(d) && xmlBlank(d[i]) {
		i++
	}
	return i
}

// xmlTag matches the literal tag opening (or closing) lit — "<field",
// "</ulmEvent" — at d[i:], as a whole name.
func xmlTag(d []byte, i int, lit string) (int, bool) {
	if !bytes.HasPrefix(d[i:], []byte(lit)) {
		return i, false
	}
	i += len(lit)
	if i < len(d) && d[i] != '>' && !xmlBlank(d[i]) {
		return i, false
	}
	return i, true
}

// xmlAttr scans one name="value" attribute at d[i:] — either quote,
// white space around the '=' — and returns the name and the unescaped
// value.
func (b *TextBatch) xmlAttr(d []byte, i int) (name, value []byte, next int, ok bool) {
	start := i
	for i < len(d) && d[i] >= 'a' && d[i] <= 'z' {
		i++
	}
	name = d[start:i]
	if i = xmlSpace(d, i); i >= len(d) || d[i] != '=' {
		return nil, nil, i, false
	}
	if i = xmlSpace(d, i+1); i >= len(d) || (d[i] != '"' && d[i] != '\'') {
		return nil, nil, i, false
	}
	value, next, ok = b.xmlText(d, i+1, d[i])
	return name, value, next + 1, ok
}

// xmlText unescapes character data from d[i:] up to the byte end — an
// attribute's closing quote or the '<' behind an element's text — and
// returns it with end's offset. The text is a slice of d, or of b.tmp
// when it had references in it. Whatever encoding/xml would not take
// literally — a raw carriage return (it rewrites those), '<' or '>',
// a control character, bytes that are not UTF-8, a reference other than
// the five named ones and the numeric ones to a character XML allows —
// is not this scanner's.
func (b *TextBatch) xmlText(d []byte, i int, end byte) (text []byte, at int, ok bool) {
	start, copied := i, false
	for i < len(d) {
		c := d[i]
		switch {
		case c == end:
			if !copied {
				return d[start:i], i, true
			}
			b.tmp = append(b.tmp, d[start:i]...)
			return b.tmp, i, true
		case c == '&':
			if !copied {
				b.tmp, copied = b.tmp[:0], true
			}
			b.tmp = append(b.tmp, d[start:i]...)
			if b.tmp, i, ok = xmlReference(b.tmp, d, i+1); !ok {
				return nil, i, false
			}
			start = i
		case c == '<' || c == '>' || c < ' ' && c != '\t' && c != '\n':
			return nil, i, false
		case c < utf8.RuneSelf:
			i++
		default:
			r, width := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && width == 1 || !xmlChar(r) {
				return nil, i, false
			}
			i += width
		}
	}
	return nil, i, false
}

// xmlReference appends to dst the character the reference at d[i:]
// (just past its '&') stands for, and returns the offset past its ';'.
func xmlReference(dst, d []byte, i int) ([]byte, int, bool) {
	semi := bytes.IndexByte(d[i:min(len(d), i+10)], ';')
	if semi < 1 {
		return dst, i, false
	}
	ref := d[i : i+semi]
	i += semi + 1
	switch string(ref) {
	case "lt":
		return append(dst, '<'), i, true
	case "gt":
		return append(dst, '>'), i, true
	case "amp":
		return append(dst, '&'), i, true
	case "apos":
		return append(dst, '\''), i, true
	case "quot":
		return append(dst, '"'), i, true
	}
	if ref[0] != '#' || len(ref) < 2 {
		return dst, i, false
	}
	digits, base := ref[1:], rune(10)
	if digits[0] == 'x' {
		digits, base = digits[1:], 16
	}
	if len(digits) == 0 {
		return dst, i, false
	}
	var r rune
	for _, c := range digits {
		switch {
		case c >= '0' && c <= '9':
			r = r*base + rune(c-'0')
		case base == 16 && c >= 'a' && c <= 'f':
			r = r*base + rune(c-'a'+10)
		case base == 16 && c >= 'A' && c <= 'F':
			r = r*base + rune(c-'A'+10)
		default:
			return dst, i, false
		}
	}
	// A surrogate is not a character: encoding/xml reads one as U+FFFD.
	if !xmlChar(r) {
		return dst, i, false
	}
	return utf8.AppendRune(dst, r), i, true
}

// scanXML scans doc as one ulmEvent element into the open record, the
// date attribute into b.date, and reports whether doc was of the shape
// it knows; when it was not, encoding/xml decides what doc means.
func (b *TextBatch) scanXML(doc []byte) bool {
	d := doc
	i, ok := xmlTag(d, xmlSpace(d, 0), "<ulmEvent")
	if !ok {
		return false
	}
	b.date = b.date[:0]
	seen := 0
	for {
		if i = xmlSpace(d, i); i >= len(d) {
			return false
		}
		if d[i] == '>' {
			i++
			break
		}
		var name, value []byte
		if name, value, i, ok = b.xmlAttr(d, i); !ok {
			return false
		}
		slot := -1
		switch string(name) {
		case "date":
			slot = 4
		case "host":
			slot = 0
		case "prog":
			slot = 1
		case "lvl":
			slot = 2
		case "event":
			slot = 3
		default:
			return false
		}
		if seen&(1<<slot) != 0 {
			return false
		}
		seen |= 1 << slot
		if slot == 4 {
			b.date = append(b.date, value...)
		} else {
			b.s.setHead(slot, value)
		}
	}
	for {
		i = xmlSpace(d, i)
		if j, ok := xmlTag(d, i, "</ulmEvent"); ok {
			if j = xmlSpace(d, j); j >= len(d) || d[j] != '>' {
				return false
			}
			// Nothing but white space may follow: encoding/xml never
			// reads past the element, so what is there is its to ignore.
			return xmlSpace(d, j+1) == len(d)
		}
		if i, ok = xmlTag(d, i, "<field"); !ok {
			return false
		}
		named := false
		for {
			if i = xmlSpace(d, i); i >= len(d) {
				return false
			}
			if d[i] == '>' {
				i++
				break
			}
			var name, value []byte
			if name, value, i, ok = b.xmlAttr(d, i); !ok || named || string(name) != "name" {
				return false
			}
			named = true
			b.s.put(value)
		}
		if !named {
			b.s.put(nil)
		}
		var text []byte
		if text, i, ok = b.xmlText(d, i, '<'); !ok {
			return false
		}
		b.s.put(text)
		if i, ok = xmlTag(d, i, "</field"); !ok {
			return false
		}
		if i = xmlSpace(d, i); i >= len(d) || d[i] != '>' {
			return false
		}
		i++
	}
}

var textPool = sync.Pool{New: func() any { return new(TextBatch) }}

// one takes the single record just added to a pooled batch and puts the
// batch back.
func (b *TextBatch) one() Record {
	var buf [1]Record
	r := b.Records(buf[:0], 0)[0]
	textPool.Put(b)
	return r
}

// Parse parses a single ULM line. Unknown ordering of the required
// fields is accepted; they are conventionally first but the format does
// not demand it. The record shares nothing with line.
func Parse(line string) (Record, error) {
	b := textPool.Get().(*TextBatch)
	b.in = append(b.in[:0], line...)
	if err := b.AddText(b.in); err != nil {
		textPool.Put(b)
		return Record{}, err
	}
	return b.one(), nil
}

// FromXML parses a record from an XML fragment produced by ToXML.
func FromXML(data []byte) (Record, error) {
	b := textPool.Get().(*TextBatch)
	if err := b.AddXML(data); err != nil {
		textPool.Put(b)
		return Record{}, err
	}
	return b.one(), nil
}
