package ulm

import (
	"encoding/xml"
	"errors"
	"fmt"
	"strings"
)

// The text codecs as they were before the append encoders and the
// scanners, kept as the oracles FuzzTextEncode and FuzzTextDecode
// compare them against. The XML oracle is encoding/xml itself.

// refToXML marshals the record's XML schema through encoding/xml.
func refToXML(r *Record) ([]byte, error) {
	x := xmlRecord{Date: FormatDate(r.Date), Host: r.Host, Prog: r.Prog, Lvl: r.Lvl, Event: r.Event, Fields: make([]xmlField, len(r.Fields))}
	for i, f := range r.Fields {
		x.Fields[i] = xmlField{f.Key, f.Value}
	}
	return xml.Marshal(x)
}

// refString is Record.String as it was before AppendText.
func refString(r Record) string {
	var b strings.Builder
	b.Grow(96 + 16*len(r.Fields))
	b.WriteString("DATE=")
	b.WriteString(r.Date.UTC().Format(DateLayout))
	b.WriteString(" HOST=")
	refWriteValue(&b, r.Host)
	b.WriteString(" PROG=")
	refWriteValue(&b, r.Prog)
	b.WriteString(" LVL=")
	refWriteValue(&b, r.Lvl)
	if r.Event != "" {
		b.WriteString(" NL.EVNT=")
		refWriteValue(&b, r.Event)
	}
	for _, f := range r.Fields {
		b.WriteByte(' ')
		b.WriteString(f.Key)
		b.WriteByte('=')
		refWriteValue(&b, f.Value)
	}
	return b.String()
}

func refNeedsQuoting(v string) bool {
	if v == "" {
		return true
	}
	return strings.ContainsAny(v, " \t\n\r\"=")
}

func refWriteValue(b *strings.Builder, v string) {
	if !refNeedsQuoting(v) {
		b.WriteString(v)
		return
	}
	b.WriteByte('"')
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '"', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
}

// refParse is Parse as it was before TextBatch: a strings.Builder per
// quoted value, Fields grown by append.
func refParse(line string) (Record, error) {
	var r Record
	var sawDate bool
	rest := strings.TrimSpace(line)
	if rest == "" {
		return r, errors.New("ulm: empty line")
	}
	for len(rest) > 0 {
		key, value, remaining, err := refParsePair(rest)
		if err != nil {
			return r, err
		}
		rest = remaining
		switch key {
		case "DATE":
			t, err := ParseDate(value)
			if err != nil {
				return r, err
			}
			r.Date = t
			sawDate = true
		case "HOST":
			r.Host = value
		case "PROG":
			r.Prog = value
		case "LVL":
			r.Lvl = value
		case "NL.EVNT":
			r.Event = value
		default:
			r.Fields = append(r.Fields, Field{key, value})
		}
	}
	if !sawDate {
		return r, fmt.Errorf("%w: DATE", ErrMissingField)
	}
	if err := r.Validate(); err != nil {
		return r, err
	}
	return r, nil
}

// refParsePair consumes one key=value token from the front of s.
func refParsePair(s string) (key, value, rest string, err error) {
	eq := strings.IndexByte(s, '=')
	if eq <= 0 {
		return "", "", "", fmt.Errorf("ulm: malformed pair near %q", truncate(s))
	}
	key = s[:eq]
	if err := validKey(key); err != nil {
		return "", "", "", err
	}
	s = s[eq+1:]
	if len(s) > 0 && s[0] == '"' {
		var b strings.Builder
		i := 1
		for {
			if i >= len(s) {
				return "", "", "", fmt.Errorf("ulm: unterminated quote in value of %q", key)
			}
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return "", "", "", fmt.Errorf("ulm: dangling escape in value of %q", key)
				}
				switch s[i+1] {
				case 'n':
					b.WriteByte('\n')
				case 'r':
					b.WriteByte('\r')
				case 't':
					b.WriteByte('\t')
				default:
					b.WriteByte(s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			b.WriteByte(c)
			i++
		}
		return key, b.String(), strings.TrimLeft(s[i:], " \t"), nil
	}
	end := strings.IndexAny(s, " \t")
	if end < 0 {
		return key, s, "", nil
	}
	return key, s[:end], strings.TrimLeft(s[end:], " \t"), nil
}
