// Package ulm implements the Universal Logger Message format used by
// NetLogger and JAMM for the logging and exchange of monitoring events
// (Abela & Debeaupuis, IETF draft "Universal Format for Logger Messages").
//
// A ULM record is a whitespace-separated list of field=value pairs. The
// required fields are DATE, HOST, PROG and LVL; they may be followed by
// any number of user-defined fields. NetLogger adds the NL.EVNT field
// whose value is a unique identifier for the event being logged:
//
//	DATE=20000330112320.957943 HOST=dpss1.lbl.gov PROG=testProg LVL=Usage NL.EVNT=WriteData SEND.SZ=49332
//
// The DATE field carries six fractional digits, allowing microsecond
// precision. Values containing whitespace, quotes or '=' are quoted with
// double quotes and backslash-escaped.
//
// The package also provides a compact binary encoding (for high
// throughput event data that cannot tolerate ASCII parsing overhead,
// paper §3.0) and an XML rendering (the ULM-to-XML gateway filter,
// paper §7.0).
//
// Ownership: a Record is a plain value and its strings are immutable,
// so records are freely copied and retained. Records decoded as a
// batch — one binary frame by DecodeBinaryBatch, the payloads of one
// text line by a TextBatch — share one string arena and one field slab;
// anything that keeps a record longer than its batch calls Compact, or
// the one record keeps the whole batch's memory alive. Neither decoder
// leaves a record aliasing the bytes it was decoded from.
package ulm

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Standard severity levels for the LVL field. The paper's examples use
// Usage for performance events.
const (
	LvlEmergency = "Emergency"
	LvlAlert     = "Alert"
	LvlError     = "Error"
	LvlWarning   = "Warning"
	LvlAuth      = "Auth"
	LvlSecurity  = "Security"
	LvlUsage     = "Usage"
	LvlSystem    = "System"
	LvlImportant = "Important"
	LvlDebug     = "Debug"
)

// DateLayout is the ULM timestamp layout: seconds since the epoch are
// rendered as a calendar timestamp with six digits of sub-second
// precision (microseconds). All timestamps are UTC.
const DateLayout = "20060102150405.000000"

// Field is a single user-defined key=value pair. Field order is
// preserved: NetLogger tools rely on stable ordering for readability.
type Field struct {
	Key   string
	Value string
}

// Record is one parsed ULM event.
type Record struct {
	Date   time.Time
	Host   string
	Prog   string
	Lvl    string
	Event  string  // NL.EVNT; empty for non-NetLogger ULM records
	Fields []Field // user-defined fields, in original order
}

// ErrMissingField reports a ULM line lacking one of the required fields.
var ErrMissingField = errors.New("ulm: missing required field")

// Get returns the value of the named user field and whether it was
// present. Required fields are addressed by their struct members, but
// Get also resolves DATE, HOST, PROG, LVL and NL.EVNT for convenience.
func (r *Record) Get(key string) (string, bool) {
	switch key {
	case "DATE":
		return r.Date.UTC().Format(DateLayout), true
	case "HOST":
		return r.Host, true
	case "PROG":
		return r.Prog, true
	case "LVL":
		return r.Lvl, true
	case "NL.EVNT":
		if r.Event == "" {
			return "", false
		}
		return r.Event, true
	}
	for _, f := range r.Fields {
		if f.Key == key {
			return f.Value, true
		}
	}
	return "", false
}

// Int returns the named user field parsed as an int64.
func (r *Record) Int(key string) (int64, error) {
	v, ok := r.Get(key)
	if !ok {
		return 0, fmt.Errorf("ulm: field %q not present", key)
	}
	return strconv.ParseInt(v, 10, 64)
}

// Float returns the named user field parsed as a float64.
func (r *Record) Float(key string) (float64, error) {
	v, ok := r.Get(key)
	if !ok {
		return 0, fmt.Errorf("ulm: field %q not present", key)
	}
	return strconv.ParseFloat(v, 64)
}

// Set replaces the value of the named user field, appending the field if
// it is not yet present.
func (r *Record) Set(key, value string) {
	for i := range r.Fields {
		if r.Fields[i].Key == key {
			r.Fields[i].Value = value
			return
		}
	}
	r.Fields = append(r.Fields, Field{key, value})
}

// Clone returns a deep copy of the record.
func (r *Record) Clone() Record {
	c := *r
	c.Fields = append([]Field(nil), r.Fields...)
	return c
}

// Compact returns a copy of the record that shares no memory with it:
// one string holding all of its string bytes and one field slice of
// exactly its length. It is what a long-lived holder keeps of a record
// decoded by DecodeBinaryBatch or a TextBatch, whose strings and fields
// would otherwise pin the whole batch.
func (r *Record) Compact() Record {
	n := len(r.Host) + len(r.Prog) + len(r.Lvl) + len(r.Event)
	for _, f := range r.Fields {
		n += len(f.Key) + len(f.Value)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(r.Host)
	b.WriteString(r.Prog)
	b.WriteString(r.Lvl)
	b.WriteString(r.Event)
	for _, f := range r.Fields {
		b.WriteString(f.Key)
		b.WriteString(f.Value)
	}
	rest := b.String()
	cut := func(n int) string {
		s := rest[:n]
		rest = rest[n:]
		return s
	}
	c := Record{Date: r.Date, Host: cut(len(r.Host)), Prog: cut(len(r.Prog)), Lvl: cut(len(r.Lvl)), Event: cut(len(r.Event))}
	if len(r.Fields) > 0 {
		c.Fields = make([]Field, len(r.Fields))
		for i, f := range r.Fields {
			c.Fields[i] = Field{cut(len(f.Key)), cut(len(f.Value))}
		}
	}
	return c
}

// Validate reports whether the record has all required fields and
// well-formed keys.
func (r *Record) Validate() error {
	if r.Date.IsZero() {
		return fmt.Errorf("%w: DATE", ErrMissingField)
	}
	if r.Host == "" {
		return fmt.Errorf("%w: HOST", ErrMissingField)
	}
	if r.Prog == "" {
		return fmt.Errorf("%w: PROG", ErrMissingField)
	}
	if r.Lvl == "" {
		return fmt.Errorf("%w: LVL", ErrMissingField)
	}
	for _, f := range r.Fields {
		if err := validKey(f.Key); err != nil {
			return err
		}
	}
	return nil
}

func validKey(k string) error {
	if k == "" {
		return errors.New("ulm: empty field key")
	}
	if strings.ContainsAny(k, " \t\n\r=\"") {
		return fmt.Errorf("ulm: invalid field key %q", k)
	}
	return nil
}

// String renders the record in ULM line format (without a trailing
// newline).
func (r Record) String() string {
	var buf [512]byte
	return string(AppendText(buf[:0], &r))
}

func truncate(s string) string {
	if len(s) > 24 {
		return s[:24] + "..."
	}
	return s
}

// ParseDate parses a ULM DATE value (UTC, microsecond precision).
func ParseDate(v string) (time.Time, error) {
	t, err := time.ParseInLocation(DateLayout, v, time.UTC)
	if err != nil {
		// Tolerate fewer fractional digits, as some producers emit
		// millisecond precision.
		t2, err2 := time.ParseInLocation("20060102150405", strings.SplitN(v, ".", 2)[0], time.UTC)
		if err2 != nil {
			return time.Time{}, fmt.Errorf("ulm: bad DATE %q: %v", v, err)
		}
		if dot := strings.IndexByte(v, '.'); dot >= 0 {
			frac := v[dot+1:]
			if frac == "" || len(frac) > 9 {
				return time.Time{}, fmt.Errorf("ulm: bad DATE fraction %q", v)
			}
			ns, errf := strconv.ParseUint(frac+strings.Repeat("0", 9-len(frac)), 10, 64)
			if errf != nil {
				return time.Time{}, fmt.Errorf("ulm: bad DATE fraction %q", v)
			}
			t2 = t2.Add(time.Duration(ns))
		}
		return t2, nil
	}
	return t, nil
}

// FormatDate renders t as a ULM DATE value.
func FormatDate(t time.Time) string {
	return t.UTC().Format(DateLayout)
}

// SortByDate sorts records by timestamp, stably, so that events from a
// single producer preserve their emission order when timestamps tie.
func SortByDate(recs []Record) {
	sort.SliceStable(recs, func(i, j int) bool {
		return recs[i].Date.Before(recs[j].Date)
	})
}

// Merge merges already-sorted record slices into one sorted slice; this
// is the core of the NetLogger log-collection tools that combine
// per-sensor files into a single file for nlv.
func Merge(sorted ...[]Record) []Record {
	total := 0
	for _, s := range sorted {
		total += len(s)
	}
	out := make([]Record, 0, total)
	idx := make([]int, len(sorted))
	for len(out) < total {
		best := -1
		for i, s := range sorted {
			if idx[i] >= len(s) {
				continue
			}
			if best < 0 || s[idx[i]].Date.Before(sorted[best][idx[best]].Date) {
				best = i
			}
		}
		out = append(out, sorted[best][idx[best]])
		idx[best]++
	}
	return out
}
