package benchkit

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// Span is one timed call the harness made into (or received from) a
// layer. Spans of one request share Trace (sensor<<16 | SEQ of the
// run's first record). Parent is an index into the slice Snapshot
// returned, -1 for a root.
type Span struct {
	Name   uint16 // index into Spans.Names
	Trace  uint32
	N      int32 // records the call carried
	Parent int32
	Start  int64
	End    int64
}

// Spans is a preallocated in-memory span log: Begin/End cost two clock
// reads and two atomic operations, nothing is written anywhere until the
// run is over. When the buffer is full further spans are counted in
// Dropped, not recorded. Begin and End of one span are called by one
// goroutine; any goroutine may take a Snapshot at any time and sees
// every span whose End has returned.
type Spans struct {
	Names   []string
	Dropped atomic.Int64

	buf  []Span         // all but End, written by the opening goroutine
	ends []atomic.Int64 // End; storing it publishes the span
	next atomic.Int64
}

// NewSpans preallocates room for capacity spans over the given names.
func NewSpans(capacity int, names ...string) *Spans {
	return &Spans{Names: names, buf: make([]Span, capacity), ends: make([]atomic.Int64, capacity)}
}

// Reset empties the log for reuse. No span may be open.
func (s *Spans) Reset() {
	clear(s.ends[:min(s.next.Load(), int64(len(s.ends)))])
	s.next.Store(0)
	s.Dropped.Store(0)
}

// Begin opens a span and returns its handle (-1 when the log is full).
func (s *Spans) Begin(name int, trace uint32, now int64) int {
	i := s.next.Add(1) - 1
	if i >= int64(len(s.buf)) {
		s.Dropped.Add(1)
		return -1
	}
	s.buf[i] = Span{Name: uint16(name), Trace: trace, Start: now}
	return int(i)
}

// End closes the span h as of now (which must not be 0), having carried
// n records.
func (s *Spans) End(h int, now int64, n int) {
	if h < 0 {
		return
	}
	s.buf[h].N = int32(n)
	s.ends[h].Store(now)
}

// Snapshot returns the spans closed so far, each with its parent
// resolved: the tightest span of the same trace whose interval encloses
// it. Calls the harness wraps nest on one goroutine (a bridge calls the
// target wrapper, inside which the bus calls the subscriber wrapper), so
// enclosure within one trace is causation.
func (s *Spans) Snapshot() []Span {
	n := min(s.next.Load(), int64(len(s.buf)))
	spans := make([]Span, 0, n)
	for i := int64(0); i < n; i++ {
		if end := s.ends[i].Load(); end != 0 {
			sp := s.buf[i]
			sp.End, sp.Parent = end, -1
			spans = append(spans, sp)
		}
	}
	// Same trace together; outer before inner (earlier start, then
	// later end), so a stack of open ancestors resolves parents in one
	// pass.
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := &spans[order[a]], &spans[order[b]]
		if x.Trace != y.Trace {
			return x.Trace < y.Trace
		}
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.End > y.End
	})
	var stack []int
	var trace uint32
	for _, i := range order {
		sp := &spans[i]
		if sp.Trace != trace {
			stack, trace = stack[:0], sp.Trace
		}
		for len(stack) > 0 && spans[stack[len(stack)-1]].End < sp.End {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			sp.Parent = int32(stack[len(stack)-1])
		}
		stack = append(stack, i)
	}
	return spans
}

// SpanTotals is the per-name roll-up of a span snapshot.
type SpanTotals struct {
	Name    string
	Count   int64
	Records int64
	TotalNS int64 // sum of durations
	SelfNS  int64 // sum of durations minus what child spans cover
}

// Totals rolls a snapshot up by name. A span's self time is its duration
// minus the part of its interval its direct children cover (children of
// one parent run one after another on the parent's goroutine, so their
// cover is the sum of their durations, clipped to the parent).
func (s *Spans) Totals(spans []Span) []SpanTotals {
	cover := make([]int64, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			cover[p] += spans[i].End - spans[i].Start
		}
	}
	out := make([]SpanTotals, len(s.Names))
	for i := range out {
		out[i].Name = s.Names[i]
	}
	for i := range spans {
		sp := &spans[i]
		d := sp.End - sp.Start
		t := &out[sp.Name]
		t.Count++
		t.Records += int64(sp.N)
		t.TotalNS += d
		t.SelfNS += max(d-cover[i], 0)
	}
	return out
}

// WriteJSONL writes one JSON object per span of a snapshot.
func (s *Spans) WriteJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	for i, sp := range spans {
		fmt.Fprintf(bw, `{"id":%d,"name":%q,"trace":"%d/%d","start_ns":%d,"end_ns":%d,"parent":%d,"recs":%d}`+"\n",
			i, s.Names[sp.Name], sp.Trace>>16, sp.Trace&0xffff, sp.Start, sp.End, sp.Parent, sp.N)
	}
	return bw.Flush()
}
