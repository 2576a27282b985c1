// Package window is the site's one sliding-window engine: a ring of
// fixed-width slots aligned to absolute time, the mergeable statistic a
// slot keeps, and the one text encoding in which slots travel between
// gateways. Gateway summaries and the aggregation plane both build on
// it; it imports nothing of the site, so either can.
package window

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"strconv"
	"strings"
	"time"
)

// empty marks a slot that never held one.
const empty = math.MinInt64

// Ring is a sliding window of n slots of one width, aligned to absolute
// time: the slot starting at k·width covers [k·width, (k+1)·width) of
// unix nanoseconds and sits at ring position k mod n. Two rings of the
// same width therefore hold the same slots at the same times, on
// whichever gateway they live, and merge slot for slot. At time now the
// n most recent slots, the one covering now included, are live; a
// position still holding an older slot is zeroed when it is claimed
// again. The ring's clock never runs back: a now older than the newest
// slot the ring holds reads as that slot's time, so a caller whose
// clock reading lost a race to another's neither resets a live slot nor
// reads a window that has moved on. A Ring is not safe for concurrent
// use.
type Ring[T any] struct {
	width  int64
	newest int64 // the newest slot start claimed
	slots  []slot[T]
}

type slot[T any] struct {
	start int64
	v     T
}

// NewRing returns a ring of n slots of width ⌈span/n⌉ (at least 1 ns),
// so the live slots cover span, rounded up to whole nanoseconds.
func NewRing[T any](span time.Duration, n int) *Ring[T] {
	r := &Ring[T]{width: max(1, int64(span-1)/int64(n)+1), newest: empty, slots: make([]slot[T], n)}
	for i := range r.slots {
		r.slots[i].start = empty
	}
	return r
}

// align returns the start of the slot covering t, in unix nanoseconds
// (rounded down, before the epoch too).
func (r *Ring[T]) align(t int64) int64 { return t - (t%r.width+r.width)%r.width }

// cur returns the start of the current slot at now.
func (r *Ring[T]) cur(now int64) int64 { return max(r.align(now), r.newest) }

// pos returns the ring position of the slot starting at start.
func (r *Ring[T]) pos(start int64) *slot[T] {
	n := int64(len(r.slots))
	return &r.slots[(start/r.width%n+n)%n]
}

// at returns the slot starting at the aligned start, zeroed first if
// its position still holds another slot.
func (r *Ring[T]) at(start int64) *T {
	s := r.pos(start)
	if s.start != start {
		*s = slot[T]{start: start}
		r.newest = max(r.newest, start)
	}
	return &s.v
}

// Current returns the current slot at now (unix nanoseconds): the one
// covering now, or the newest the ring holds when that is later.
func (r *Ring[T]) Current(now int64) *T { return r.at(r.cur(now)) }

// Seed returns the live slot at now that a slot starting at start
// merges into: the slot covering start, or the current slot when start
// lies past it (the sender's clock ran ahead of ours). It returns nil
// when that slot is already out of the ring.
func (r *Ring[T]) Seed(start, now int64) *T {
	cur := r.cur(now)
	switch {
	case start >= cur:
		return r.at(cur)
	case start < cur-int64(len(r.slots)-1)*r.width:
		return nil
	}
	return r.at(r.align(start))
}

// Live yields the live slots at now, oldest first, with their starts.
func (r *Ring[T]) Live(now int64) iter.Seq2[int64, *T] {
	return func(yield func(int64, *T) bool) {
		cur := r.cur(now)
		for a := cur - int64(len(r.slots)-1)*r.width; a <= cur; a += r.width {
			if s := r.pos(a); s.start == a && !yield(a, &s.v) {
				return
			}
		}
	}
}

// Finite reports whether v is a measurement a window folds: a number,
// not NaN or ±Inf.
func Finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Stat is the exact count, sum, min and max of a set of finite samples.
// The zero Stat is the empty set.
type Stat struct {
	Count         uint64
	Sum, Min, Max float64
}

// Add folds one sample in.
func (s *Stat) Add(v float64) { s.Merge(Stat{1, v, v, v}) }

// Merge folds another set's statistic in.
func (s *Stat) Merge(o Stat) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 || o.Min < s.Min {
		s.Min = o.Min
	}
	if s.Count == 0 || o.Max > s.Max {
		s.Max = o.Max
	}
	s.Sum += o.Sum
	s.Count += o.Count
}

// Slot is one slot in transit: its start in unix nanoseconds and its
// statistic.
type Slot struct {
	Start int64
	Stat
}

// Encode writes slots in the one text encoding: comma separated, each
// "start:count" when counts alone travel, else
// "start:count:sum:min:max". No slots encode as "".
func Encode(slots []Slot, countsOnly bool) string {
	var b []byte
	for i, s := range slots {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(append(strconv.AppendInt(b, s.Start, 10), ':'), s.Count, 10)
		if !countsOnly {
			for _, v := range [...]float64{s.Sum, s.Min, s.Max} {
				b = strconv.AppendFloat(append(b, ':'), v, 'g', -1, 64)
			}
		}
	}
	return string(b)
}

// Parse reads Encode's output in the same form. It refuses what no
// ring drains: a slot of the other form, a count of zero, and a
// statistic whose values are not finite or whose min exceeds its max.
func Parse(in string, countsOnly bool) ([]Slot, error) {
	if in == "" {
		return nil, nil
	}
	var out []Slot
	for part := range strings.SplitSeq(in, ",") {
		f := strings.Split(part, ":")
		if countsOnly && len(f) != 2 || !countsOnly && len(f) != 5 {
			return nil, fmt.Errorf("window: bad slot %q", part)
		}
		var s Slot
		var errs [5]error
		s.Start, errs[0] = strconv.ParseInt(f[0], 10, 64)
		s.Count, errs[1] = strconv.ParseUint(f[1], 10, 64)
		if !countsOnly {
			s.Sum, errs[2] = strconv.ParseFloat(f[2], 64)
			s.Min, errs[3] = strconv.ParseFloat(f[3], 64)
			s.Max, errs[4] = strconv.ParseFloat(f[4], 64)
		}
		if errors.Join(errs[:]...) != nil || s.Count == 0 || !Finite(s.Sum) || !Finite(s.Min) || !Finite(s.Max) || s.Min > s.Max {
			return nil, fmt.Errorf("window: bad slot %q", part)
		}
		out = append(out, s)
	}
	return out, nil
}
