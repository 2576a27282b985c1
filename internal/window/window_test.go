package window

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestRingAlignsToAbsoluteTime: a slot covers [k·width, (k+1)·width),
// before the epoch too, and the width is the span over n, rounded up.
func TestRingAlignsToAbsoluteTime(t *testing.T) {
	r := NewRing[Stat](100*time.Millisecond, 60)
	if w := r.width; w != 1666667 {
		t.Fatalf("width %d, want ⌈100ms/60⌉ = 1666667", w)
	}
	r = NewRing[Stat](time.Minute, 60)
	for _, c := range []struct{ t, start int64 }{
		{0, 0}, {1, 0}, {int64(time.Second) - 1, 0}, {int64(time.Second), int64(time.Second)},
		{-1, -int64(time.Second)}, {-int64(time.Second), -int64(time.Second)},
		{-int64(time.Second) - 1, -2 * int64(time.Second)},
	} {
		if a := r.align(c.t); a != c.start {
			t.Errorf("align(%d) = %d, want %d", c.t, a, c.start)
		}
	}
}

// TestRingLiveSlots: the live slots are the n most recent, the current
// one counted; a slot older than that is gone from the walk, and its
// position is zeroed when it is claimed again.
func TestRingLiveSlots(t *testing.T) {
	const w = int64(time.Second)
	r := NewRing[Stat](3*time.Second, 3)
	for i := int64(0); i < 3; i++ {
		r.Current(i * w).Add(float64(i))
	}
	live := func(now int64) (starts []int64, total Stat) {
		for start, s := range r.Live(now) {
			starts = append(starts, start)
			total.Merge(*s)
		}
		return starts, total
	}
	if starts, total := live(3*w - 1); len(starts) != 3 || starts[0] != 0 || total.Count != 3 || total.Sum != 3 {
		t.Fatalf("at the third slot: starts %v, total %+v", starts, total)
	}
	if starts, total := live(3 * w); len(starts) != 2 || starts[0] != w || total.Sum != 3 {
		t.Fatalf("one slot later: starts %v, total %+v, want the first slot aged out", starts, total)
	}
	r.Current(3 * w).Add(10)
	if s := r.Current(3 * w); s.Count != 1 || s.Sum != 10 {
		t.Fatalf("reclaimed slot holds %+v, want only the new sample", *s)
	}
	if starts, _ := live(10 * w); len(starts) != 0 {
		t.Fatalf("after a quiet gap longer than the ring: live %v, want none", starts)
	}
}

// TestRingSeed: a seeded slot lands in the slot covering its start; one
// already out of the ring is dropped, one past the current slot folds
// into the current one.
func TestRingSeed(t *testing.T) {
	const w = int64(time.Second)
	r := NewRing[Stat](3*time.Second, 3)
	now := 10*w + w/2
	for _, c := range []struct {
		start int64
		into  int64 // -1: dropped
	}{
		{10 * w, 10 * w}, {9*w + 1, 9 * w}, {8 * w, 8 * w}, {8*w - 1, -1},
		{11 * w, 10 * w}, {math.MaxInt64, 10 * w}, {math.MinInt64, -1},
	} {
		p := r.Seed(c.start, now)
		if (p == nil) != (c.into < 0) || (p != nil && p != r.at(c.into)) {
			t.Errorf("seed at %d: slot %p, want the one starting at %d", c.start, p, c.into)
		}
	}
}

// TestRingClockNeverRunsBack: a now older than the newest slot the ring
// holds, as a caller whose clock reading lost a race passes, reads as
// that slot's time: it resets no live slot and sees the same window.
func TestRingClockNeverRunsBack(t *testing.T) {
	const w = int64(time.Second)
	r := NewRing[Stat](3*time.Second, 3)
	r.Current(10 * w).Add(1)
	r.Current(12 * w).Add(2)
	r.Current(0).Add(4) // from a clock reading taken before the others
	if s := r.Current(12 * w); s.Count != 2 || s.Sum != 6 {
		t.Fatalf("the newest slot holds %+v, want the late sample added to it", *s)
	}
	var total Stat
	for _, s := range r.Live(11 * w) {
		total.Merge(*s)
	}
	if total.Count != 3 || total.Sum != 7 {
		t.Fatalf("an old read sees %+v, want every live sample", total)
	}
	if p := r.Seed(9*w, 0); p != nil {
		t.Fatalf("a seed older than the ring, read at an old now, landed in %+v", *p)
	}
}

func TestStatMerge(t *testing.T) {
	var a, b, all Stat
	for i, v := range []float64{3, -1, 7, 0.5, -4} {
		all.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	var m Stat
	m.Merge(Stat{})
	m.Merge(a)
	m.Merge(b)
	m.Merge(Stat{})
	if m != all {
		t.Fatalf("merged %+v, want %+v", m, all)
	}
}

// TestParseRefuses: what no ring drains does not parse.
func TestParseRefuses(t *testing.T) {
	for _, c := range []struct {
		in         string
		countsOnly bool
	}{
		{"1:2", false},
		{"1:2:3:1:2", true},
		{"1:0:0:0:0", false},
		{"1:0", true},
		{"1:1:NaN:1:1", false},
		{"1:1:1:-Inf:1", false},
		{"1:1:1:1:+Inf", false},
		{"1:1:1e400:1:1", false},
		{"1:2:3:2:1", false},
		{"x:1", true},
		{"1:-1", true},
		{"1:1,", true},
		{",", true},
		{"1:1:1:1:1:1", false},
	} {
		if slots, err := Parse(c.in, c.countsOnly); err == nil {
			t.Errorf("Parse(%q, %v) = %+v, want an error", c.in, c.countsOnly, slots)
		}
	}
	if slots, err := Parse("", false); err != nil || slots != nil {
		t.Fatalf("Parse of no slots: %+v, %v", slots, err)
	}
}

// TestEncodeCountsOnly: the count-only form is "start:count" pairs, the
// aggregation plane's handoff encoding.
func TestEncodeCountsOnly(t *testing.T) {
	slots := []Slot{{Start: 1000, Stat: Stat{Count: 7}}, {Start: -2000, Stat: Stat{Count: 4, Sum: 9}}}
	if got := Encode(slots, true); got != "1000:7,-2000:4" {
		t.Fatalf("Encode = %q", got)
	}
	if got := Encode(slots[:1], false); got != "1000:7:0:0:0" {
		t.Fatalf("Encode = %q", got)
	}
}

// FuzzWindowSlots: Parse never panics, and what it accepts encodes and
// parses back to the same slots.
func FuzzWindowSlots(f *testing.F) {
	for _, s := range []string{"", "1000:7", "1000:7,2000:4", "957142800000000000:2:40:10:30",
		"-5:1:-0:-0:-0,6:3:1e300:-1e300:1e300", "1:1:NaN:1:1", "1:2:3:2:1"} {
		f.Add(s, true)
		f.Add(s, false)
	}
	f.Fuzz(func(t *testing.T, in string, countsOnly bool) {
		slots, err := Parse(in, countsOnly)
		if err != nil {
			return
		}
		enc := Encode(slots, countsOnly)
		again, err := Parse(enc, countsOnly)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, its encoding %q refused: %v", in, enc, err)
		}
		if len(again) != len(slots) {
			t.Fatalf("%q: %d slots, round trip %d", in, len(slots), len(again))
		}
		for i := range slots {
			if again[i] != slots[i] {
				t.Fatalf("%q slot %d: %+v, round trip %+v", in, i, slots[i], again[i])
			}
		}
		if strings.Count(enc, ",") != max(0, len(slots)-1) {
			t.Fatalf("%q encodes %d slots as %q", in, len(slots), enc)
		}
	})
}
