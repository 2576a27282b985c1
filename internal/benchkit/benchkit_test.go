package benchkit

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

const ms = int64(time.Millisecond)

func newPacer(rate float64, runLen int) *Pacer {
	return &Pacer{Rate: rate, RunLen: runLen, Tick: time.Millisecond, CatchUp: 2}
}

// On schedule, every tick is released at its own instant carrying the
// nominal volume, with fractional runs carried over exactly.
func TestPacerScheduleOnTime(t *testing.T) {
	p := newPacer(50_000, 4)         // 12.5 runs per tick
	clk := struct{ T int64 }{7 * ms} // hand-advanced time
	p.Start(clk.T)
	total, ticks := 0, 0
	for i := 0; i < 1000; i++ {
		p.Wake(clk.T, func(due int64, runs int) {
			if due != clk.T {
				t.Fatalf("tick %d due %d, released at %d", i, due, clk.T)
			}
			if runs != 12 && runs != 13 {
				t.Fatalf("tick %d carried %d runs, want 12 or 13", i, runs)
			}
			total += runs
			ticks++
		})
		clk.T += ms
	}
	if ticks != 1000 || total != 12_500 {
		t.Fatalf("released %d runs in %d ticks, want 12500 in 1000", total, ticks)
	}
	for _, l := range p.Late {
		if l != 0 {
			t.Fatalf("lateness %d on an on-time schedule", l)
		}
	}
}

// After a stall the generator catches up at no more than twice the
// nominal rate, and every delayed tick keeps its original due time, so
// the stall is visible as lateness rather than forgotten.
func TestPacerCatchUpCapAndLateness(t *testing.T) {
	p := newPacer(64_000, 64) // exactly one run per tick
	var clk struct{ T int64 }
	p.Start(0)
	p.Wake(0, func(int64, int) {}) // tick 0
	clk.T = 100 * ms               // a 100ms hiccup: ticks 1..100 are now due
	var dues []int64
	// The stall lasted 100 ticks, so the budget (2x the elapsed ticks)
	// covers the whole backlog in this one wake.
	p.Wake(clk.T, func(due int64, runs int) { dues = append(dues, due) })
	if len(dues) != 100 {
		t.Fatalf("released %d delayed ticks, want 100", len(dues))
	}
	for i, d := range dues {
		if d != int64(i+1)*ms {
			t.Fatalf("delayed tick %d due at %d, want its original instant %d", i, d, int64(i+1)*ms)
		}
	}
	// Tick 1 was due at 1ms and went out at 100ms.
	if p.Late[1] != 99*ms {
		t.Fatalf("lateness of first delayed tick = %d, want %d", p.Late[1], 99*ms)
	}

	// A generator that is woken only every 4ms still gets the budget
	// for the time that passed, so a coarse timer cannot collapse the
	// offered rate.
	q := newPacer(64_000, 64)
	q.Start(0)
	sent := 0
	for now := int64(0); now <= 400*ms; now += 4 * ms {
		sent += q.Wake(now, func(int64, int) {})
	}
	if sent != 401 {
		t.Fatalf("coarse wakes released %d ticks over 400ms, want 401", sent)
	}

}

// The cap itself: with a backlog of 101 ticks and one tick's worth of
// time since the previous wake, a wake releases two ticks, not 101.
func TestPacerBudgetLimitsBurst(t *testing.T) {
	p := newPacer(64_000, 64)
	p.Start(0)
	p.Wake(0, func(int64, int) {})
	// Pretend earlier wakes happened but released nothing: next stays
	// behind while lastWake advances.
	p.lastWake = 100
	n := p.Wake(101*ms, func(int64, int) {})
	if n != 2 {
		t.Fatalf("one elapsed tick with 101 due released %d, want the 2x cap", n)
	}
	if p.next != 3 {
		t.Fatalf("next unreleased tick %d, want 3 (99 still due)", p.next)
	}
}

func TestCreditsNeverExceedLimit(t *testing.T) {
	c := NewCredits(192)
	var wg sync.WaitGroup
	released := make(chan int, 1024)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(runLen int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if !c.Acquire(runLen) {
					return
				}
				released <- runLen
			}
		}([]int{1, 4, 16, 64}[g])
	}
	go func() { wg.Wait(); close(released) }()
	for n := range released {
		if f := c.InFlight(); f > 192 {
			t.Fatalf("%d records in flight", f)
		}
		c.Release(n)
	}
	if c.MaxInFlight() > 192 || c.MaxInFlight() < 64 {
		t.Fatalf("high-water mark %d, want within (64, 192]", c.MaxInFlight())
	}
	if c.InFlight() != 0 {
		t.Fatalf("%d records left in flight", c.InFlight())
	}
	c.Stop()
	if c.Acquire(1) {
		t.Fatal("Acquire succeeded after Stop")
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := Median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("median = %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
	if !math.IsNaN(Median(nil)) {
		t.Fatal("median of nothing should be NaN")
	}
	// 1000 records: values 1..10, each standing for 100 records.
	var s []Sample
	for v := 10; v >= 1; v-- {
		s = append(s, Sample{V: int64(v), W: 100})
	}
	if p, n := Percentile(s, 0.5); p != 5 || n != 1000 {
		t.Fatalf("p50 = %v over %d", p, n)
	}
	if p, _ := Percentile(s, 0.99); p != 10 {
		t.Fatalf("p99 = %v", p)
	}
	if p, _ := Percentile(s, 0.9); p != 9 {
		t.Fatalf("p90 = %v", p)
	}
	if _, n := Percentile(nil, 0.5); n != 0 {
		t.Fatal("percentile of nothing should report 0 samples")
	}
}

func TestWindowReduction(t *testing.T) {
	bounds := []int64{0, 10, 20, 30}
	samples := []Sample{
		{T: 1, V: 100, W: 1}, {T: 9, V: 300, W: 1}, {T: 5, V: 200, W: 1}, // window 0: p50 200
		{T: 10, V: 50, W: 4},                         // window 1: p50 50
		{T: 29, V: 900, W: 2}, {T: 25, V: 700, W: 2}, // window 2: p50 700
		{T: 30, V: 1, W: 1}, {T: -1, V: 1, W: 1}, // outside
	}
	vals, n := PercentilePerWindow(samples, bounds, 0.5)
	if n != 11 {
		t.Fatalf("%d observations in the windows, want 11", n)
	}
	if best, windows := BestOfWindows(vals, false); best != 50 || windows != 3 {
		t.Fatalf("got %v of %d windows, want the lowest of 3, 50", best, windows)
	}
	if best, _ := BestOfWindows(vals, true); best != 700 {
		t.Fatalf("got %v, want the highest window, 700", best)
	}
	// An empty window is skipped, not counted as zero.
	vals, _ = PercentilePerWindow(samples[:3], bounds, 0.5)
	if best, windows := BestOfWindows(vals, false); best != 200 || windows != 1 {
		t.Fatalf("got %v of %d windows, want the one non-empty window", best, windows)
	}

	snaps := []Snapshot{
		{T: 0, Done: 0, CPU: 0, AllocObjs: 0, AllocBytes: 0},
		{T: 1e9, Done: 1000, CPU: 0.5, AllocObjs: 2000, AllocBytes: 64000},
		{T: 3e9, Done: 5000, CPU: 1.5, AllocObjs: 6000, AllocBytes: 128000},
	}
	r := WindowRates(snaps)
	if r.RecsPerS[0] != 1000 || r.RecsPerS[1] != 2000 {
		t.Fatalf("recs/s = %v", r.RecsPerS)
	}
	if r.CPUSPerMrec[0] != 500 || r.CPUSPerMrec[1] != 250 {
		t.Fatalf("cpu-s/Mrec = %v", r.CPUSPerMrec)
	}
	if r.AllocsPerRec[0] != 2 || r.AllocsPerRec[1] != 1 || r.BytesPerRec[1] != 16 {
		t.Fatalf("allocs = %v bytes = %v", r.AllocsPerRec, r.BytesPerRec)
	}
	if r.TotalRecords != 5000 {
		t.Fatalf("total %d records", r.TotalRecords)
	}
}

func TestSeqChecker(t *testing.T) {
	c := NewSeqChecker(2)
	feed := func(sensor int, seqs ...int) {
		for _, s := range seqs {
			c.Observe(sensor, s)
		}
	}
	feed(0, 0, 1, 2, 3)
	feed(1, 0, 1)
	if !c.Clean(false) || c.Seen != 6 {
		t.Fatalf("clean stream flagged: %+v", c)
	}
	feed(0, 7) // 4, 5, 6 lost
	if c.Gaps != 1 || c.GapRecords != 3 || c.Clean(false) || !c.Clean(true) {
		t.Fatalf("gap not classified: %+v", c)
	}
	feed(0, 7) // duplicate
	if c.Dups != 1 || c.Clean(true) {
		t.Fatalf("dup not classified: %+v", c)
	}
	feed(0, 5) // reorder
	if c.Reorders != 1 {
		t.Fatalf("reorder not classified: %+v", c)
	}
	feed(0, 8) // stream continues where it should
	if c.next[0] != 9 || c.Gaps != 1 {
		t.Fatalf("did not resynchronise: next %d, %+v", c.next[0], c)
	}
	// Wrap-around is not a gap.
	w := NewSeqChecker(1)
	w.next[0] = SeqMod - 2
	for _, s := range []int{SeqMod - 2, SeqMod - 1, 0, 1} {
		w.Observe(0, s)
	}
	if !w.Clean(false) {
		t.Fatalf("wrap flagged: %+v", w)
	}
}

func TestTrackerCompletion(t *testing.T) {
	tr := NewTracker(2, 4, 2, 8) // runs of 4, complete when 2 consumers saw all 4
	tr.Offer(1, 8, 1234)
	if ok, _ := tr.Deliver(1, 8, 4); ok {
		t.Fatal("complete after one consumer")
	}
	if ok, _ := tr.Deliver(1, 8, 2); ok {
		t.Fatal("complete after half of the second consumer's copy")
	}
	ok, due := tr.Deliver(1, 10, 2)
	if !ok || due != 1234 || tr.Done() != 4 {
		t.Fatalf("complete=%v due=%d done=%d", ok, due, tr.Done())
	}
	// The slot is reused once the table wraps.
	tr.Offer(1, 8+8*4, 99)
	tr.Deliver(1, 8+8*4, 4)
	if ok, due := tr.Deliver(1, 8+8*4, 4); !ok || due != 99 {
		t.Fatalf("reused slot: complete=%v due=%d", ok, due)
	}
}

func TestSpanSelfTime(t *testing.T) {
	s := NewSpans(16, "target", "callback", "other")
	// One request (trace 7): target [100,200] encloses two callbacks
	// [110,140] and [150,160]; an unrelated trace overlaps in time.
	h := s.Begin(0, 7, 100)
	c1 := s.Begin(1, 7, 110)
	s.End(c1, 140, 4)
	o := s.Begin(2, 9, 120)
	c2 := s.Begin(1, 7, 150)
	s.End(c2, 160, 4)
	s.End(o, 180, 1)
	s.End(h, 200, 4)
	s.Begin(2, 7, 300) // never closed: not in a snapshot
	sp := s.Snapshot()
	if len(sp) != 4 || sp[c1].Parent != int32(h) || sp[c2].Parent != int32(h) || sp[h].Parent != -1 || sp[o].Parent != -1 {
		t.Fatalf("parents: %+v", sp)
	}
	tot := s.Totals(sp)
	if tot[0].TotalNS != 100 || tot[0].SelfNS != 60 || tot[0].Count != 1 {
		t.Fatalf("target totals %+v, want 100 total 60 self", tot[0])
	}
	if tot[1].TotalNS != 40 || tot[1].SelfNS != 40 || tot[1].Count != 2 || tot[1].Records != 8 {
		t.Fatalf("callback totals %+v", tot[1])
	}
	if tot[2].Count != 1 {
		t.Fatalf("unclosed span counted: %+v", tot[2])
	}
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf, sp); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 4 {
		t.Fatalf("%d lines written, want 4:\n%s", n, buf.String())
	}
	// A full log counts what it could not hold.
	f := NewSpans(1, "x")
	f.End(f.Begin(0, 1, 1), 2, 1)
	f.End(f.Begin(0, 1, 3), 4, 1)
	if f.Dropped.Load() != 1 || len(f.Snapshot()) != 1 {
		t.Fatalf("dropped %d recorded %d", f.Dropped.Load(), len(f.Snapshot()))
	}
}

func TestSpecRoundTrip(t *testing.T) {
	s := &Spec{
		Command:    []string{"bash", "cmd/jammbench/run.sh"},
		Paths:      []string{"cmd/jammbench", "internal/benchkit"},
		RunSeconds: 10,
		Workloads:  []SpecLoad{{"a", "because"}, {"b", "because not"}},
		EndToEnd: []SpecMetric{
			{"max_recs_per_s", "1/s", "higher", 0.08},
			{"setup_s", "s", "lower", 0.25},
		},
		PerLayer: []SpecLayer{{"bus.publish_ns_per_rec", "ns", "lower"}},
	}
	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := back.Marshal()
	if !bytes.Equal(data, again) {
		t.Fatalf("round trip changed the file:\n%s\n%s", data, again)
	}
	for name, breakIt := range map[string]func(*Spec){
		"no setup_s":     func(s *Spec) { s.EndToEnd = s.EndToEnd[:1] },
		"wide bound":     func(s *Spec) { s.EndToEnd[0].Bound = 0.3 },
		"duplicate name": func(s *Spec) { s.PerLayer[0].Name = "setup_s" },
		"bad unit":       func(s *Spec) { s.PerLayer[0].Unit = "ns per rec" },
		"one workload":   func(s *Spec) { s.Workloads = s.Workloads[:1] },
		"absolute path":  func(s *Spec) { s.Paths[0] = "/tmp/x" },
		"long run":       func(s *Spec) { s.RunSeconds = 61 },
	} {
		c, _ := ParseSpec(data)
		breakIt(c)
		if c.Validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ParseSpec([]byte(`{"command":["x"],"claim":null}`)); err == nil {
		t.Error("unknown key accepted")
	}
}
