package gateway

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"jamm/internal/ulm"
	"jamm/internal/window"
)

// floorTo rounds t down to a multiple of w, before the epoch too.
func floorTo(t, w int64) int64 { return t - ((t%w)+w)%w }

// slotOracle computes what Summary promises for one window straight
// from the samples: every sample kept at the time it counts at.
type slotOracle struct {
	window time.Duration
	width  int64 // ⌈window/60⌉
	times  []int64
	values []float64
}

func (o *slotOracle) add(t int64, v float64) {
	o.times = append(o.times, t)
	o.values = append(o.values, v)
}

// seed places a handed-off slot's samples where the promise puts them:
// at its start, at the current slot when it starts past it, and nowhere
// when its slot is already out of the 60.
func (o *slotOracle) seed(start, now int64, vals []float64) {
	cur := floorTo(now, o.width)
	if floorTo(start, o.width) > cur {
		start = cur
	}
	if floorTo(start, o.width) <= cur-60*o.width {
		return
	}
	for _, v := range vals {
		o.add(start, v)
	}
}

// answer is the exact statistic over the samples whose slot is one of
// the 60 most recent at now, the current one counted.
func (o *slotOracle) answer(now int64) SummaryPoint {
	cur := floorTo(now, o.width)
	pt := SummaryPoint{Window: o.window}
	var sum float64
	for i, v := range o.values {
		if a := floorTo(o.times[i], o.width); a <= cur-60*o.width || a > cur {
			continue
		}
		if pt.Count == 0 || v < pt.Min {
			pt.Min = v
		}
		if pt.Count == 0 || v > pt.Max {
			pt.Max = v
		}
		sum += v
		pt.Count++
	}
	if pt.Count > 0 {
		pt.Avg = sum / float64(pt.Count)
	}
	return pt
}

// statOf is the statistic of vals, computed by hand.
func statOf(vals []float64) window.Stat {
	s := window.Stat{Count: uint64(len(vals)), Min: vals[0], Max: vals[0]}
	for _, v := range vals {
		s.Sum += v
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	return s
}

// TestSummaryMatchesSlotOracle: over seeded random streams — several
// window sets, quiet gaps longer than a window, samples on slot
// boundaries, NaN and ±Inf among the values, and handed-off slots out of
// order, out of the ring and ahead of the clock — every Summary answer
// is the exact statistic over the window's 60 most recent slots: the
// same count, min and max, and the same avg to within rounding.
func TestSummaryMatchesSlotOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for series := 0; series < 200; series++ {
		var windows []time.Duration
		for n := 1 + rng.Intn(3); len(windows) < n; {
			if w := time.Duration(1+rng.Intn(600)) * 100 * time.Millisecond; !slices.Contains(windows, w) {
				windows = append(windows, w)
			}
		}
		slices.Sort(windows)
		largest := int64(windows[len(windows)-1])
		now := epoch.Add(time.Duration(rng.Int63n(int64(time.Hour))))
		g := New("gw", func() time.Time { return now })
		g.EnableSummary("cpu", "E", "VAL", windows...)
		oracles := make([]slotOracle, len(windows))
		for i, w := range windows {
			oracles[i] = slotOracle{window: w, width: (int64(w) + 59) / 60}
		}
		for step := 0; step < 300; step++ {
			switch k := rng.Intn(20); {
			case k == 0: // a quiet gap, up to twice the largest window
				now = now.Add(time.Duration(rng.Int63n(2 * largest)))
			case k < 3: // onto the next slot boundary of one window
				w := oracles[rng.Intn(len(oracles))].width
				if b := floorTo(now.UnixNano(), w); b < now.UnixNano() {
					now = time.Unix(0, b+w).UTC()
				}
			case k < 5: // a handoff seed, one ring per window
				at := now.UnixNano()
				s := SummarySeries{Event: "E", Field: "VAL"}
				for i, w := range windows {
					o := &oracles[i]
					var slots []window.Slot
					for n := rng.Intn(5); n > 0; n-- {
						start := at + rng.Int63n(70*o.width) - 65*o.width
						if rng.Intn(3) == 0 {
							start = floorTo(start, o.width)
						}
						vals := make([]float64, 1+rng.Intn(3))
						for j := range vals {
							vals[j] = rng.Float64()*2000 - 1000
						}
						slots = append(slots, window.Slot{Start: start, Stat: statOf(vals)})
						o.seed(start, at, vals)
					}
					rng.Shuffle(len(slots), func(a, b int) { slots[a], slots[b] = slots[b], slots[a] })
					s.WindowsMS = append(s.WindowsMS, w.Milliseconds())
					s.Slots = append(s.Slots, window.Encode(slots, false))
				}
				if err := g.SeedState("cpu", []SummarySeries{s}, ""); err != nil {
					t.Fatalf("series %d: seed %+v: %v", series, s, err)
				}
			default: // a published batch, not all of it a measurement
				now = now.Add(time.Duration(rng.Int63n(largest / 20)))
				recs := make([]ulm.Record, 1+rng.Intn(4))
				for j := range recs {
					v := rng.Float64()*2000 - 1000
					switch rng.Intn(8) {
					case 0:
						v = math.NaN()
					case 1:
						v = math.Inf(1 - 2*rng.Intn(2))
					}
					recs[j] = mkRec("E", 0, v)
					for i := range oracles {
						if window.Finite(v) { // the others are no measurement
							oracles[i].add(now.UnixNano(), v)
						}
					}
				}
				g.PublishBatch("cpu", recs)
			}
			if rng.Intn(4) != 0 {
				continue
			}
			got, err := g.Summary("", "cpu", "E", "VAL")
			if err != nil || len(got) != len(windows) {
				t.Fatalf("series %d: summary %+v, %v", series, got, err)
			}
			for i := range oracles {
				gp, w := got[i], oracles[i].answer(now.UnixNano())
				if gp.Window != w.Window || gp.Count != w.Count || gp.Min != w.Min || gp.Max != w.Max || math.Abs(gp.Avg-w.Avg) > 1e-6 {
					t.Fatalf("series %d, step %d, window %v: got %+v, want %+v", series, step, w.Window, gp, w)
				}
			}
		}
	}
}

// TestSummaryHoldsBoundedSlots: a 1 kHz series run for two virtual
// hours lives in 180 slots, 60 for each default window, and each
// window answers from its last 60 slots of samples.
func TestSummaryHoldsBoundedSlots(t *testing.T) {
	now := epoch
	g := New("gw", func() time.Time { return now })
	g.EnableSummary("cpu", "E", "VAL")
	second := make([]ulm.Record, 1000)
	for i := range second {
		second[i] = mkRec("E", 0, float64(i%10))
	}
	const seconds = 2 * 3600
	for s := 0; s < seconds; s++ {
		now = epoch.Add(time.Duration(s) * time.Second)
		g.PublishBatch("cpu", second)
	}
	g.sumMu.Lock()
	st := g.summaries[summaryKey{"cpu", "E", "VAL"}]
	g.sumMu.Unlock()
	slots := 0
	st.mu.Lock()
	for _, r := range st.rings {
		for range r.Live(now.UnixNano()) {
			slots++
		}
	}
	st.mu.Unlock()
	if slots > 180 {
		t.Fatalf("%d live slots, want at most 180", slots)
	}
	pts, err := g.Summary("", "cpu", "E", "VAL")
	if err != nil || len(pts) != 3 {
		t.Fatalf("summary %+v, %v", pts, err)
	}
	// The last second is 7199; the windows' current slots start at 7199,
	// 7190 and 7140 s, and each window reaches 59 slots further back.
	for i, want := range []int{60 * 1000, 600 * 1000, 3600 * 1000} {
		if p := pts[i]; p.Count != want || p.Min != 0 || p.Max != 9 || p.Avg != 4.5 {
			t.Errorf("window %v: %+v, want %d samples of 0..9", p.Window, p, want)
		}
	}
}

// TestSummaryFoldAllocs: once a series' slots exist, a fold allocates
// nothing, however long the series runs.
func TestSummaryFoldAllocs(t *testing.T) {
	now := epoch
	g := New("gw", func() time.Time { return now })
	st := g.summary(summaryKey{"cpu", "E", "VAL"}, nil, true)
	recs := []ulm.Record{mkRec("E", 0, 1), mkRec("E", 0, 2)}
	if a := testing.AllocsPerRun(1000, func() {
		now = now.Add(100 * time.Millisecond)
		st.addBatch(now, "E", "VAL", recs)
	}); a != 0 {
		t.Fatalf("a warm fold allocates %.1f objects, want 0", a)
	}
}

// TestSeedStateMergesIntoLiveSeries: a new owner that already
// summarizes the series keeps what it folded live and adds the
// handed-off slots to it; a series it does not have yet is created with
// the handed-off windows.
func TestSeedStateMergesIntoLiveSeries(t *testing.T) {
	now := epoch.Add(90 * time.Second)
	g := New("gw", func() time.Time { return now })
	g.EnableSummary("cpu", "E", "VAL", time.Minute)
	for v := 1; v <= 3; v++ {
		g.Publish("cpu", mkRec("E", 0, float64(v)))
	}
	slot := func(at time.Duration, vals ...float64) string {
		return window.Encode([]window.Slot{{Start: epoch.Add(at).UnixNano(), Stat: statOf(vals)}}, false)
	}
	err := g.SeedState("cpu", []SummarySeries{
		{Event: "E", Field: "VAL", WindowsMS: []int64{60000}, Slots: []string{slot(80*time.Second, 10)}},
		{Event: "F", WindowsMS: []int64{60000, 3600000}, Slots: []string{slot(85*time.Second, 4, 6), slot(0, 7)}},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	pts, err := g.Summary("", "cpu", "E", "VAL")
	if err != nil || len(pts) != 1 || pts[0] != (SummaryPoint{Window: time.Minute, Avg: 4, Min: 1, Max: 10, Count: 4}) {
		t.Fatalf("live series after the seed: %+v, %v; want 3 live samples and 1 seeded", pts, err)
	}
	pts, err = g.Summary("", "cpu", "F", "")
	if err != nil || len(pts) != 2 || pts[0] != (SummaryPoint{Window: time.Minute, Avg: 5, Min: 4, Max: 6, Count: 2}) ||
		pts[1] != (SummaryPoint{Window: time.Hour, Avg: 7, Min: 7, Max: 7, Count: 1}) {
		t.Fatalf("seeded series: %+v, %v", pts, err)
	}
}

// TestSeedStateRefusesInvalid: a seed_state carrying what no drain
// produces answers ok:false and leaves the series as it was, summaries
// and aggregate alike.
func TestSeedStateRefusesInvalid(t *testing.T) {
	g, srv := startServer(t)
	g.EnableSummary("cpu", "E", "VAL", time.Minute)
	g.Publish("cpu", mkRec("E", 0, 5))
	c := NewClient("", srv.Addr())
	defer c.Close()
	start := strconv.FormatInt(time.Now().UnixNano(), 10)
	valid := start + ":1:7:7:7"
	one := func(windowsMS []int64, slots ...string) []SummarySeries {
		return []SummarySeries{{Event: "E", Field: "VAL", WindowsMS: windowsMS, Slots: slots}}
	}
	for _, tc := range []struct {
		name   string
		series []SummarySeries
		agg    string
	}{
		{"negative window", one([]int64{-5}), ""},
		{"zero window", one([]int64{0}), ""},
		{"window past a time.Duration", one([]int64{math.MaxInt64/int64(time.Millisecond) + 1}), ""},
		{"more rings than windows", one([]int64{60000}, valid, valid), ""},
		{"slot that does not parse", one([]int64{60000}, "x"), ""},
		{"count-only slot", one([]int64{60000}, start+":1"), ""},
		{"non-finite slot", one([]int64{60000}, start+":1:NaN:1:1"), ""},
		{"infinite min", one([]int64{60000}, start+":1:1:-Inf:1"), ""},
		{"empty slot", one([]int64{60000}, start+":0:0:0:0"), ""},
		{"min above max", one([]int64{60000}, start+":2:3:2:1"), ""},
		{"aggregate slot that does not parse", one([]int64{60000}, valid), "x"},
	} {
		if err := c.SeedState("cpu", tc.series, tc.agg); err == nil {
			t.Errorf("%s: seed_state accepted", tc.name)
		}
		pts, err := g.Summary("", "cpu", "E", "VAL")
		if err != nil || len(pts) != 1 || pts[0] != (SummaryPoint{Window: time.Minute, Avg: 5, Min: 5, Max: 5, Count: 1}) {
			t.Fatalf("%s: summary after the refused seed %+v, %v; want it untouched", tc.name, pts, err)
		}
	}
	if err := c.SeedState("cpu", one([]int64{60000}, valid), ""); err != nil {
		t.Fatal(err)
	}
	if pts, err := g.Summary("", "cpu", "E", "VAL"); err != nil || pts[0].Count != 2 || pts[0].Max != 7 {
		t.Fatalf("summary after a valid seed %+v, %v; want the seeded sample added", pts, err)
	}
}

// TestSeedStateWhilePublishing: seeds that merge into a series while
// publishers fold into it lose no sample of either (run with -race).
func TestSeedStateWhilePublishing(t *testing.T) {
	g := New("gw", func() time.Time { return epoch })
	g.EnableSummary("cpu", "E", "VAL", time.Minute)
	seed := []SummarySeries{{Event: "E", Field: "VAL", WindowsMS: []int64{60000},
		Slots: []string{window.Encode([]window.Slot{{Start: epoch.UnixNano(), Stat: statOf([]float64{1})}}, false)}}}
	const publishers, seeds, each = 2, 2, 200
	var wg sync.WaitGroup
	for p := 0; p < publishers+seeds; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if p < publishers {
					g.Publish("cpu", mkRec("E", 0, 1))
				} else if err := g.SeedState("cpu", seed, ""); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	pts, err := g.Summary("", "cpu", "E", "VAL")
	if err != nil || pts[0].Count != (publishers+seeds)*each {
		t.Fatalf("summary %+v, %v; want %d samples", pts, err, (publishers+seeds)*each)
	}
}
