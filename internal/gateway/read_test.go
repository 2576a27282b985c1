package gateway

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jamm/internal/ulm"
)

// TestReadsAreFresh: Query, Sensors and Summary answer from everything
// written before the call, on a clock that never moves, even after the
// deprecated EnableSnapshots asked for an hour of staleness.
func TestReadsAreFresh(t *testing.T) {
	g := New("gw1", func() time.Time { return epoch })
	g.EnableSnapshots(SnapshotOptions{MaxStale: time.Hour})
	g.Register("cpu", Meta{Host: "h1.lbl.gov", Type: "cpu", Interval: time.Second})
	g.EnableSummary("cpu", "E", "VAL", time.Minute)
	for v := 1; v <= 3; v++ {
		g.Publish("cpu", mkRec("E", time.Duration(v)*time.Second, float64(v)))
		rec, found, err := g.Query("", "cpu", "E")
		if err != nil || !found || mustVal(t, rec) != float64(v) {
			t.Fatalf("query after publish %d: %s, found %v, %v", v, rec.String(), found, err)
		}
		if pts, err := g.Summary("", "cpu", "E", "VAL"); err != nil || pts[0].Count != v {
			t.Fatalf("summary after publish %d: %+v, %v", v, pts, err)
		}
		name := fmt.Sprintf("s%d", v)
		g.Register(name, Meta{Host: "h1", Type: "t", Interval: time.Second})
		if !listed(g.Sensors(), name) {
			t.Fatalf("sensor %s registered before the listing is not in it", name)
		}
	}
}

// TestSnapshotStalenessBound: the deprecated MaxStale bounds nothing now.
// A publish is read back at once, inside what was the 200 ms bound, and
// again past it, with the removed cache's counters at 0.
func TestSnapshotStalenessBound(t *testing.T) {
	now := epoch
	g := New("gw1", func() time.Time { return now })
	g.Register("cpu", Meta{Host: "h1.lbl.gov", Type: "cpu", Interval: time.Second})
	g.Publish("cpu", mkRec("VMSTAT_SYS_TIME", 0, 1))
	g.EnableSnapshots(SnapshotOptions{MaxStale: 200 * time.Millisecond})

	if rec, _, _ := g.Query("", "cpu", "VMSTAT_SYS_TIME"); mustVal(t, rec) != 1 {
		t.Fatalf("initial VAL = %g, want 1", mustVal(t, rec))
	}
	g.Publish("cpu", mkRec("VMSTAT_SYS_TIME", time.Second, 2))
	now = now.Add(199 * time.Millisecond)
	if rec, _, _ := g.Query("", "cpu", "VMSTAT_SYS_TIME"); mustVal(t, rec) != 2 {
		t.Fatalf("inside the old bound VAL = %g, want fresh 2", mustVal(t, rec))
	}
	g.Publish("cpu", mkRec("VMSTAT_SYS_TIME", 2*time.Second, 3))
	now = now.Add(2 * time.Millisecond)
	if rec, _, _ := g.Query("", "cpu", "VMSTAT_SYS_TIME"); mustVal(t, rec) != 3 {
		t.Fatalf("past the old bound VAL = %g, want fresh 3", mustVal(t, rec))
	}
	if st := g.Stats(); st.SnapshotHits != 0 || st.SnapshotMisses != 0 {
		t.Fatalf("snapshot counters %d hits, %d misses, want 0 and 0", st.SnapshotHits, st.SnapshotMisses)
	}
}

// TestSnapshotSummaryPath: after the deprecated EnableSnapshots, Summary
// reads its current slots: a repeat read counts a sample published in
// between, and a series enabled later answers at once.
func TestSnapshotSummaryPath(t *testing.T) {
	now := epoch
	g := New("gw1", func() time.Time { return now })
	g.Register("cpu", Meta{Host: "h1", Type: "cpu", Interval: time.Second})
	g.EnableSummary("cpu", "E", "VAL", time.Minute)
	for i := 0; i < 10; i++ {
		g.Publish("cpu", mkRec("E", time.Duration(i)*time.Second, float64(i)))
	}
	g.EnableSnapshots(SnapshotOptions{MaxStale: time.Hour})

	pts, err := g.Summary("", "cpu", "E", "VAL")
	if err != nil || len(pts) != 1 {
		t.Fatalf("summary: %d points, err=%v", len(pts), err)
	}
	if pts[0].Count != 10 {
		t.Fatalf("summary count = %d, want 10", pts[0].Count)
	}
	g.Publish("cpu", mkRec("E", 10*time.Second, 10))
	if pts, err = g.Summary("", "cpu", "E", "VAL"); err != nil || len(pts) != 1 || pts[0].Count != 11 {
		t.Fatalf("second summary: %+v, err=%v, want a count of 11", pts, err)
	}
	if st := g.Stats(); st.SnapshotHits != 0 || st.SnapshotMisses != 0 {
		t.Fatalf("snapshot counters %d hits, %d misses, want 0 and 0", st.SnapshotHits, st.SnapshotMisses)
	}

	g.EnableSummary("cpu", "E2", "VAL", time.Minute)
	g.Publish("cpu", mkRec("E2", time.Second, 5))
	pts, err = g.Summary("", "cpu", "E2", "VAL")
	if err != nil || len(pts) != 1 || pts[0].Count != 1 {
		t.Fatalf("series enabled later: %d points, err=%v", len(pts), err)
	}
}

func listed(infos []SensorInfo, name string) bool {
	for _, si := range infos {
		if si.Name == name {
			return true
		}
	}
	return false
}

// TestQueryUnknownSensorOrEvent: an unknown sensor is an error, a known
// sensor's unknown event is found=false, and a sensor registered after
// a read is answered by the next.
func TestQueryUnknownSensorOrEvent(t *testing.T) {
	g := New("gw1", func() time.Time { return epoch })
	g.Register("cpu", Meta{Host: "h1.lbl.gov", Type: "cpu", Interval: time.Second})
	g.Publish("cpu", mkRec("E", 0, 1))
	g.Query("", "cpu", "E")

	g.Register("mem", Meta{Host: "h1.lbl.gov", Type: "mem", Interval: time.Second})
	g.Publish("mem", mkRec("E", 0, 7))
	if rec, found, err := g.Query("", "mem", "E"); err != nil || !found || mustVal(t, rec) != 7 {
		t.Fatalf("sensor registered after a read: %s, found %v, %v", rec.String(), found, err)
	}
	if _, _, err := g.Query("", "ghost", "E"); err == nil {
		t.Fatal("unknown sensor: want error")
	}
	if _, found, err := g.Query("", "cpu", "NOPE"); err != nil || found {
		t.Fatalf("unknown event: found=%v err=%v", found, err)
	}
	g.Unregister("cpu")
	if _, _, err := g.Query("", "cpu", "E"); err == nil {
		t.Fatal("unregistered sensor: want error")
	}
}

// TestSensorsListingFollowsChurn: the listing is sorted by name and
// shows every registration change made before it.
func TestSensorsListingFollowsChurn(t *testing.T) {
	g := New("gw1", func() time.Time { return epoch })
	for i := 0; i < 20; i++ {
		g.Register(fmt.Sprintf("s%02d", i), Meta{Host: "h1", Type: "t", Interval: time.Second})
	}
	got := g.Sensors()
	if len(got) != 20 {
		t.Fatalf("sensors = %d, want 20", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Name >= got[i].Name {
			t.Fatalf("listing unsorted at %d: %q >= %q", i, got[i-1].Name, got[i].Name)
		}
	}
	g.Unregister("s07")
	g.Register("zz", Meta{Host: "h1", Type: "t", Interval: time.Second})
	got = g.Sensors()
	if listed(got, "s07") || !listed(got, "zz") || len(got) != 20 {
		t.Fatalf("post-churn listing wrong: len=%d s07=%v zz=%v", len(got), listed(got, "s07"), listed(got, "zz"))
	}
}

// TestReadsUnderChurn hammers the locked read paths from concurrent
// publishers, registration churn and readers (run with -race). Every
// Query returns a VAL no smaller than the last one its publisher had
// finished before the read began, and every Summary, read while
// publishes fold into and age out its slots, is consistent with itself.
func TestReadsUnderChurn(t *testing.T) {
	var tick atomic.Int64
	g := New("gw1", func() time.Time {
		return epoch.Add(time.Duration(tick.Add(1)) * time.Millisecond)
	})
	const sensors = 8
	for i := 0; i < sensors; i++ {
		name := fmt.Sprintf("s%d", i)
		g.Register(name, Meta{Host: "h1", Type: "t", Interval: time.Second})
		g.EnableSummary(name, "E", "VAL", 5*time.Millisecond, 20*time.Millisecond)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	done := make([]atomic.Int64, sensors)
	for i := 0; i < sensors; i++ {
		wg.Add(1)
		go func(i int) { // publisher: increasing VALs
			defer wg.Done()
			name := fmt.Sprintf("s%d", i)
			// The floor makes every sensor publish even on GOMAXPROCS=1,
			// where a goroutine may first run after stop is set.
			for v := int64(1); v <= 64 || !stop.Load(); v++ {
				g.Publish(name, mkRec("E", time.Duration(v), float64(v)))
				done[i].Store(v)
			}
		}(i)
	}
	wg.Add(1)
	go func() { // churn: a sensor that registers and unregisters
		defer wg.Done()
		for n := 0; !stop.Load(); n++ {
			g.Register("churn", Meta{Host: "h1", Type: "t", Interval: time.Second})
			g.Publish("churn", mkRec("E", time.Duration(n), float64(n)))
			g.Unregister("churn")
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() { // readers
			defer wg.Done()
			for !stop.Load() {
				for i := 0; i < sensors; i++ {
					name := fmt.Sprintf("s%d", i)
					floor := done[i].Load()
					rec, found, err := g.Query("", name, "E")
					if err != nil {
						t.Errorf("query %s: %v", name, err)
						return
					}
					if v, _ := rec.Float("VAL"); floor > 0 && (!found || v < float64(floor)) {
						t.Errorf("query %s after VAL=%d finished: %s, found %v", name, floor, rec.String(), found)
						return
					}
					pts, err := g.Summary("", name, "E", "VAL")
					if err != nil || len(pts) != 2 || pts[0].Count > pts[1].Count {
						t.Errorf("summary %s: %+v, %v", name, pts, err)
						return
					}
					for _, pt := range pts {
						if pt.Count > 0 && (pt.Min > pt.Avg || pt.Avg > pt.Max) {
							t.Errorf("summary %s: torn window %+v", name, pt)
							return
						}
					}
				}
				g.Sensors()
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
}

// TestSummaryAllocsIndependentOfWindow: a summary read allocates the
// points it returns, nothing per sample: the same with 16 samples in the
// window as with 4096.
func TestSummaryAllocsIndependentOfWindow(t *testing.T) {
	read := func(samples int) (allocs float64, bytes uint64) {
		g := New("gw", func() time.Time { return epoch })
		g.EnableSummary("cpu", "E", "VAL")
		recs := make([]ulm.Record, samples)
		for i := range recs {
			recs[i] = mkRec("E", 0, float64(i))
		}
		g.PublishBatch("cpu", recs)
		call := func() {
			if pts, err := g.Summary("", "cpu", "E", "VAL"); err != nil || pts[0].Count != samples {
				t.Fatalf("summary: %+v, %v", pts, err)
			}
		}
		allocs = testing.AllocsPerRun(100, call)
		const rounds = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / rounds
	}
	smallAllocs, smallBytes := read(16)
	bigAllocs, bigBytes := read(4096)
	t.Logf("a summary read allocates %.0f objects, %d bytes over 16 samples; %.0f, %d bytes over 4096", smallAllocs, smallBytes, bigAllocs, bigBytes)
	if bigAllocs != smallAllocs || bigBytes > smallBytes+64 {
		t.Fatalf("over 4096 samples a summary read allocates %.0f objects, %d bytes; over 16, %.0f and %d", bigAllocs, bigBytes, smallAllocs, smallBytes)
	}
}
