package gateway

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"jamm/internal/ulm"
)

// TestSnapshotWaitFreeReads is the tentpole contract check: with the
// cache warm and the clock frozen inside the staleness bound, a hot
// Query loop takes ZERO producer-shard locks — every read is a
// snapshot hit, no misses, no further refreshes.
func TestSnapshotWaitFreeReads(t *testing.T) {
	now := epoch
	g := New("gw1", func() time.Time { return now })
	g.Register("cpu", Meta{Host: "h1.lbl.gov", Type: "cpu", Interval: time.Second})
	g.Publish("cpu", mkRec("VMSTAT_SYS_TIME", time.Second, 42))
	g.EnableSnapshots(SnapshotOptions{MaxStale: 250 * time.Millisecond})

	// Warm the shard: the first read pays the refresh.
	if _, found, err := g.Query("", "cpu", "VMSTAT_SYS_TIME"); err != nil || !found {
		t.Fatalf("warm-up query: found=%v err=%v", found, err)
	}
	base := g.Stats()
	if base.SnapshotRefreshes == 0 {
		t.Fatal("warm-up refreshed nothing")
	}

	const N = 1000
	for i := 0; i < N; i++ {
		rec, found, err := g.Query("", "cpu", "VMSTAT_SYS_TIME")
		if err != nil || !found {
			t.Fatalf("query %d: found=%v err=%v", i, found, err)
		}
		if v, _ := rec.Float("VAL"); v != 42 {
			t.Fatalf("query %d: VAL=%g, want 42", i, v)
		}
	}

	st := g.Stats()
	if got := st.SnapshotHits - base.SnapshotHits; got != N {
		t.Errorf("SnapshotHits delta = %d, want %d", got, N)
	}
	if got := st.SnapshotMisses - base.SnapshotMisses; got != 0 {
		t.Errorf("SnapshotMisses delta = %d, want 0", got)
	}
	if got := st.ReadShardLocks - base.ReadShardLocks; got != 0 {
		t.Errorf("ReadShardLocks delta = %d, want 0 (reads took shard locks)", got)
	}
	if got := st.SnapshotRefreshes - base.SnapshotRefreshes; got != 0 {
		t.Errorf("SnapshotRefreshes delta = %d, want 0 (clock never advanced)", got)
	}
}

// TestSnapshotStalenessBound pins the coherence contract: a value
// published after the snapshot was captured is invisible until the
// clock passes the staleness bound, then exactly one refresh serves it.
func TestSnapshotStalenessBound(t *testing.T) {
	now := epoch
	g := New("gw1", func() time.Time { return now })
	g.Register("cpu", Meta{Host: "h1.lbl.gov", Type: "cpu", Interval: time.Second})
	g.Publish("cpu", mkRec("VMSTAT_SYS_TIME", 0, 1))
	g.EnableSnapshots(SnapshotOptions{MaxStale: 200 * time.Millisecond})

	if rec, _, _ := g.Query("", "cpu", "VMSTAT_SYS_TIME"); mustVal(t, rec) != 1 {
		t.Fatalf("initial VAL = %g, want 1", mustVal(t, rec))
	}

	// New publish; snapshot still fresh → reads stay on the old value.
	g.Publish("cpu", mkRec("VMSTAT_SYS_TIME", time.Second, 2))
	now = now.Add(199 * time.Millisecond)
	rec, _, _ := g.Query("", "cpu", "VMSTAT_SYS_TIME")
	if mustVal(t, rec) != 1 {
		t.Fatalf("inside bound VAL = %g, want stale 1", mustVal(t, rec))
	}

	// Cross the bound: the next read refreshes and sees the publish.
	before := g.Stats().SnapshotRefreshes
	now = now.Add(2 * time.Millisecond)
	rec, _, _ = g.Query("", "cpu", "VMSTAT_SYS_TIME")
	if mustVal(t, rec) != 2 {
		t.Fatalf("past bound VAL = %g, want fresh 2", mustVal(t, rec))
	}
	if got := g.Stats().SnapshotRefreshes - before; got != 1 {
		t.Fatalf("refreshes past bound = %d, want 1", got)
	}
}

// TestSnapshotMissFallsBack: sensors the snapshot does not hold —
// registered inside the staleness window, or never registered — must
// answer from the authoritative locked path, not the stale snapshot.
func TestSnapshotMissFallsBack(t *testing.T) {
	now := epoch
	g := New("gw1", func() time.Time { return now })
	g.Register("cpu", Meta{Host: "h1.lbl.gov", Type: "cpu", Interval: time.Second})
	g.Publish("cpu", mkRec("E", 0, 1))
	g.EnableSnapshots(SnapshotOptions{MaxStale: time.Hour})
	g.Query("", "cpu", "E") // warm every touched shard

	// Registered after the snapshot was captured, same shard or not:
	// the read must still find it.
	g.Register("mem", Meta{Host: "h1.lbl.gov", Type: "mem", Interval: time.Second})
	g.Publish("mem", mkRec("E", 0, 7))
	rec, found, err := g.Query("", "mem", "E")
	if err != nil || !found {
		t.Fatalf("fresh sensor: found=%v err=%v", found, err)
	}
	if mustVal(t, rec) != 7 {
		t.Fatalf("fresh sensor VAL = %g, want 7", mustVal(t, rec))
	}

	// Unknown sensors keep erroring (the error path is authoritative).
	if _, _, err := g.Query("", "ghost", "E"); err == nil {
		t.Fatal("unknown sensor: want error")
	}

	// Known sensor, event the snapshot holds nothing for: found=false.
	if _, found, err := g.Query("", "cpu", "NOPE"); err != nil || found {
		t.Fatalf("unknown event: found=%v err=%v", found, err)
	}
}

// TestSnapshotSensors checks the listing fast path agrees with the
// authoritative one as registrations churn past the staleness bound.
func TestSnapshotSensors(t *testing.T) {
	now := epoch
	g := New("gw1", func() time.Time { return now })
	for i := 0; i < 20; i++ {
		g.Register(fmt.Sprintf("s%02d", i), Meta{Host: "h1", Type: "t", Interval: time.Second})
	}
	g.EnableSnapshots(SnapshotOptions{MaxStale: 100 * time.Millisecond})

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
	now = now.Add(time.Second) // past the bound: refresh must see churn
	got = g.Sensors()
	names := make(map[string]bool, len(got))
	for _, si := range got {
		names[si.Name] = true
	}
	if names["s07"] || !names["zz"] || len(got) != 20 {
		t.Fatalf("post-churn listing wrong: len=%d s07=%v zz=%v", len(got), names["s07"], names["zz"])
	}
}

// TestSnapshotSummaryPath: Summary rides the snapshot once warm, and
// series enabled inside the staleness window fall back (served
// authoritatively) instead of answering "no such summary".
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
	base := g.Stats()
	if _, err := g.Summary("", "cpu", "E", "VAL"); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.SnapshotHits == base.SnapshotHits {
		t.Error("second summary read did not hit the snapshot")
	}
	if st.ReadShardLocks != base.ReadShardLocks {
		t.Error("snapshot summary read took a lock")
	}

	// A series enabled after capture answers via fallback.
	g.EnableSummary("cpu", "E2", "VAL", time.Minute)
	g.Publish("cpu", mkRec("E2", time.Second, 5))
	pts, err = g.Summary("", "cpu", "E2", "VAL")
	if err != nil || len(pts) != 1 || pts[0].Count != 1 {
		t.Fatalf("fresh series via fallback: %d points, err=%v", len(pts), err)
	}
}

// TestSnapshotCoherenceUnderChurn hammers the cache from concurrent
// publishers, registration churn, and readers (run with -race). Every
// read must return either a value the sensor actually published or a
// clean miss — never a torn record — and after quiescing past the
// staleness bound, reads converge on the final published value.
func TestSnapshotCoherenceUnderChurn(t *testing.T) {
	var tick atomic.Int64
	g := New("gw1", func() time.Time {
		return epoch.Add(time.Duration(tick.Add(1)) * time.Millisecond)
	})
	g.EnableSnapshots(SnapshotOptions{MaxStale: 5 * time.Millisecond})

	const sensors = 8
	for i := 0; i < sensors; i++ {
		g.Register(fmt.Sprintf("s%d", i), Meta{Host: "h1", Type: "t", Interval: time.Second})
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	final := make([]atomic.Int64, sensors)

	for i := 0; i < sensors; i++ {
		wg.Add(1)
		go func(i int) { // publisher: monotone VALs
			defer wg.Done()
			name := fmt.Sprintf("s%d", i)
			// The floor guarantees every sensor publishes even on
			// GOMAXPROCS=1, where a late-scheduled goroutine may first
			// run after stop is already set.
			for v := int64(1); v <= 64 || !stop.Load(); v++ {
				g.Publish(name, mkRec("E", time.Duration(v), float64(v)))
				final[i].Store(v)
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
					rec, found, err := g.Query("", fmt.Sprintf("s%d", i), "E")
					if err != nil {
						t.Errorf("query s%d: %v", i, err)
						return
					}
					if found {
						if _, err := rec.Float("VAL"); err != nil {
							t.Errorf("torn record on s%d: %v", i, err)
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

	tick.Add(10_000) // leap far past the staleness bound
	for i := 0; i < sensors; i++ {
		rec, found, err := g.Query("", fmt.Sprintf("s%d", i), "E")
		if err != nil || !found {
			t.Fatalf("final query s%d: found=%v err=%v", i, found, err)
		}
		want := float64(final[i].Load())
		if got := mustVal(t, rec); got != want {
			t.Fatalf("s%d converged to %g, want %g", i, got, want)
		}
	}
}

// TestSummarySnapshotRefreshSteadyAllocs: once warm, a refresh of the
// summary snapshot allocates what it publishes — a few words per
// series — and nothing per sample: every series' window is copied
// through the refresher's one scratch buffer.
func TestSummarySnapshotRefreshSteadyAllocs(t *testing.T) {
	const series, samples = 8, 4096
	now := epoch
	g := New("gw1", func() time.Time { return now })
	recs := make([]ulm.Record, samples)
	for i := range recs {
		recs[i] = mkRec("E", 0, float64(i))
	}
	for s := 0; s < series; s++ {
		name := fmt.Sprintf("s%d", s)
		g.EnableSummary(name, "E", "VAL", time.Hour)
		g.PublishBatch(name, recs)
	}
	g.EnableSnapshots(SnapshotOptions{MaxStale: time.Hour})
	sc := g.snaps.Load()
	if pts := sc.refreshSummaries(g, now).points[summaryKey{"s0", "E", "VAL"}]; len(pts) != 1 || pts[0].Count != samples {
		t.Fatalf("warm-up refresh: %+v", pts)
	}
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		sc.refreshSummaries(g, now)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / rounds
	allocs := (after.Mallocs - before.Mallocs) / rounds
	windows := uint64(series * samples * int(unsafe.Sizeof(sample{})))
	if bytes > series*1024 || allocs > series*4+8 {
		t.Fatalf("a refresh of %d series allocates %d bytes in %d objects; their sample windows hold %d bytes", series, bytes, allocs, windows)
	}
}
