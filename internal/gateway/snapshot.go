package gateway

// Read-side snapshot cache: per-shard read-optimized copies of the
// producer state, swapped atomically, so the hot read requests
// (Query, Sensors, Summary) run wait-free — an atomic pointer load and
// a map lookup, zero producer-shard lock acquisitions — while the
// publish path keeps the shard locks to itself.
//
// Coherence model: readers pull. Every snapshot carries the time it
// was captured (asOf) and the shard mutation counter it reflects
// (ver). A reader finding its shard's snapshot older than the
// configured staleness bound races one CAS to become the refresher;
// the winner rebuilds the snapshot — taking the shard lock like any
// writer, but once per staleness interval instead of once per read —
// and every loser keeps serving the previous snapshot rather than
// blocking. An idle shard (ver unchanged) revalidates with a pointer
// swap, no lock and no copy. Served answers are therefore at most
// MaxStale old, plus the duration of an in-flight refresh.
//
// What the snapshot does NOT serve, falling back to the authoritative
// locked path instead (counted as SnapshotMisses): sensors absent from
// the snapshot (registered inside the staleness window, or never
// registered — the error path must be authoritative), summary series
// absent from the summary snapshot, and any read arriving before the
// first refresh completes. The fallback path is the pre-snapshot code
// and counts its lock acquisitions in Stats.ReadShardLocks; refresh
// passes count in Stats.SnapshotRefreshes, not ReadShardLocks — they
// are the amortized cost, paid per staleness interval, not per read.

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jamm/internal/bus"
	"jamm/internal/ulm"
)

// DefaultSnapshotMaxStale is the staleness bound EnableSnapshots
// applies when SnapshotOptions leaves MaxStale unset: short enough
// that a dashboard never notices, long enough that a read storm
// amortizes to a handful of refreshes per second per shard.
const DefaultSnapshotMaxStale = 250 * time.Millisecond

// SnapshotOptions tunes the read-side snapshot cache.
type SnapshotOptions struct {
	// MaxStale bounds how old a served snapshot may be. A read finding
	// its shard's snapshot older triggers a refresh (one reader
	// rebuilds, the rest keep serving the old snapshot, so the
	// effective bound is MaxStale plus one refresh duration). <= 0
	// selects DefaultSnapshotMaxStale.
	MaxStale time.Duration
	// BackgroundRefresh moves refreshing off the read path entirely:
	// one ticker goroutine (period MaxStale/2) re-snapshots every
	// shard — idle shards revalidate with a pointer swap, no lock, no
	// copy — so a warm read is a pure atomic load with zero time.Now
	// calls and zero staleness arithmetic. Reads arriving before the
	// first pass still refresh-on-demand, so cold behavior is
	// unchanged. Stop the goroutine with StopSnapshotRefresh at
	// shutdown.
	BackgroundRefresh bool
}

// EnableSnapshots turns on the read-side snapshot cache. Queries,
// sensor listings and summaries are then served from atomically
// swapped per-shard snapshots — wait-free, no producer-shard locks —
// at the cost of answers up to opts.MaxStale old. Enabling replaces
// any previous cache (all snapshots start cold).
func (g *Gateway) EnableSnapshots(opts SnapshotOptions) {
	if opts.MaxStale <= 0 {
		opts.MaxStale = DefaultSnapshotMaxStale
	}
	sc := &snapshotCache{maxStale: opts.MaxStale, background: opts.BackgroundRefresh}
	if opts.BackgroundRefresh {
		sc.stop = make(chan struct{})
		go sc.runRefresher(g)
	}
	if old := g.snaps.Swap(sc); old != nil {
		old.stopRefresher()
	}
}

// StopSnapshotRefresh stops the background refresher goroutine, if
// BackgroundRefresh started one. Snapshots remain enabled and serve
// their last state; reads never refresh warm shards in background
// mode, so call this only at shutdown.
func (g *Gateway) StopSnapshotRefresh() {
	if sc := g.snaps.Load(); sc != nil {
		sc.stopRefresher()
	}
}

// SnapshotRefreshLag reports the age of the background refresher's
// last completed full pass — the bound on how stale warm reads can be
// in background mode. Zero when snapshots are off, foreground-mode, or
// no pass has completed yet.
func (g *Gateway) SnapshotRefreshLag() time.Duration {
	sc := g.snaps.Load()
	if sc == nil {
		return 0
	}
	last := sc.lastRefresh.Load()
	if last == 0 {
		return 0
	}
	return time.Since(time.Unix(0, last))
}

// SnapshotMaxStale reports the configured staleness bound, 0 when
// snapshots are disabled.
func (g *Gateway) SnapshotMaxStale() time.Duration {
	if sc := g.snaps.Load(); sc != nil {
		return sc.maxStale
	}
	return 0
}

// shardSnap is one producer shard's read-optimized snapshot. Immutable
// after publication — refreshes build a new one and swap the pointer.
type shardSnap struct {
	asOf time.Time
	ver  uint64
	// sensors holds the shard's live sensors, sorted by name.
	sensors []SensorInfo
	// last is the last-event cache, sensor → event → record. A live
	// sensor always has an entry (possibly empty), so presence doubles
	// as the "is this sensor served by the snapshot" check — and the
	// two-level lookup avoids building a composite key per query (a
	// string concatenation would allocate on the hottest read path).
	last map[string]map[string]ulm.Record
}

// summarySnap is the summary section: every summarized series' window
// statistics, precomputed at capture time. Rebuilt whole at the
// staleness bound — summary folding has no per-shard version counter,
// and the full rebuild is proportional to the (small) series count.
type summarySnap struct {
	asOf   time.Time
	points map[summaryKey][]SummaryPoint
}

// snapshotCache is the gateway's read-side cache: one snapshot slot
// per producer shard plus one for summaries, each with its own
// refresh-election flag.
type snapshotCache struct {
	maxStale time.Duration

	// background marks ticker-driven refresh mode: warm reads return
	// the shard pointer without a staleness check (no time.Now), the
	// runRefresher goroutine keeps snapshots inside the bound instead.
	background bool
	stop       chan struct{}
	stopOnce   sync.Once
	// lastRefresh is the wall-clock nanosecond stamp of the last
	// completed background pass — the telemetry refresh-lag gauge.
	lastRefresh atomic.Int64

	shards     [producerShards]atomic.Pointer[shardSnap]
	refreshing [producerShards]atomic.Bool

	sums       atomic.Pointer[summarySnap]
	sumRefresh atomic.Bool
	// sumScratch is the buffer every summarized series' sample window is
	// copied through; whoever holds the sumRefresh election owns it.
	sumScratch []sample
	hits       atomic.Uint64
	misses     atomic.Uint64
	refreshes  atomic.Uint64
}

// stopRefresher stops the background goroutine, if any; safe to call
// repeatedly.
func (sc *snapshotCache) stopRefresher() {
	if sc.stop != nil {
		sc.stopOnce.Do(func() { close(sc.stop) })
	}
}

// runRefresher is the background mode's ticker loop: twice per
// staleness bound it re-snapshots every shard and the summary table.
// Idle shards revalidate with a pointer swap (no lock, no copy), so a
// quiet gateway's background cost is 16 version-counter loads per
// tick. The CAS elections keep it from colliding with a cold-read
// foreground refresh.
func (sc *snapshotCache) runRefresher(g *Gateway) {
	interval := sc.maxStale / 2
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-sc.stop:
			return
		case <-t.C:
			now := g.now()
			for i := range sc.shards {
				if sc.refreshing[i].CompareAndSwap(false, true) {
					sc.refreshShard(g, i, now)
					sc.refreshing[i].Store(false)
				}
			}
			if sc.sumRefresh.CompareAndSwap(false, true) {
				sc.refreshSummaries(g, now)
				sc.sumRefresh.Store(false)
			}
			sc.lastRefresh.Store(time.Now().UnixNano())
		}
	}
}

// shardFor returns shard i's snapshot, refreshing it first when it is
// missing or older than the staleness bound and this reader wins the
// refresh election. Returns nil only when the snapshot is cold and
// another reader is building it — the caller falls back to the locked
// path rather than waiting. In background mode a warm shard returns
// immediately — the ticker goroutine owns freshness — so now may be
// the zero time; it is sampled lazily if a cold refresh turns out to
// be needed.
func (sc *snapshotCache) shardFor(g *Gateway, i int, now time.Time) *shardSnap {
	snap := sc.shards[i].Load()
	if snap != nil && (sc.background || now.Sub(snap.asOf) <= sc.maxStale) {
		return snap
	}
	if !sc.refreshing[i].CompareAndSwap(false, true) {
		// A refresh is in flight: serve the previous snapshot (bounded
		// by MaxStale + that refresh's duration), or report cold.
		return snap
	}
	if now.IsZero() {
		now = g.now()
	}
	snap = sc.refreshShard(g, i, now)
	sc.refreshing[i].Store(false)
	return snap
}

// refreshShard rebuilds shard i's snapshot. An idle shard (mutation
// counter unchanged since capture) revalidates by republishing the old
// sections under a new timestamp — no lock, no copy. Otherwise pending
// relayed frames are folded into their sensors' caches first (decoded
// outside the lock, see liveProducer, so a multi-megabyte frame never
// stalls publishers), then the shard lock is taken once more and every
// live producer's row and last-event cache are copied out: each event
// written since the last read is decoded then, once, and the decoded
// record is shared with the locked path until the next write.
func (sc *snapshotCache) refreshShard(g *Gateway, i int, now time.Time) *shardSnap {
	sc.refreshes.Add(1)
	ps := &g.pshards[i]
	if old := sc.shards[i].Load(); old != nil && ps.ver.Load() == old.ver {
		snap := &shardSnap{asOf: now, ver: old.ver, sensors: old.sensors, last: old.last}
		sc.shards[i].Store(snap)
		return snap
	}

	var pending []string
	ps.mu.Lock()
	for name, p := range ps.producers {
		if p.live && p.lastFrame != nil {
			pending = append(pending, name)
		}
	}
	for _, name := range pending {
		g.liveProducer(ps, name)
	}
	snap := &shardSnap{asOf: now, ver: ps.ver.Load()}
	snap.last = make(map[string]map[string]ulm.Record, len(ps.producers))
	for name, p := range ps.producers {
		if !p.live {
			continue
		}
		snap.sensors = append(snap.sensors, p.info(name))
		events := make(map[string]ulm.Record, len(p.last))
		for event, e := range p.last {
			events[event] = e.record()
		}
		snap.last[name] = events
	}
	ps.mu.Unlock()
	sort.Slice(snap.sensors, func(a, b int) bool { return snap.sensors[a].Name < snap.sensors[b].Name })
	sc.shards[i].Store(snap)
	return snap
}

// query serves Query from the snapshot. served=false means the
// snapshot cannot answer authoritatively (cold shard, or a sensor it
// does not hold) and the caller must use the locked path; ok mirrors
// the locked path's "known sensor, no such event yet" result.
func (sc *snapshotCache) query(g *Gateway, sensor, event string) (rec ulm.Record, ok, served bool) {
	var now time.Time
	if !sc.background {
		now = g.now()
	}
	snap := sc.shardFor(g, int(bus.HashTopic(sensor)%producerShards), now)
	if snap == nil {
		return ulm.Record{}, false, false
	}
	events, live := snap.last[sensor]
	if !live {
		return ulm.Record{}, false, false
	}
	rec, ok = events[event]
	return rec, ok, true
}

// sensors assembles the Sensors listing from the per-shard snapshots.
// ok=false when any shard is still cold (first reads racing the first
// refresh) — the caller walks the locked path once instead.
func (sc *snapshotCache) sensors(g *Gateway) ([]SensorInfo, bool) {
	var now time.Time
	if !sc.background {
		now = g.now()
	}
	var snaps [producerShards]*shardSnap
	total := 0
	for i := range snaps {
		s := sc.shardFor(g, i, now)
		if s == nil {
			return nil, false
		}
		snaps[i] = s
		total += len(s.sensors)
	}
	out := make([]SensorInfo, 0, total)
	for _, s := range snaps {
		out = append(out, s.sensors...)
	}
	// Shards partition the name space by hash, so the per-shard sorted
	// runs still need one global sort.
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, true
}

// summary serves Summary from the summary snapshot. served=false when
// the snapshot is cold, a refresh is in flight on a stale snapshot, or
// the series is absent from it (enabled inside the staleness window) —
// the caller answers from the summary table under its lock.
func (sc *snapshotCache) summary(g *Gateway, key summaryKey) (pts []SummaryPoint, served bool) {
	snap := sc.sums.Load()
	if sc.background && snap != nil {
		pts, ok := snap.points[key]
		return pts, ok
	}
	now := g.now()
	if snap == nil || now.Sub(snap.asOf) > sc.maxStale {
		if !sc.sumRefresh.CompareAndSwap(false, true) {
			if snap == nil {
				return nil, false
			}
			pts, ok := snap.points[key]
			return pts, ok
		}
		snap = sc.refreshSummaries(g, now)
		sc.sumRefresh.Store(false)
	}
	pts, ok := snap.points[key]
	return pts, ok
}

// refreshSummaries rebuilds the summary section: the series table is
// copied under its lock (pointers only), then each series' statistics
// are computed outside it. No dirty tracking — the rebuild cost is
// proportional to the summarized-series count, which is configuration,
// not traffic. The caller holds the sumRefresh election.
func (sc *snapshotCache) refreshSummaries(g *Gateway, now time.Time) *summarySnap {
	sc.refreshes.Add(1)
	g.sumMu.Lock()
	entries := make(map[summaryKey]*summaryEntry, len(g.summaries))
	for key, e := range g.summaries {
		entries[key] = e
	}
	g.sumMu.Unlock()
	snap := &summarySnap{asOf: now, points: make(map[summaryKey][]SummaryPoint, len(entries))}
	for key, e := range entries {
		snap.points[key], sc.sumScratch = e.st.points(now, sc.sumScratch)
	}
	sc.sums.Store(snap)
	return snap
}
