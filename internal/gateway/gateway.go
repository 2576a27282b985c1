// Package gateway implements the JAMM event gateway (§2.2): the
// producer-side event channel that listens for consumer requests and
// multiplexes sensor output. Gateways serve streaming subscriptions and
// one-shot queries; consumers may request all events, only changes,
// threshold crossings ("if CPU load becomes greater than 50%, or if
// load changes by more than 20%"), or computed summary data (1, 10 and
// 60 minute averages). The gateway also enforces access control — some
// sites allow internal users real-time streams while off-site users see
// only summaries — and absorbs consumer fan-out so that event data is
// read from the monitored host once no matter how many consumers
// subscribe (§2.3).
//
// The distribution hot path rides internal/bus: each sensor is a bus
// topic, so a publish touches only that sensor's subscribers plus the
// wildcard set, under a per-shard lock. The gateway layers producers
// (last-event cache, metadata, consumer counts), delivery policies
// (filter hooks), summaries (bus taps), and access control on top.
package gateway

import (
	"fmt"
	"log"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jamm/internal/auth"
	"jamm/internal/boundq"
	"jamm/internal/bus"
	"jamm/internal/telemetry"
	"jamm/internal/ulm"
	"jamm/internal/window"
)

// Meta describes a registered sensor, for directory publication and the
// list operation.
type Meta struct {
	Host     string        `json:"host"`
	Type     string        `json:"type"`
	Interval time.Duration `json:"interval"`
}

// SensorInfo is one row of the gateway's sensor listing.
type SensorInfo struct {
	Name      string        `json:"name"`
	Host      string        `json:"host"`
	Type      string        `json:"type"`
	Interval  time.Duration `json:"interval"`
	Consumers int           `json:"consumers"`
	Published uint64        `json:"published"`
	// Mirrored marks a sensor whose entry exists only because this
	// gateway ingests replicated copies of it — a replica holding, not
	// a primary placement.
	Mirrored bool `json:"mirrored,omitempty"`
}

// Stats counts gateway traffic; benches read it to show fan-out and
// filtering economics.
type Stats struct {
	// Published counts records entering the gateway from sensors; this
	// is the monitored host's egress cost, paid once regardless of
	// consumer count.
	Published uint64
	// Delivered counts records fanned out to consumers.
	Delivered uint64
	// Suppressed counts records withheld by change/threshold policies.
	Suppressed uint64
	// Queries counts one-shot query requests served.
	Queries uint64
	// ConsumerClamps counts consumer-count decrements that would have
	// driven a sensor's count negative. Nonzero means subscribe and
	// cancel bookkeeping diverged somewhere — an accounting bug, not
	// ordinary churn — so it is counted and logged rather than silently
	// absorbed.
	ConsumerClamps uint64

	snapshotStats
}

// producer is one sensor's gateway-side state. The entry outlives
// Unregister while anything still references it: live subscriptions
// keep their consumer count (so re-registration cannot reset it) and
// explicitly registered metadata is retained so an implicit
// re-registration by Publish restores it instead of degrading Type and
// Interval to guesses. What the entry keeps of the sensor's records is
// its own: one encoded copy per event, never a record of a batch.
type producer struct {
	meta Meta
	// explicit marks meta as set by Register; implicit registration
	// (Publish from an unknown sensor) never overwrites explicit meta.
	explicit bool
	// live marks the sensor as currently registered: listed by Sensors
	// and answerable by Query. Unregister clears it; Register or an
	// implicit publish sets it.
	live bool
	// mirrored marks an entry revived by replica ingest only: the
	// sensor's primary lives elsewhere and this gateway merely holds a
	// copy. Any primary (non-replica) ingest or explicit Register
	// clears it — a failover promotion is exactly such an ingest.
	mirrored bool
	// last is the last-event cache: event → that event's newest record,
	// written in place on ingest and decoded only when someone reads it
	// (lastEvent).
	last      map[string]*lastEvent
	consumers int
	published uint64
	// lastFrame holds the most recent relayed frame, retained, when the
	// sensor's records pass through undecoded (wire v2 relay): the
	// last-event cache is then filled lazily, on the first Query, so
	// the relay hot path pays a reference swap instead of a record
	// decode. One frame per relayed sensor is pinned (at most twice its
	// bytes, see frameBuf); whoever takes it out releases it — a counter
	// and a pool, no bytes touched — and decodes it, if at all, outside
	// the shard lock.
	lastFrame *Frame
	// gen counts cache-overwriting updates (publish, relay, unregister).
	// Query decodes a pending lastFrame outside the shard lock — a frame
	// can be megabytes — and folds the result in only if gen is
	// unchanged, so a decode that raced a newer publish never clobbers
	// fresher records.
	gen uint64
}

// lastEvent is one event's newest record as its producer keeps it: the
// binary encoding in bin, a buffer every write reuses, and the date
// beside it at full precision (the encoding keeps microseconds, in UTC).
// So a write copies the record, sharing nothing with the batch or the
// caller it came from, and allocates nothing once bin has grown to size.
// bin is not left at the size of one oversized record: a write that
// fills a quarter of it or less, once it is past lastEventKeepCap, moves
// the encoding to a buffer of its own size. rec is bin decoded, valid
// while fresh: the first read after a write decodes it, and it is
// shared, immutable, until the next write. A lastEvent is read and
// written with its shard lock held.
type lastEvent struct {
	bin   []byte
	date  time.Time
	rec   ulm.Record
	fresh bool
}

// lastEventKeepCap is the buffer size a lastEvent keeps whatever it
// holds; above it, a buffer four times the size of its record is given
// back.
const lastEventKeepCap = 512

// set makes rec the event's newest record.
func (e *lastEvent) set(rec *ulm.Record) {
	e.bin = ulm.AppendBinary(e.bin[:0], rec)
	if cap(e.bin) > lastEventKeepCap && cap(e.bin) > 4*len(e.bin) {
		e.bin = slices.Clone(e.bin)
	}
	e.date = rec.Date
	e.rec, e.fresh = ulm.Record{}, false
}

// record returns the event's newest record, decoding it if it was
// written since the last read: one string arena and one field slab, both
// of exactly its size.
func (e *lastEvent) record() ulm.Record {
	if !e.fresh {
		var one [1]ulm.Record
		recs, _, err := ulm.DecodeBinaryBatch(one[:0], e.bin, 1, 0)
		if err != nil {
			panic("gateway: last-event cache cannot decode what it encoded: " + err.Error())
		}
		e.rec, e.fresh = recs[0], true
		e.rec.Date = e.date
	}
	return e.rec
}

// keepLasts writes the last record of each run of same-event records in
// recs into the last-event cache: in order, a later run of an event
// overwrites an earlier one, so that is all the cache keeps of a batch.
// One sensor's batch is typically one run: one write. recs is borrowed;
// a new event costs its entry and a copy of its name, once.
func (p *producer) keepLasts(recs []ulm.Record) {
	for i := range recs {
		if i+1 < len(recs) && recs[i+1].Event == recs[i].Event {
			continue
		}
		e := p.last[recs[i].Event]
		if e == nil {
			e = new(lastEvent)
			p.last[strings.Clone(recs[i].Event)] = e
		}
		e.set(&recs[i])
	}
}

// takeFrame moves the pending relayed frame, if any, out of the stash:
// the caller's to Release.
func (p *producer) takeFrame() *Frame {
	f := p.lastFrame
	p.lastFrame = nil
	return f
}

// info is the sensor's row in the listing.
func (p *producer) info(name string) SensorInfo {
	return SensorInfo{
		Name:      name,
		Host:      p.meta.Host,
		Type:      p.meta.Type,
		Interval:  p.meta.Interval,
		Consumers: p.consumers,
		Published: p.published,
		Mirrored:  p.mirrored,
	}
}

// producerShards is the lock-domain count for per-sensor producer
// state; like the bus's topic shards, it keeps publishes of different
// sensors off each other's locks.
const producerShards = 16

type producerShard struct {
	mu        sync.Mutex
	producers map[string]*producer
}

// upsert returns name's producer entry, creating an empty one — not
// live, no consumers — if there is none. Called with ps.mu held.
func (ps *producerShard) upsert(name string) *producer {
	p := ps.producers[name]
	if p == nil {
		p = &producer{last: make(map[string]*lastEvent)}
		ps.producers[name] = p
	}
	return p
}

// Gateway is one event gateway instance. It is safe for concurrent use;
// in simulation deployments all calls arrive from the single scheduler
// goroutine, in daemon deployments from connection goroutines.
type Gateway struct {
	name     string
	resource string
	now      func() time.Time

	bus *bus.Bus

	// authz is swapped atomically so the read path (Query, Summary,
	// Sensors, Subscribe) resolves access control without a lock — a
	// global authorizer mutex would serialize every reader of every
	// shard.
	authz atomic.Pointer[auth.Authorizer]

	pshards [producerShards]producerShard

	// aggMover carries the aggregation plane's per-sensor drain/seed
	// hooks (SetAggregateMover) so a rebalancing Handoff can move a
	// sensor's in-window aggregate contribution without the gateway
	// importing the aggregate package.
	aggMover atomic.Pointer[AggregateMover]

	sumMu     sync.Mutex
	summaries map[summaryKey]*summaryState

	queries        atomic.Uint64
	consumerClamps atomic.Uint64
	clampLogOnce   sync.Once

	// regHooks is a copy-on-write list of registration observers
	// (OnRegistration); the directory announcer of a sharded site rides
	// this to advertise sensor→gateway ownership. regSeq orders
	// registration changes (assigned under the shard lock), and
	// regDispatch/regSeen deliver them to hooks in that order, dropping
	// changes overtaken by newer ones for the same sensor.
	regMu       sync.Mutex
	regHooks    atomic.Pointer[[]func(sensor string, meta Meta, registered bool)]
	regSeq      atomic.Uint64
	regDispatch sync.Mutex
	regSeen     map[string]uint64

	// fwd is the replication hook (SetForwarder): every primary
	// (non-replica) ingest is handed to it after local delivery so a
	// replication link can push copies to the sensor's replica set.
	// Replica-flagged ingest never reaches it — no replication loops.
	fwd atomic.Pointer[Forwarder]

	// tracer is the telemetry hook (SetTracer): when set, primary
	// batch ingest feeds the ingest-stage latency histogram, and
	// sampled batches are stamped with a JAMM.TRACE attribute that
	// rides the record across hops for end-to-end path reconstruction.
	tracer atomic.Pointer[telemetry.Tracer]

	// histFallback answers Query misses from a persistent archive
	// (SetHistoryFallback): a freshly promoted replica whose producer
	// entry died with the process still serves "most recent event"
	// from its archive tail.
	histFallback atomic.Pointer[HistoryFallback]

	// What became of the frames PublishFrame ingested (FrameStats).
	frameRelays     atomic.Uint64
	frameRelayRecs  atomic.Uint64
	frameDecodes    atomic.Uint64
	frameDecodeErrs atomic.Uint64
}

// Config tunes a gateway's event-distribution core.
type Config struct {
	// Bus configures the underlying event bus (shard count).
	Bus bus.Options
}

// New returns a gateway named name (conventionally the site or gateway
// host). now supplies summary-window time; nil means the wall clock.
// Deployments running on virtual time pass the scheduler's clock.
func New(name string, now func() time.Time) *Gateway {
	return NewWithConfig(name, now, Config{})
}

// NewWithConfig returns a gateway with an explicitly configured event
// bus.
func NewWithConfig(name string, now func() time.Time, cfg Config) *Gateway {
	if now == nil {
		now = time.Now
	}
	g := &Gateway{
		name:      name,
		resource:  "gateway/" + name,
		now:       now,
		bus:       bus.New(cfg.Bus),
		summaries: make(map[summaryKey]*summaryState),
	}
	allowAll := auth.AllowAll
	g.authz.Store(&allowAll)
	for i := range g.pshards {
		g.pshards[i].producers = make(map[string]*producer)
	}
	return g
}

// Name returns the gateway name.
func (g *Gateway) Name() string { return g.name }

// Forwarder receives every batch ingested at this gateway as a primary
// (non-replica) copy, after local delivery — the hook a replication
// link rides to push copies to the sensor's replica set. Exactly one
// of recs/f is set per call: cooked publishes hand the record slice
// (borrowed — copy to retain), frame ingest hands the raw frame
// (borrowed — Clone to retain). Forward runs on the publishing
// goroutine and must not block.
type Forwarder interface {
	Forward(sensor string, recs []ulm.Record, f *Frame)
}

// SetForwarder installs the replication hook; nil detaches it.
func (g *Gateway) SetForwarder(fw Forwarder) {
	if fw == nil {
		g.fwd.Store(nil)
		return
	}
	g.fwd.Store(&fw)
}

func (g *Gateway) forwarder() Forwarder {
	if p := g.fwd.Load(); p != nil {
		return *p
	}
	return nil
}

// SetTracer attaches (or, with nil, detaches) the telemetry tracer.
// When set, primary ingest and v2 subscriber writes feed per-stage
// latency histograms, and sampled batches carry a JAMM.TRACE attribute
// downstream.
func (g *Gateway) SetTracer(t *telemetry.Tracer) { g.tracer.Store(t) }

// HistoryFallback serves the most recent archived event for a sensor —
// the shape histstore.Store provides — so Query can answer for sensors
// whose in-memory producer entry died with a restart.
type HistoryFallback interface {
	LastEvent(sensor, event string) (ulm.Record, bool, error)
}

// SetHistoryFallback attaches a persistent archive consulted when a
// Query misses the in-memory last-event cache; nil detaches it.
func (g *Gateway) SetHistoryFallback(h HistoryFallback) {
	if h == nil {
		g.histFallback.Store(nil)
		return
	}
	g.histFallback.Store(&h)
}

// lastFromFallback consults the attached archive for a query miss.
func (g *Gateway) lastFromFallback(sensorName, event string) (ulm.Record, bool) {
	p := g.histFallback.Load()
	if p == nil {
		return ulm.Record{}, false
	}
	rec, found, err := (*p).LastEvent(sensorName, event)
	if err != nil || !found {
		return ulm.Record{}, false
	}
	return rec, true
}

// Bus exposes the gateway's event-distribution core, for layers that
// want raw bus subscriptions (taps, wildcard observers) beside the
// gateway's filtered ones.
func (g *Gateway) Bus() *bus.Bus { return g.bus }

// SetAuthorizer installs access control; nil restores allow-all.
func (g *Gateway) SetAuthorizer(a auth.Authorizer) {
	if a == nil {
		a = auth.AllowAll
	}
	g.authz.Store(&a)
}

func (g *Gateway) pshard(sensorName string) *producerShard {
	return &g.pshards[bus.HashTopic(sensorName)%producerShards]
}

// Register declares a sensor publishing through this gateway. The
// sensor manager calls it when a sensor starts. Registered metadata
// wins deterministically over the implicit registration Publish
// performs for unknown sensors: re-registering updates metadata in
// place, and live subscription counts and publish totals survive an
// Unregister/Register cycle instead of resetting.
func (g *Gateway) Register(sensorName string, meta Meta) {
	ps := g.pshard(sensorName)
	ps.mu.Lock()
	p := ps.upsert(sensorName)
	p.meta = meta
	p.explicit = true
	p.live = true
	p.mirrored = false
	seq := g.regSeq.Add(1)
	ps.mu.Unlock()
	g.fireRegistration(sensorName, meta, true, seq)
}

// Unregister removes a sensor from the listing. Existing subscriptions
// remain (and simply receive nothing further from it) and keep their
// consumer count, so a later re-registration — explicit or implicit —
// resumes with accurate counts and, for explicitly registered sensors,
// the registered metadata.
func (g *Gateway) Unregister(sensorName string) {
	ps := g.pshard(sensorName)
	ps.mu.Lock()
	p := ps.producers[sensorName]
	wasLive := p != nil && p.live
	var seq uint64
	if p != nil {
		p.live = false
		// The record cache is dead weight while unregistered (Query
		// refuses non-live sensors): release it so a retained entry
		// costs one small struct, not the sensor's whole event history.
		p.last = make(map[string]*lastEvent)
		p.takeFrame().Release()
		p.gen++
		// Drop the entry outright only when nothing references it: no
		// live subscriptions (their count must survive re-registration)
		// and no explicit metadata to restore on implicit re-registration.
		// Explicitly registered sensors therefore retain a meta-sized
		// entry after Unregister — bounded by the number of distinct
		// sensor names ever registered, the price of deterministic
		// re-registration.
		if p.consumers == 0 && !p.explicit {
			delete(ps.producers, sensorName)
		}
		if wasLive {
			seq = g.regSeq.Add(1)
		}
	}
	ps.mu.Unlock()
	if wasLive {
		g.fireRegistration(sensorName, Meta{}, false, seq)
	}
}

// OnRegistration installs fn as a registration observer: it is invoked
// after every registration state change — explicit Register, implicit
// registration of an unknown sensor by Publish, and Unregister (with
// registered=false and a zero Meta). Hooks run outside the gateway's
// shard locks on the mutating goroutine, serialized by a dispatch lock,
// and in state order: each change takes a sequence number under the
// shard lock, and a change that was overtaken by a newer one for the
// same sensor is dropped rather than delivered late — so observers
// (the directory announcer) always converge on the sensor's final
// state instead of a stale inversion. Hooks cannot be removed; install
// them at assembly time.
func (g *Gateway) OnRegistration(fn func(sensor string, meta Meta, registered bool)) {
	if fn == nil {
		return
	}
	g.regMu.Lock()
	defer g.regMu.Unlock()
	var old []func(sensor string, meta Meta, registered bool)
	if p := g.regHooks.Load(); p != nil {
		old = *p
	}
	next := make([]func(sensor string, meta Meta, registered bool), len(old)+1)
	copy(next, old)
	next[len(old)] = fn
	g.regHooks.Store(&next)
}

// fireRegistration delivers one registration change to the hooks. seq
// was assigned under the sensor's shard lock, so same-sensor changes
// carry increasing numbers; delivering under regDispatch and dropping
// overtaken changes keeps observers in state order even though the
// mutating goroutines race to get here.
func (g *Gateway) fireRegistration(sensor string, meta Meta, registered bool, seq uint64) {
	p := g.regHooks.Load()
	if p == nil {
		return
	}
	g.regDispatch.Lock()
	defer g.regDispatch.Unlock()
	if g.regSeen == nil {
		g.regSeen = make(map[string]uint64)
	}
	if seq < g.regSeen[sensor] {
		return // a newer change for this sensor already went out
	}
	if registered {
		g.regSeen[sensor] = seq
	} else {
		// The sensor's final state went out: drop its watermark so the
		// map stays bounded by currently registered sensors (ephemeral
		// sensor names must not accumulate). A change that took its
		// sequence number before this unregistration and dispatches
		// after the prune slips through unordered — the same microsecond
		// window every observer must already tolerate across gateway
		// restarts, and announcers self-correct on the next change.
		delete(g.regSeen, sensor)
	}
	for _, fn := range *p {
		fn(sensor, meta, registered) //jamm:lock-ok regDispatch exists to run registration hooks in arrival order; documented on OnRegistration
	}
}

// Sensors lists registered sensors, sorted by name. Each shard is
// walked under its lock, with the output slice grown outside the locks
// so the lock-held work is the row copies alone.
func (g *Gateway) Sensors() []SensorInfo {
	var out []SensorInfo
	for i := range g.pshards {
		ps := &g.pshards[i]
		// Reserve capacity outside the lock so append under it never
		// reallocates in steady state (a producer added between the two
		// acquisitions costs one rare in-lock growth, nothing more).
		ps.mu.Lock()
		n := len(ps.producers)
		ps.mu.Unlock()
		if cap(out)-len(out) < n {
			grown := make([]SensorInfo, len(out), len(out)+n+16)
			copy(grown, out)
			out = grown
		}
		ps.mu.Lock()
		for name, p := range ps.producers {
			if !p.live {
				continue // unregistered; entry retained for counts/meta
			}
			out = append(out, p.info(name))
		}
		ps.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Consumers returns the number of active subscriptions naming sensor.
// The count tracks subscriptions, not producer lifecycle: it is
// maintained across Unregister/Register cycles and for sensors that
// have subscribers but have not (yet) registered or published.
func (g *Gateway) Consumers(sensorName string) int {
	ps := g.pshard(sensorName)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if p, ok := ps.producers[sensorName]; ok {
		return p.consumers
	}
	return 0
}

// Stats returns a snapshot of the traffic counters.
func (g *Gateway) Stats() Stats {
	bs := g.bus.Stats()
	return Stats{
		Published:      bs.Published,
		Delivered:      bs.Delivered,
		Suppressed:     bs.Suppressed,
		Queries:        g.queries.Load(),
		ConsumerClamps: g.consumerClamps.Load(),
	}
}

// Publish feeds one sensor record through the gateway: it caches it for
// queries, folds it into summaries (bus taps), and fans it out to
// matching subscriptions via the bus. Records from unregistered sensors
// are registered implicitly (application sensors outside JAMM control
// still feed the system).
func (g *Gateway) Publish(sensorName string, rec ulm.Record) {
	one := oneRecord.Get().(*[1]ulm.Record)
	one[0] = rec
	g.ingest(sensorName, one[:], nil, false, false)
	oneRecord.Put(one)
}

// oneRecord pools the batch-of-one Publish hands to ingest, which a
// slice on its stack could not be: subscriber callbacks see it. Like
// the bus's own one-record scratch it is not zeroed on the way back: a
// pooled array retains at most one record until its next use.
var oneRecord = sync.Pool{New: func() any { return new([1]ulm.Record) }}

// PublishBatch feeds a batch of one sensor's records through the
// gateway with one producer-shard lock acquisition and one bus fan-out:
// the whole batch is cached, summarized, and delivered as a unit, so
// bulk ingest paths (the wire protocol's batched publish frames,
// bridges mirroring remote gateways) never degrade to per-record
// costs. recs is borrowed — see bus.PublishBatch for the ownership
// contract. Unknown sensors are registered implicitly, once per batch.
func (g *Gateway) PublishBatch(sensorName string, recs []ulm.Record) {
	if len(recs) > 0 {
		g.ingest(sensorName, recs, nil, false, true)
	}
}

// PublishReplicaBatch ingests a batch of replicated copies pushed from
// the sensor's primary gateway: producer state, the last-event cache,
// and local consumers (bus, taps, archivers) all see the records —
// exactly what a promoted replica needs to answer from — but no
// registration hooks fire (the replica's announcer must not fight the
// primary's directory entry) and the batch is never re-forwarded to
// the replica set (no replication loops).
func (g *Gateway) PublishReplicaBatch(sensorName string, recs []ulm.Record) {
	if len(recs) > 0 {
		g.ingest(sensorName, recs, nil, true, false)
	}
}

// ingest is the one way records enter the gateway: it updates the
// sensor's producer entry, publishes on the bus and, for a primary copy,
// hands what came in to the replication forwarder. The batch is
// borrowed: recs, or the wire frame f with recs what PublishFrame
// decoded from it — nil when nobody needs records, and then the frame is
// pure relay: the bus hands sealed subscribers the frame itself, and
// the producer entry stashes a reference so the last-event cache can be
// filled on the first Query instead of on every frame. Whatever the
// records came in by, the cache encodes its own copy of the ones it
// keeps (noteIngest), so nothing it holds aliases the batch.
//
// replica marks pushed copies from the sensor's primary: no
// registration hooks, no forwarding. trace lets the telemetry tracer
// sample the batch: a sampled one (one in -trace-sample) is stamped with
// the trace attribute and its ingest timed. Timing rides the sampling
// gate — two time.Now calls per batch would alone bust the <=5%
// instrumentation budget the bench smoke enforces. The stamp must not
// mutate the borrowed batch, so a sampled batch pays for a slice copy
// plus one record clone; the forwarder and a frame's sealed subscribers
// see the batch unstamped, as it arrived.
func (g *Gateway) ingest(sensorName string, recs []ulm.Record, f *Frame, replica, trace bool) {
	in := recs
	var tr *telemetry.Tracer
	var tStart time.Time
	var tid uint64
	if trace && len(recs) > 0 {
		if t := g.tracer.Load(); t != nil && t.Sample() {
			tr, tStart, tid = t, time.Now(), t.NewID()
			recs = slices.Clone(recs)
			recs[0] = recs[0].Clone()
			telemetry.StampTrace(&recs[0], tid, 0)
		}
	}
	if len(recs) == 0 { // a frame nobody decoded: the other entries pass records
		g.noteIngest(sensorName, "", f.Count, nil, f, replica)
	} else {
		g.noteIngest(sensorName, recs[0].Host, len(recs), recs, nil, replica)
	}
	if f != nil {
		g.bus.PublishSealed(sensorName, f, recs)
	} else {
		g.bus.PublishBatch(sensorName, recs)
	}
	if tr != nil {
		d := time.Since(tStart)
		tr.Observe("ingest", d)
		tr.Event(tid, 0, sensorName, "ingest", d)
	}
	// Replica copies are terminal: forwarding them again would loop.
	if fw := g.forwarder(); fw != nil && !replica {
		if f != nil {
			in = nil
		}
		fw.Forward(sensorName, in, f)
	}
}

// noteIngest is the one producer update: n records of sensorName came
// in. The sensor registers implicitly (with host — parsed from the
// conventional sensor@host topic for a frame nobody decoded — unless it
// registered explicitly), the last of each event run in recs is copied
// into the last-event cache (keepLasts), and stash, that undecoded
// frame, replaces the pending frame by reference, never a copy or a
// decode; anything decoded is newer than a frame still pending. A
// replica copy updates the same state but fires no registration hooks
// and marks a revived entry mirrored.
func (g *Gateway) noteIngest(sensorName, host string, n int, recs []ulm.Record, stash *Frame, replica bool) {
	ps := g.pshard(sensorName)
	ps.mu.Lock()
	p := ps.upsert(sensorName)
	revived := !p.live
	if revived {
		// Implicit (re-)registration. Explicitly registered metadata
		// wins deterministically: a sensor that Registered and was
		// unregistered mid-churn comes back with its Type/Interval
		// intact, not degraded to a host guess.
		p.live = true
		if !p.explicit {
			if stash != nil {
				host = topicHost(sensorName) // nobody decoded a record to ask
			}
			p.meta.Host = strings.Clone(host)
		}
	}
	if !replica {
		p.mirrored = false // a primary ingest: this gateway owns the sensor
	} else if revived {
		p.mirrored = true
	}
	p.published += uint64(n)
	p.keepLasts(recs)
	p.takeFrame().Release()
	if stash != nil {
		p.lastFrame = stash.Retain()
	}
	p.gen++
	fire := revived && !replica
	var meta Meta
	var seq uint64
	if fire {
		meta = p.meta
		seq = g.regSeq.Add(1)
	}
	ps.mu.Unlock()
	if fire {
		g.fireRegistration(sensorName, meta, true, seq)
	}
}

// liveProducer returns sensorName's producer entry with any pending
// relayed frame folded into its last-event cache, or nil when the
// sensor is not live here. Called with ps.mu held and returns with it
// held, but a pending frame — it can be megabytes — is decoded with the
// lock dropped, into the pooled scratch PublishFrame decodes into, so
// publishes to the shard's other sensors never stall behind it. Its
// event runs are then written through the one cache write (keepLasts),
// and only if nothing overtook the cache meanwhile (gen unchanged).
func (g *Gateway) liveProducer(ps *producerShard, sensorName string) *producer {
	p := ps.producers[sensorName]
	if p == nil || !p.live {
		return nil
	}
	pending := p.takeFrame()
	if pending == nil {
		return p
	}
	gen := p.gen
	ps.mu.Unlock()
	scratch := frameScratch.Get().(*[]ulm.Record)
	recs, err := pending.Records((*scratch)[:0])
	pending.Release()
	if err != nil {
		g.frameDecodeErrs.Add(1)
	}
	ps.mu.Lock()
	p = ps.producers[sensorName]
	live := p != nil && p.live
	if live && p.gen == gen {
		p.keepLasts(recs)
	}
	putFrameScratch(scratch, recs)
	if !live {
		return nil
	}
	return p
}

// consumerTopic is the sensor whose consumer count a subscription
// adjusts. Prefix subscriptions cover a topic family, not one sensor,
// so they contribute nothing ("" makes addConsumer a no-op) — used
// symmetrically at subscribe and cancel so the counts stay balanced.
func consumerTopic(req Request) string {
	if req.Prefix {
		return ""
	}
	return req.Sensor
}

// subscribeBatchTopics inserts the request's bus subscription, routing
// topic-prefix requests through the bus's prefix-aware wildcard list.
func (g *Gateway) subscribeBatchTopics(req Request, fn func(topic string, recs []ulm.Record)) *bus.Subscription {
	if req.Prefix {
		return g.bus.SubscribeBatchTopicsPrefix(req.Sensor, newFilter(req).hook(), fn)
	}
	return g.bus.SubscribeBatchTopics(req.Sensor, newFilter(req).hook(), fn)
}

// Subscribe opens a streaming subscription ("the consumer opens an
// event channel and the events are returned in a stream"). fn is
// invoked for every record passing the request's filters.
func (g *Gateway) Subscribe(req Request, fn func(ulm.Record)) (*Subscription, error) {
	if fn == nil {
		return nil, fmt.Errorf("gateway: nil subscription callback")
	}
	if err := g.authorize(req.Principal, req.Sensor, auth.ActionStream); err != nil {
		return nil, err
	}
	var bsub *bus.Subscription
	if req.Prefix {
		bsub = g.bus.SubscribeBatchTopicsPrefix(req.Sensor, newFilter(req).hook(), func(_ string, recs []ulm.Record) {
			for i := range recs {
				fn(recs[i])
			}
		})
	} else {
		bsub = g.bus.Subscribe(req.Sensor, newFilter(req).hook(), fn)
	}
	g.addConsumer(consumerTopic(req), 1)
	return &Subscription{g: g, req: req, sub: bsub}, nil
}

// SubscribeBatch opens a streaming subscription delivering whole
// batches: fn receives each delivered batch as one slice — one
// callback per batch no matter how many records it carries. The slice
// is only valid for the duration of the call; copy it to retain
// records. Filters apply per record, so fn sees exactly the records a
// per-record Subscribe with the same request would, in the same order.
func (g *Gateway) SubscribeBatch(req Request, fn func(recs []ulm.Record)) (*Subscription, error) {
	if fn == nil {
		return nil, fmt.Errorf("gateway: nil subscription callback")
	}
	if err := g.authorize(req.Principal, req.Sensor, auth.ActionStream); err != nil {
		return nil, err
	}
	var bsub *bus.Subscription
	if req.Prefix {
		bsub = g.bus.SubscribeBatchTopicsPrefix(req.Sensor, newFilter(req).hook(), func(_ string, recs []ulm.Record) {
			fn(recs)
		})
	} else {
		bsub = g.bus.SubscribeBatch(req.Sensor, newFilter(req).hook(), fn)
	}
	g.addConsumer(consumerTopic(req), 1)
	return &Subscription{g: g, req: req, sub: bsub}, nil
}

// TopicRecord is one delivered record together with the sensor (bus
// topic) it was published under — the unit transports forward.
type TopicRecord struct {
	Sensor string
	Rec    ulm.Record
}

// TopicBatch is one delivered batch together with the sensor (bus
// topic) it was published under — the unit batch transports forward.
// Unlike the slices handed to batch callbacks, Recs is owned by the
// receiver (copied out of the bus's scratch on its way into a queue).
type TopicBatch struct {
	Sensor string
	Recs   []ulm.Record
}

// addConsumer adjusts a sensor's consumer count by delta (no-op for
// wildcard subscriptions). Subscriptions to sensors that have not yet
// registered or published create a placeholder entry, so the count is
// already right when the sensor arrives; the placeholder is dropped
// when the last subscription cancels before any registration. A
// decrement that would go negative is clamped — but counted
// (Stats.ConsumerClamps) and logged once, never silently absorbed,
// because it means subscribe/cancel bookkeeping diverged.
func (g *Gateway) addConsumer(sensorName string, delta int) {
	if sensorName == "" {
		return
	}
	ps := g.pshard(sensorName)
	ps.mu.Lock()
	if ps.producers[sensorName] == nil && delta <= 0 {
		ps.mu.Unlock()
		g.noteConsumerClamp(sensorName)
		return
	}
	p := ps.upsert(sensorName)
	p.consumers += delta
	clamped := p.consumers < 0
	if clamped {
		p.consumers = 0
	}
	if p.consumers == 0 && !p.live && !p.explicit {
		delete(ps.producers, sensorName)
	}
	ps.mu.Unlock()
	if clamped {
		g.noteConsumerClamp(sensorName)
	}
}

func (g *Gateway) noteConsumerClamp(sensorName string) {
	g.consumerClamps.Add(1)
	g.clampLogOnce.Do(func() {
		log.Printf("gateway %s: consumer count for %q went negative (cancel without matching subscribe) — clamped to 0; counting further imbalances silently", g.name, sensorName)
	})
}

// Query returns the most recent event of the named type from the named
// sensor ("in query mode the consumer does not open an event channel,
// but only requests the most recent event").
func (g *Gateway) Query(principal, sensorName, event string) (ulm.Record, bool, error) {
	if err := g.authorize(principal, sensorName, auth.ActionQuery); err != nil {
		return ulm.Record{}, false, err
	}
	g.queries.Add(1)
	ps := g.pshard(sensorName)
	ps.mu.Lock()
	// A relay hop defers the last-event decode to the first query that
	// wants it: liveProducer folds it in.
	p := g.liveProducer(ps, sensorName)
	if p == nil {
		ps.mu.Unlock()
		// The producer entry is gone (a restart dropped it, or this
		// gateway never saw the sensor live) — the attached archive, if
		// any, may still hold the sensor's tail.
		if rec, found := g.lastFromFallback(sensorName, event); found {
			return rec, true, nil
		}
		return ulm.Record{}, false, fmt.Errorf("gateway: unknown sensor %q", sensorName)
	}
	e := p.last[event]
	var rec ulm.Record
	if e != nil {
		rec = e.record()
	}
	ps.mu.Unlock()
	if e == nil {
		if frec, found := g.lastFromFallback(sensorName, event); found {
			return frec, true, nil
		}
	}
	return rec, e != nil, nil
}

// HandoffState is the gateway-side state a rebalancing move drains
// from a sensor's old owner and seeds at its new one: registration
// metadata, the last-event cache (one record per event type, the state
// a Query answers from), every summarized series' slot rings, and the
// sensor's in-window aggregate slot counts (when an aggregation plane
// registered a mover), both in package window's slot encoding.
type HandoffState struct {
	Meta      Meta
	Recs      []ulm.Record
	Summaries []SummarySeries
	Agg       string
}

// AggregateMover is the aggregation plane's handoff hook
// (SetAggregateMover): Drain removes and returns a sensor's in-window
// aggregate slot counts (none when the sensor contributed nothing), Seed
// adds drained counts into the local window.
type AggregateMover struct {
	Drain func(sensor string) []window.Slot
	Seed  func(sensor string, slots []window.Slot)
}

// SetAggregateMover installs the aggregation plane's per-sensor
// drain/seed hooks, so Handoff moves a sensor's in-window aggregate
// contribution along with its cache and summaries; nil detaches.
func (g *Gateway) SetAggregateMover(m *AggregateMover) { g.aggMover.Store(m) }

// Handoff drains one sensor's gateway-side state for a rebalancing
// move and unregisters the sensor locally, so the announcer withdraws
// this gateway's advertisement while the new owner's implicit
// registration raises its own. ok is false when the sensor is not live
// here.
func (g *Gateway) Handoff(sensorName string) (st HandoffState, ok bool) {
	ps := g.pshard(sensorName)
	ps.mu.Lock()
	p := g.liveProducer(ps, sensorName) // a pending relayed frame is materialized first
	if p == nil {
		ps.mu.Unlock()
		return HandoffState{}, false
	}
	st.Meta = p.meta
	st.Recs = make([]ulm.Record, 0, len(p.last))
	for _, e := range p.last {
		st.Recs = append(st.Recs, e.record())
	}
	ps.mu.Unlock()
	// Oldest first, so replaying the handoff at the new owner leaves
	// its last-event cache in the same end state.
	sort.Slice(st.Recs, func(i, j int) bool { return st.Recs[i].Date.Before(st.Recs[j].Date) })
	// The summary windows and aggregate contribution move instead of
	// being rebuilt from scratch at the new owner.
	st.Summaries = g.drainSummaries(sensorName)
	if m := g.aggMover.Load(); m != nil && m.Drain != nil {
		st.Agg = window.Encode(m.Drain(sensorName), true)
	}
	g.Unregister(sensorName)
	return st, true
}

func (g *Gateway) authorize(principal, sensorName, action string) error {
	authz := *g.authz.Load()
	if authz == auth.AllowAll {
		// It would not look at the resource: do not build one per read.
		return nil
	}
	resource := g.resource
	if sensorName != "" {
		resource += "/" + sensorName
	}
	return authz.Authorize(principal, resource, action)
}

// Subscription is one consumer's open event channel.
type Subscription struct {
	g   *Gateway
	req Request
	sub *bus.Subscription

	// wireDrops counts records the transport layer dropped after the
	// gateway delivered them (slow wire consumer, payload the format
	// cannot carry) — see subscribeQueued. onDrop, when set, hears of
	// each such loss too.
	wireDrops atomic.Uint64
	onDrop    func(n int)

	// q is the bounded queue between the publish path and a queued
	// subscription's consumer (a wire connection's writer, or
	// SubscribeFramesFunc's callback goroutine); nil for callback
	// subscriptions. A slow consumer pins at most twice the bytes of the
	// frames admitted (see frameBuf); what the budget refuses is shed,
	// counted per record by offer. onCancel tears down what Cancel must
	// beyond the bus subscription (a callback goroutine).
	q        *boundq.Queue[frameItem]
	onCancel func()
}

// ChanBacklog returns how many delivered records a queued subscription
// still holds — queued, or dequeued and not yet written out (always 0
// for callback subscriptions) — the drain signal a graceful shutdown
// polls.
func (s *Subscription) ChanBacklog() int {
	if s.q == nil {
		return 0
	}
	return s.q.Backlog()
}

// Request returns the subscription's request.
func (s *Subscription) Request() Request { return s.req }

// Counts returns how many records were delivered and suppressed.
func (s *Subscription) Counts() (delivered, suppressed uint64) { return s.sub.Counts() }

// WireDrops returns how many delivered records the transport dropped
// on a slow consumer connection, alongside Counts: delivered includes
// these, so delivered - WireDrops records actually left the host.
func (s *Subscription) WireDrops() uint64 { return s.wireDrops.Load() }

// Cancel closes the subscription.
func (s *Subscription) Cancel() {
	if !s.sub.Cancel() {
		return
	}
	if s.onCancel != nil {
		s.onCancel()
	}
	if s.q != nil {
		// Queued frames hold references nobody will take out now.
		for _, it := range s.q.Close() {
			it.f.Release()
		}
	}
	s.g.addConsumer(consumerTopic(s.req), -1)
}

// Float64 returns a pointer to v, for building threshold requests.
func Float64(v float64) *float64 { return &v }
