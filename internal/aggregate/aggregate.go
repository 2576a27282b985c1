// Package aggregate is the streaming aggregation plane: it folds every
// batch a gateway publishes into sliding-window aggregates — record
// rate, per-sensor volume top-k, and quantiles of a numeric field —
// and republishes them as synthetic `_agg/...` bus topics. The point
// is read-side fan-in: a dashboard that would otherwise open N raw
// subscriptions (paying N× the wire) opens ONE aggregate subscription
// ({Sensor: aggregate.TopicPrefix, Prefix: true}) and rides the same
// batch/wire machinery every other subscription uses; per-gateway
// aggregates merge site-wide (Site) because counts sum, top-k lists
// merge, and quantile sketches are bucket-additive.
package aggregate

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jamm/internal/bus"
	"jamm/internal/gateway"
	"jamm/internal/ulm"
	"jamm/internal/window"
)

// TopicPrefix scopes every synthetic aggregate topic. Raw sensor
// topics never start with it (sensor names are host/program derived),
// and the aggregator skips it when folding, so aggregates never feed
// back into themselves.
const TopicPrefix = "_agg/"

// Aggregate topics, one per aggregate kind.
const (
	TopicCount    = TopicPrefix + "count"
	TopicTopK     = TopicPrefix + "topk"
	TopicQuantile = TopicPrefix + "quantile"
)

// Aggregate event types (the NL.EVNT of emitted records).
const (
	EventCount    = "AGG_COUNT"
	EventTopK     = "AGG_TOPK"
	EventQuantile = "AGG_QUANT"
)

// subWindows is how many slots a window is divided into.
const subWindows = 10

// Options tunes an Aggregator.
type Options struct {
	// Window is the sliding window aggregates cover (default 10s),
	// divided into 10 sub-windows that age out individually — a
	// slot-granular ring, not a sawtooth reset.
	Window time.Duration
	// Emit is the republish period; daemons typically run 1s. <= 0
	// disables the timer and the owner drives emission with EmitNow
	// (tests, virtual time).
	Emit time.Duration
	// Field is the numeric record field the quantile sketch folds
	// (default "VAL"); records without it still count toward rate and
	// top-k.
	Field string
	// TopK is how many sensors the top-k record carries (default 10).
	TopK int
	// Alpha is the sketch's relative accuracy (default DefaultAlpha).
	Alpha float64
	// Now supplies window time; nil means the wall clock. Deployments
	// on virtual time pass the scheduler's clock.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 10 * time.Second
	}
	if o.Field == "" {
		o.Field = "VAL"
	}
	if o.TopK <= 0 {
		o.TopK = 10
	}
	if o.Alpha <= 0 {
		o.Alpha = DefaultAlpha
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// slot is one sub-window of the ring: its record count per sensor and
// its sketch. A slot the ring zeroed is filled in by claim.
type slot struct {
	perSensor map[string]uint64
	sketch    *Sketch
}

// Aggregator folds a gateway's publish stream into sliding-window
// aggregates and republishes them under `_agg/` topics. It rides a
// silent wildcard bus tap — one fold (and one lock acquisition) per
// published batch, on the publish path, invisible to delivery
// counters — and registers the gateway's aggregate mover so a
// rebalancing handoff moves a sensor's in-window counts along with it.
type Aggregator struct {
	gw   *gateway.Gateway
	opts Options
	now  func() time.Time

	mu   sync.Mutex
	ring *window.Ring[slot]

	tap  *bus.Subscription
	stop chan struct{}
	done chan struct{}

	folded  atomic.Uint64
	emitted atomic.Uint64
}

// New attaches an aggregator to gw and starts its emit timer (unless
// opts.Emit <= 0). Close detaches it.
func New(gw *gateway.Gateway, opts Options) *Aggregator {
	opts = opts.withDefaults()
	a := &Aggregator{
		gw:   gw,
		opts: opts,
		now:  opts.Now,
		ring: window.NewRing[slot](opts.Window, subWindows),
		stop: make(chan struct{}),
	}
	a.tap = gw.Bus().TapBatch("", a.fold)
	gw.SetAggregateMover(&gateway.AggregateMover{Drain: a.drainSensor, Seed: a.seedSensor})
	if opts.Emit > 0 {
		a.done = make(chan struct{})
		go a.emitLoop(opts.Emit)
	}
	return a
}

// Close detaches the aggregator: the bus tap and mover are removed and
// the emit timer stopped. Already-published aggregate records remain
// in flight.
func (a *Aggregator) Close() {
	a.tap.Cancel()
	a.gw.SetAggregateMover(nil)
	close(a.stop)
	if a.done != nil {
		<-a.done
	}
}

// Folded returns how many records the aggregator folded; Emitted how
// many emit passes it ran.
func (a *Aggregator) Folded() uint64  { return a.folded.Load() }
func (a *Aggregator) Emitted() uint64 { return a.emitted.Load() }

func (a *Aggregator) emitLoop(period time.Duration) {
	defer close(a.done)
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-t.C:
			a.EmitNow()
		}
	}
}

// fold is the bus tap: every published batch of every raw topic lands
// here, possibly from several publishing goroutines at once. Only a
// finite field value is a measurement the sketch folds.
func (a *Aggregator) fold(topic string, recs []ulm.Record) {
	if strings.HasPrefix(topic, TopicPrefix) {
		return // our own output; never self-feed
	}
	now := a.now()
	a.mu.Lock()
	s := a.claim(a.ring.Current(now.UnixNano()))
	s.perSensor[topic] += uint64(len(recs))
	for i := range recs {
		if v, err := recs[i].Float(a.opts.Field); err == nil && window.Finite(v) {
			s.sketch.Add(v)
		}
	}
	a.mu.Unlock()
	a.folded.Add(uint64(len(recs)))
}

// claim fills in a slot the ring zeroed. Callers hold a.mu.
func (a *Aggregator) claim(s *slot) *slot {
	if s.perSensor == nil {
		s.perSensor = make(map[string]uint64)
		s.sketch = NewSketch(a.opts.Alpha)
	}
	return s
}

// EmitNow merges the live slots and republishes one record per
// aggregate kind under its `_agg/` topic — on the local bus only
// (bus-level publish, not gateway ingest), so synthetic topics never
// register as sensors, never hit the directory announcer, and never
// replicate; they exist exactly for subscriptions to find.
func (a *Aggregator) EmitNow() {
	now := a.now()

	a.mu.Lock()
	var count uint64
	perSensor := make(map[string]uint64)
	sketch := NewSketch(a.opts.Alpha)
	for _, s := range a.ring.Live(now.UnixNano()) {
		for sensor, c := range s.perSensor {
			perSensor[sensor] += c
			count += c
		}
		sketch.Merge(s.sketch) //nolint:errcheck // same alpha by construction
	}
	a.mu.Unlock()

	windowMS := strconv.FormatInt(a.opts.Window.Milliseconds(), 10)
	gwName := a.gw.Name()
	emit := func(topic, event string, fields ...ulm.Field) {
		rec := ulm.Record{Date: now, Host: gwName, Prog: "jamm.agg", Lvl: "Usage", Event: event,
			Fields: append([]ulm.Field{{Key: "GW", Value: gwName}, {Key: "WINDOW_MS", Value: windowMS}}, fields...)}
		a.gw.Bus().PublishBatch(topic, []ulm.Record{rec})
	}
	emit(TopicCount, EventCount,
		ulm.Field{Key: "COUNT", Value: strconv.FormatUint(count, 10)},
		ulm.Field{Key: "RATE", Value: strconv.FormatFloat(float64(count)/a.opts.Window.Seconds(), 'g', -1, 64)},
		ulm.Field{Key: "SENSORS", Value: strconv.Itoa(len(perSensor))})
	emit(TopicTopK, EventTopK,
		ulm.Field{Key: "K", Value: strconv.Itoa(a.opts.TopK)},
		ulm.Field{Key: "TOP", Value: encodeTop(topK(perSensor, a.opts.TopK))})
	emit(TopicQuantile, EventQuantile,
		ulm.Field{Key: "FIELD", Value: a.opts.Field},
		ulm.Field{Key: "N", Value: strconv.FormatUint(sketch.Count(), 10)},
		ulm.Field{Key: "P50", Value: strconv.FormatFloat(sketch.Quantile(0.50), 'g', -1, 64)},
		ulm.Field{Key: "P99", Value: strconv.FormatFloat(sketch.Quantile(0.99), 'g', -1, 64)},
		ulm.Field{Key: "SKETCH", Value: sketch.Encode()})
	a.emitted.Add(1)
}

// topK ranks sensors by in-window record count, descending, names
// ascending on ties (deterministic output for equal state).
func topK(perSensor map[string]uint64, k int) []SensorCount {
	out := make([]SensorCount, 0, len(perSensor))
	for sensor, c := range perSensor {
		out = append(out, SensorCount{Sensor: sensor, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Sensor < out[j].Sensor
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// drainSensor is the mover's Drain hook: it removes sensor's in-window
// per-slot counts and returns them, oldest first (the gateway ships
// them as "startNanos:count" pairs). The quantile sketch is
// field-global (samples are not attributed to sensors), so its
// contribution stays and ages out with the window — the documented
// accuracy tradeoff of a handoff.
func (a *Aggregator) drainSensor(sensor string) []window.Slot {
	now := a.now().UnixNano()
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []window.Slot
	for start, s := range a.ring.Live(now) {
		c := s.perSensor[sensor]
		if c == 0 {
			continue
		}
		delete(s.perSensor, sensor)
		out = append(out, window.Slot{Start: start, Stat: window.Stat{Count: c}})
	}
	return out
}

// seedSensor is the mover's Seed hook: each drained slot's count adds
// into the local slot covering its start. A slot already out of the
// ring is dropped (it would have aged out here too); one newer than the
// current slot folds into the current one.
func (a *Aggregator) seedSensor(sensor string, slots []window.Slot) {
	now := a.now().UnixNano()
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, sl := range slots {
		if p := a.ring.Seed(sl.Start, now); p != nil {
			a.claim(p).perSensor[sensor] += sl.Count
		}
	}
}
