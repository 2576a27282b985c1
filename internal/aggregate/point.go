package aggregate

// Consumer-side decoding and site-wide merging of `_agg/` records.
// Each gateway's aggregator speaks for its own sensors, so a site-wide
// view is a merge over the latest record per (gateway, kind): counts
// and rates sum (sensors are partitioned across gateways by placement,
// so sums do not double-count), top-k lists merge by summing per-sensor
// counts and re-ranking, and quantile sketches merge bucket-wise.

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"jamm/internal/ulm"
)

// SensorCount is one top-k entry: a sensor and its in-window record
// count.
type SensorCount struct {
	Sensor string `json:"sensor"`
	Count  uint64 `json:"count"`
}

// CountPoint is one decoded AGG_COUNT record.
type CountPoint struct {
	GW      string        `json:"gw"`
	Date    time.Time     `json:"date"`
	Window  time.Duration `json:"window"`
	Count   uint64        `json:"count"`
	Rate    float64       `json:"rate"`
	Sensors int           `json:"sensors"`
}

// TopKPoint is one decoded AGG_TOPK record.
type TopKPoint struct {
	GW     string        `json:"gw"`
	Date   time.Time     `json:"date"`
	Window time.Duration `json:"window"`
	K      int           `json:"k"`
	Top    []SensorCount `json:"top"`
}

// QuantilePoint is one decoded AGG_QUANT record. Sketch is nil when
// the record carried none (it always does for this package's emitters).
type QuantilePoint struct {
	GW     string        `json:"gw"`
	Date   time.Time     `json:"date"`
	Window time.Duration `json:"window"`
	Field  string        `json:"field"`
	N      uint64        `json:"n"`
	P50    float64       `json:"p50"`
	P99    float64       `json:"p99"`
	Sketch *Sketch       `json:"-"`
}

// point is a decoded aggregate record as Site keeps it; at returns its
// date and the window it covers.
type point interface {
	at() (time.Time, time.Duration)
}

func (p CountPoint) at() (time.Time, time.Duration)    { return p.Date, p.Window }
func (p TopKPoint) at() (time.Time, time.Duration)     { return p.Date, p.Window }
func (p QuantilePoint) at() (time.Time, time.Duration) { return p.Date, p.Window }

// recBase checks rec is an aggregate record of the event and returns
// its gateway and window.
func recBase(rec ulm.Record, event string) (gw string, window time.Duration, err error) {
	if rec.Event != event {
		return "", 0, fmt.Errorf("aggregate: not an %s record: %q", event, rec.Event)
	}
	gw, _ = rec.Get("GW")
	ms, ok := rec.Get("WINDOW_MS")
	if gw == "" || !ok {
		return "", 0, fmt.Errorf("aggregate: record missing GW/WINDOW_MS")
	}
	msv, err := strconv.ParseInt(ms, 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("aggregate: bad WINDOW_MS %q", ms)
	}
	return gw, time.Duration(msv) * time.Millisecond, nil
}

// ParseCount decodes an AGG_COUNT record.
func ParseCount(rec ulm.Record) (CountPoint, error) {
	gw, window, err := recBase(rec, EventCount)
	if err != nil {
		return CountPoint{}, err
	}
	p := CountPoint{GW: gw, Date: rec.Date, Window: window}
	if v, err := rec.Float("COUNT"); err == nil {
		p.Count = uint64(v)
	}
	if v, err := rec.Float("RATE"); err == nil {
		p.Rate = v
	}
	if v, err := rec.Float("SENSORS"); err == nil {
		p.Sensors = int(v)
	}
	return p, nil
}

// ParseTopK decodes an AGG_TOPK record.
func ParseTopK(rec ulm.Record) (TopKPoint, error) {
	gw, window, err := recBase(rec, EventTopK)
	if err != nil {
		return TopKPoint{}, err
	}
	p := TopKPoint{GW: gw, Date: rec.Date, Window: window}
	if v, err := rec.Float("K"); err == nil {
		p.K = int(v)
	}
	if top, ok := rec.Get("TOP"); ok {
		p.Top = decodeTop(top)
	}
	return p, nil
}

// ParseQuantile decodes an AGG_QUANT record.
func ParseQuantile(rec ulm.Record) (QuantilePoint, error) {
	gw, window, err := recBase(rec, EventQuantile)
	if err != nil {
		return QuantilePoint{}, err
	}
	p := QuantilePoint{GW: gw, Date: rec.Date, Window: window}
	p.Field, _ = rec.Get("FIELD")
	if v, err := rec.Float("N"); err == nil {
		p.N = uint64(v)
	}
	if v, err := rec.Float("P50"); err == nil {
		p.P50 = v
	}
	if v, err := rec.Float("P99"); err == nil {
		p.P99 = v
	}
	if enc, ok := rec.Get("SKETCH"); ok {
		if sk, err := DecodeSketch(enc); err == nil {
			p.Sketch = sk
		}
	}
	return p, nil
}

// encodeTop flattens a ranking into the TOP field:
// "sensor:count|sensor:count|...".
func encodeTop(top []SensorCount) string {
	var b strings.Builder
	for i, sc := range top {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(sc.Sensor)
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(sc.Count, 10))
	}
	return b.String()
}

// decodeTop parses a TOP field. The count follows the LAST colon, so
// sensor names containing colons survive the round trip.
func decodeTop(in string) []SensorCount {
	if in == "" {
		return nil
	}
	var out []SensorCount
	for _, part := range strings.Split(in, "|") {
		i := strings.LastIndexByte(part, ':')
		if i < 0 {
			continue
		}
		c, err := strconv.ParseUint(part[i+1:], 10, 64)
		if err != nil {
			continue
		}
		out = append(out, SensorCount{Sensor: part[:i], Count: c})
	}
	return out
}

// SiteView is the merged site-wide aggregate state: one point per
// kind, nil until at least one gateway reported that kind. GW on a
// merged point is "site".
type SiteView struct {
	Gateways int            `json:"gateways"`
	Count    *CountPoint    `json:"count,omitempty"`
	TopK     *TopKPoint     `json:"topk,omitempty"`
	Quantile *QuantilePoint `json:"quantile,omitempty"`
}

// Site accumulates the latest aggregate record per (gateway, kind) and
// merges them into a site-wide view. Gateways that stop reporting are
// evicted once their last point is staleWindows windows older than the
// newest point of the same kind, so a dead gateway's final aggregates
// do not haunt the site view forever. Safe for concurrent use.
type Site struct {
	mu     sync.Mutex
	counts map[string]CountPoint
	topks  map[string]TopKPoint
	quants map[string]QuantilePoint
}

// staleWindows is the eviction horizon for a silent gateway's
// contribution, in multiples of its window.
const staleWindows = 3

// NewSite returns an empty site-wide merger.
func NewSite() *Site {
	return &Site{
		counts: make(map[string]CountPoint),
		topks:  make(map[string]TopKPoint),
		quants: make(map[string]QuantilePoint),
	}
}

// Observe folds one delivered record into the site state, reporting
// whether it was an aggregate record (others are ignored, so a mixed
// stream can be fed through unfiltered). Older records never replace
// newer ones from the same gateway — bridged paths may reorder.
func (s *Site) Observe(rec ulm.Record) bool {
	switch rec.Event {
	case EventCount:
		p, err := ParseCount(rec)
		return err == nil && keepNewer(&s.mu, s.counts, p.GW, p)
	case EventTopK:
		p, err := ParseTopK(rec)
		return err == nil && keepNewer(&s.mu, s.topks, p.GW, p)
	case EventQuantile:
		p, err := ParseQuantile(rec)
		return err == nil && keepNewer(&s.mu, s.quants, p.GW, p)
	}
	return false
}

// keepNewer makes p gw's point in m unless m holds a newer one. It
// reports true: p was an aggregate record.
func keepNewer[P point](mu *sync.Mutex, m map[string]P, gw string, p P) bool {
	mu.Lock()
	defer mu.Unlock()
	t, _ := p.at()
	old, ok := m[gw]
	if ot, _ := old.at(); !ok || !t.Before(ot) {
		m[gw] = p
	}
	return true
}

// View merges the per-gateway state into the site-wide aggregate.
func (s *Site) View() SiteView {
	s.mu.Lock()
	defer s.mu.Unlock()
	var v SiteView
	gateways := make(map[string]bool)

	evictStale(s.counts)
	if len(s.counts) > 0 {
		merged := CountPoint{GW: "site"}
		for gw, p := range s.counts {
			gateways[gw] = true
			merged.Count += p.Count
			merged.Rate += p.Rate
			merged.Sensors += p.Sensors
			widen(&merged.Date, &merged.Window, p)
		}
		v.Count = &merged
	}

	evictStale(s.topks)
	if len(s.topks) > 0 {
		merged := TopKPoint{GW: "site"}
		bySensor := make(map[string]uint64)
		for gw, p := range s.topks {
			gateways[gw] = true
			if p.K > merged.K {
				merged.K = p.K
			}
			widen(&merged.Date, &merged.Window, p)
			for _, sc := range p.Top {
				bySensor[sc.Sensor] += sc.Count
			}
		}
		merged.Top = topK(bySensor, merged.K)
		v.TopK = &merged
	}

	evictStale(s.quants)
	if len(s.quants) > 0 {
		merged := QuantilePoint{GW: "site"}
		var sketch *Sketch
		for gw, p := range s.quants {
			gateways[gw] = true
			merged.N += p.N
			widen(&merged.Date, &merged.Window, p)
			if merged.Field == "" {
				merged.Field = p.Field
			}
			if p.Sketch != nil {
				if sketch == nil {
					sketch = NewSketch(p.Sketch.alpha)
				}
				sketch.Merge(p.Sketch) //nolint:errcheck // alphas match per emitter config
			}
		}
		if sketch != nil {
			merged.Sketch = sketch
			merged.P50 = sketch.Quantile(0.50)
			merged.P99 = sketch.Quantile(0.99)
		} else if len(s.quants) == 1 {
			// No sketch to re-derive from: a single gateway's point
			// passes through unchanged.
			for _, p := range s.quants {
				merged.P50, merged.P99 = p.P50, p.P99
			}
		}
		v.Quantile = &merged
	}

	v.Gateways = len(gateways)
	return v
}

// evictStale drops per-gateway points staleWindows windows older than
// the newest point in the map.
func evictStale[P point](m map[string]P) {
	var newest time.Time
	for _, p := range m {
		if t, _ := p.at(); t.After(newest) {
			newest = t
		}
	}
	for gw, p := range m {
		t, w := p.at()
		if w > 0 && t.Add(staleWindows*w).Before(newest) {
			delete(m, gw)
		}
	}
}

// widen moves a merged point's date and window up to p's.
func widen[P point](date *time.Time, window *time.Duration, p P) {
	t, w := p.at()
	if t.After(*date) {
		*date = t
	}
	*window = max(*window, w)
}

// Keys of the per-gateway maps, sorted — a debugging aid for jammctl.
func (s *Site) Reporting() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := slices.Concat(slices.Collect(maps.Keys(s.counts)), slices.Collect(maps.Keys(s.topks)), slices.Collect(maps.Keys(s.quants)))
	slices.Sort(out)
	return slices.Compact(out)
}
