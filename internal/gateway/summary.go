package gateway

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"jamm/internal/auth"
	"jamm/internal/ulm"
	"jamm/internal/window"
)

type summaryKey struct{ sensor, event, field string }

// summarySlots is how many slots each summary window keeps: a window W
// is summarized in slots of width ⌈W/60⌉.
const summarySlots = 60

// summaryState is one summarized series: one slot ring per window. Its
// folding runs as a batch bus tap on the publish path — one tap call
// and one lock acquisition per published batch, possibly from several
// publishing goroutines at once — while Summary reads from consumer
// goroutines, so it carries its own lock.
type summaryState struct {
	windows []time.Duration // ascending, immutable
	tap     interface{ Cancel() bool }

	mu    sync.Mutex
	rings []*window.Ring[window.Stat] // rings[i] summarizes windows[i]
	cur   []*window.Stat              // a fold's current slots, reused
}

// SummaryPoint is one summary window's statistics.
type SummaryPoint struct {
	Window time.Duration `json:"window"`
	Avg    float64       `json:"avg"`
	Min    float64       `json:"min"`
	Max    float64       `json:"max"`
	Count  int           `json:"count"`
}

// DefaultSummaryWindows are the paper's 1, 10 and 60 minute averages.
var DefaultSummaryWindows = []time.Duration{time.Minute, 10 * time.Minute, 60 * time.Minute}

// EnableSummary makes the gateway compute windowed statistics for one
// (sensor, event, field) series, replacing any it computed before.
// Empty windows means the paper's 1/10/60-minute defaults. The summary
// is a silent batch bus tap on the sensor's topic: it folds each
// published batch into the window under one state-lock acquisition, on
// the publish path, without touching delivery counters.
func (g *Gateway) EnableSummary(sensorName, event, field string, windows ...time.Duration) {
	g.summary(summaryKey{sensorName, event, orVAL(field)}, windows, true)
}

func orVAL(field string) string {
	if field == "" {
		return "VAL"
	}
	return field
}

// summary returns key's series. When there is none, or replace is set,
// it installs a fresh one over windows first.
func (g *Gateway) summary(key summaryKey, windows []time.Duration, replace bool) *summaryState {
	g.sumMu.Lock()
	defer g.sumMu.Unlock()
	if old, ok := g.summaries[key]; ok {
		if !replace {
			return old
		}
		old.tap.Cancel()
	}
	if len(windows) == 0 {
		windows = DefaultSummaryWindows
	}
	st := &summaryState{windows: slices.Sorted(slices.Values(windows))}
	for _, w := range st.windows {
		st.rings = append(st.rings, window.NewRing[window.Stat](w, summarySlots))
	}
	st.tap = g.bus.TapBatch(key.sensor, func(topic string, recs []ulm.Record) {
		if topic == key.sensor {
			st.addBatch(g.now(), key.event, key.field, recs)
		}
	})
	g.summaries[key] = st
	return st
}

// Summary returns the windowed statistics of a summarized series. A
// window W is kept in 60 slots of width w = ⌈W/60⌉, aligned to absolute
// time. Its answer is the exact count, min, max and average of the
// samples folded into its 60 most recent slots, the current one
// counted: those that arrived in the last 59·w, plus the part of the
// current slot already past. That is at least W − W/60 and at most W
// (rounded up to whole nanoseconds a slot) of arrival time.
func (g *Gateway) Summary(principal, sensorName, event, field string) ([]SummaryPoint, error) {
	field = orVAL(field)
	if err := g.authorize(principal, sensorName, auth.ActionSummary); err != nil {
		return nil, err
	}
	g.sumMu.Lock()
	st, ok := g.summaries[summaryKey{sensorName, event, field}]
	g.sumMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("gateway: no summary for %s/%s/%s", sensorName, event, field)
	}
	return st.points(g.now()), nil
}

// addBatch folds one published batch: it finds each window's current
// slot once, then adds every matching sample to them, under one lock
// acquisition. A value that is not a number, NaN and ±Inf included, is
// no measurement and is not folded.
func (st *summaryState) addBatch(now time.Time, event, field string, recs []ulm.Record) {
	t := now.UnixNano()
	st.mu.Lock()
	defer st.mu.Unlock()
	cur := st.cur[:0]
	for _, r := range st.rings {
		cur = append(cur, r.Current(t))
	}
	st.cur = cur
	for i := range recs {
		if recs[i].Event != event {
			continue
		}
		if v, err := recs[i].Float(field); err == nil && window.Finite(v) {
			for _, s := range cur {
				s.Add(v)
			}
		}
	}
}

// points answers every window at now: one walk over each ring's live
// slots.
func (st *summaryState) points(now time.Time) []SummaryPoint {
	t := now.UnixNano()
	out := make([]SummaryPoint, len(st.windows))
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, r := range st.rings {
		var sum window.Stat
		for _, s := range r.Live(t) {
			sum.Merge(*s)
		}
		out[i] = SummaryPoint{Window: st.windows[i], Min: sum.Min, Max: sum.Max, Count: int(sum.Count)}
		if sum.Count > 0 {
			out[i].Avg = sum.Sum / float64(sum.Count)
		}
	}
	return out
}

// SummarySeries is one summarized series' window state, the unit a
// rebalancing handoff moves: seeding it at the new owner continues the
// old owner's Summary answers instead of rebuilding them from scratch
// over the next window-length of traffic. Slots holds one ring per
// window, in WindowsMS order, each its live slots in the
// "start:count:sum:min:max" encoding of package window.
type SummarySeries struct {
	Event     string   `json:"event"`
	Field     string   `json:"field"`
	WindowsMS []int64  `json:"windows_ms"`
	Slots     []string `json:"slots,omitempty"`
}

// drainSummaries removes and returns every summarized series of
// sensor: the taps are cancelled and the slot rings encoded, so the
// drained state has exactly one owner from here on.
func (g *Gateway) drainSummaries(sensor string) []SummarySeries {
	now := g.now().UnixNano()
	var out []SummarySeries
	g.sumMu.Lock()
	for key, st := range g.summaries {
		if key.sensor == sensor {
			delete(g.summaries, key)
			st.tap.Cancel()
			out = append(out, st.drain(key, now))
		}
	}
	g.sumMu.Unlock()
	slices.SortFunc(out, func(a, b SummarySeries) int {
		return cmp.Or(strings.Compare(a.Event, b.Event), strings.Compare(a.Field, b.Field))
	})
	return out
}

// drain encodes each window's live slots.
func (st *summaryState) drain(key summaryKey, now int64) SummarySeries {
	s := SummarySeries{Event: key.event, Field: key.field}
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, w := range st.windows {
		var slots []window.Slot
		for start, stat := range st.rings[i].Live(now) {
			if stat.Count > 0 {
				slots = append(slots, window.Slot{Start: start, Stat: *stat})
			}
		}
		s.WindowsMS = append(s.WindowsMS, w.Milliseconds())
		s.Slots = append(s.Slots, window.Encode(slots, false))
	}
	return s
}

// SeedState installs a sensor's handed-off read state at its new owner,
// the second half of a rebalancing move. Each summary series' slots
// add into the local series, which is created with the handed-off
// windows if it does not exist: a seeded slot adds into the local slot
// covering its start, one already out of the ring is dropped, and one
// newer than the current slot folds into the current one (the old
// owner's clock ran ahead). agg, the drained aggregate contribution,
// goes to the aggregation plane. Nothing is installed unless all of it
// is valid: every window positive and within a time.Duration, one slot
// ring per window, and every slot as package window parses it.
func (g *Gateway) SeedState(sensor string, series []SummarySeries, agg string) error {
	windows := make([][]time.Duration, len(series))
	rings := make([][][]window.Slot, len(series))
	for i, s := range series {
		if len(s.Slots) > 0 && len(s.Slots) != len(s.WindowsMS) {
			return fmt.Errorf("gateway: seed %s/%s: %d slot rings for %d windows", sensor, s.Event, len(s.Slots), len(s.WindowsMS))
		}
		for j, ms := range s.WindowsMS {
			if ms <= 0 || ms > math.MaxInt64/int64(time.Millisecond) {
				return fmt.Errorf("gateway: seed %s/%s: window of %d ms", sensor, s.Event, ms)
			}
			windows[i] = append(windows[i], time.Duration(ms)*time.Millisecond)
			if j < len(s.Slots) {
				slots, err := window.Parse(s.Slots[j], false)
				if err != nil {
					return fmt.Errorf("gateway: seed %s/%s: %w", sensor, s.Event, err)
				}
				rings[i] = append(rings[i], slots)
			}
		}
	}
	aggSlots, err := window.Parse(agg, true)
	if err != nil {
		return fmt.Errorf("gateway: seed %s aggregate: %w", sensor, err)
	}
	if m := g.aggMover.Load(); m != nil && m.Seed != nil && len(aggSlots) > 0 {
		m.Seed(sensor, aggSlots)
	}
	now := g.now().UnixNano()
	for i, s := range series {
		g.summary(summaryKey{sensor, s.Event, orVAL(s.Field)}, windows[i], false).seed(now, windows[i], rings[i])
	}
	return nil
}

// seed adds handed-off rings into the windows of the same length.
func (st *summaryState) seed(now int64, windows []time.Duration, rings [][]window.Slot) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, slots := range rings {
		j := slices.Index(st.windows, windows[i])
		if j < 0 {
			continue
		}
		for _, s := range slots {
			if p := st.rings[j].Seed(s.Start, now); p != nil {
				p.Merge(s.Stat)
			}
		}
	}
}
