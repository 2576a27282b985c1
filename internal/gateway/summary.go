package gateway

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"jamm/internal/auth"
	"jamm/internal/ulm"
)

type summaryKey struct{ sensor, event, field string }

type sample struct {
	t time.Time
	v float64
}

// summaryState is one summarized series' sliding sample window. Its
// folding runs as a batch bus tap on the publish path — one tap call
// and one lock acquisition per published batch, possibly from several
// publishing goroutines at once — while Summary reads from consumer
// goroutines, so it carries its own lock.
type summaryState struct {
	mu      sync.Mutex
	windows []time.Duration
	samples []sample
}

type summaryEntry struct {
	st  *summaryState
	tap interface{ Cancel() bool }
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
// (sensor, event, field) series. Empty windows means the paper's
// 1/10/60-minute defaults. The summary is a silent batch bus tap on
// the sensor's topic: it folds each published batch into the window
// under one state-lock acquisition, on the publish path, without
// touching delivery counters.
func (g *Gateway) EnableSummary(sensorName, event, field string, windows ...time.Duration) {
	if field == "" {
		field = "VAL"
	}
	if len(windows) == 0 {
		windows = DefaultSummaryWindows
	}
	sorted := append([]time.Duration(nil), windows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	st := &summaryState{windows: sorted}
	tap := g.bus.TapBatch(sensorName, func(topic string, recs []ulm.Record) {
		if topic != sensorName {
			return
		}
		st.addBatch(g.now(), event, field, recs)
	})
	key := summaryKey{sensorName, event, field}
	g.sumMu.Lock()
	if old, ok := g.summaries[key]; ok {
		old.tap.Cancel()
	}
	g.summaries[key] = &summaryEntry{st: st, tap: tap}
	g.sumMu.Unlock()
}

// Summary returns the windowed statistics for a summarized series, over
// every sample folded before the call.
func (g *Gateway) Summary(principal, sensorName, event, field string) ([]SummaryPoint, error) {
	if field == "" {
		field = "VAL"
	}
	if err := g.authorize(principal, sensorName, auth.ActionSummary); err != nil {
		return nil, err
	}
	g.sumMu.Lock()
	e, ok := g.summaries[summaryKey{sensorName, event, field}]
	g.sumMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("gateway: no summary for %s/%s/%s", sensorName, event, field)
	}
	return e.st.points(g.now()), nil
}

// addBatch folds one published batch into the window: scan for
// matching samples, append them, and trim the window once — one lock
// acquisition per batch instead of per record. A value that is not a
// number, NaN and ±Inf included, is no measurement and is not folded.
func (st *summaryState) addBatch(now time.Time, event, field string, recs []ulm.Record) {
	st.mu.Lock()
	defer st.mu.Unlock()
	folded := false
	for i := range recs {
		if recs[i].Event != event {
			continue
		}
		if v, err := recs[i].Float(field); err == nil && !math.IsNaN(v) && !math.IsInf(v, 0) {
			st.samples = append(st.samples, sample{now, v})
			folded = true
		}
	}
	if folded {
		st.trimLocked(now)
	}
}

// trimLocked drops the samples older than the largest window by
// reslicing: it moves no sample, so a window read in place by points
// stays intact.
func (st *summaryState) trimLocked(now time.Time) {
	maxWin := st.windows[len(st.windows)-1]
	cutoff := now.Add(-maxWin)
	trim := 0
	for trim < len(st.samples) && st.samples[trim].t.Before(cutoff) {
		trim++
	}
	st.samples = st.samples[trim:]
}

// points computes the window statistics in one pass over the sample
// window, read in place: the state lock covers only taking the slice
// header. Nothing rewrites a sample below a slice's length — addBatch
// appends past it, trimLocked reslices and seedSamples merges into a
// new slice — so a publish folding into the series is never stalled
// behind a consumer's statistics pass, and the pass copies nothing.
// Each sample is counted in the smallest window that holds it; the
// windows are then accumulated from the smallest up, as a sample within
// one window is within every larger one.
func (st *summaryState) points(now time.Time) []SummaryPoint {
	st.mu.Lock()
	samples := st.samples
	st.mu.Unlock()
	out := make([]SummaryPoint, len(st.windows)) // windows: immutable, ascending
	for i, w := range st.windows {
		out[i].Window = w
	}
	for _, s := range samples {
		age := now.Sub(s.t)
		i := 0
		for i < len(out) && age > out[i].Window {
			i++
		}
		if i < len(out) {
			out[i].fold(SummaryPoint{Avg: s.v, Min: s.v, Max: s.v, Count: 1})
		}
	}
	for i := 1; i < len(out); i++ {
		out[i].fold(out[i-1])
	}
	for i := range out {
		if out[i].Count > 0 {
			out[i].Avg /= float64(out[i].Count)
		}
	}
	return out
}

// fold adds in's samples to pt; Avg holds both their sums.
func (pt *SummaryPoint) fold(in SummaryPoint) {
	if in.Count == 0 {
		return
	}
	if pt.Count == 0 || in.Min < pt.Min {
		pt.Min = in.Min
	}
	if pt.Count == 0 || in.Max > pt.Max {
		pt.Max = in.Max
	}
	pt.Avg += in.Avg
	pt.Count += in.Count
}

// SummarySample is one drained sample of a summarized series, in
// handoff-portable form (UTC microseconds since the epoch — the ULM
// DATE precision).
type SummarySample struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// SummarySeries is one summarized series' full window state, the unit
// a rebalancing handoff moves: re-enabling the summary at the new
// owner with these windows and seeding these samples reproduces the
// old owner's Summary answers instead of rebuilding them from scratch
// over the next window-length of traffic.
type SummarySeries struct {
	Event     string          `json:"event"`
	Field     string          `json:"field"`
	WindowsMS []int64         `json:"windows_ms"`
	Samples   []SummarySample `json:"samples,omitempty"`
}

// drainSummaries removes and returns every summarized series of
// sensor: the taps are cancelled and the sample windows extracted, so
// the drained state has exactly one owner from here on.
func (g *Gateway) drainSummaries(sensor string) []SummarySeries {
	g.sumMu.Lock()
	var drained []*summaryEntry
	var keys []summaryKey
	for key, e := range g.summaries {
		if key.sensor != sensor {
			continue
		}
		keys = append(keys, key)
		drained = append(drained, e)
		delete(g.summaries, key)
	}
	g.sumMu.Unlock()
	out := make([]SummarySeries, 0, len(drained))
	for i, e := range drained {
		e.tap.Cancel()
		e.st.mu.Lock()
		samples := append([]sample(nil), e.st.samples...)
		e.st.mu.Unlock()
		s := SummarySeries{Event: keys[i].event, Field: keys[i].field}
		for _, w := range e.st.windows {
			s.WindowsMS = append(s.WindowsMS, w.Milliseconds())
		}
		for _, sm := range samples {
			s.Samples = append(s.Samples, SummarySample{T: sm.t.UnixMicro(), V: sm.v})
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Event != out[j].Event {
			return out[i].Event < out[j].Event
		}
		return out[i].Field < out[j].Field
	})
	return out
}

// SeedSummaries installs handed-off summary state for sensor: each
// series is (re-)enabled with its drained windows and its sample
// window is merged in, so the new owner's Summary answers continue
// where the old owner's stopped instead of starting empty. Samples
// older than the largest window are dropped on merge.
func (g *Gateway) SeedSummaries(sensor string, series []SummarySeries) {
	now := g.now()
	for _, s := range series {
		windows := make([]time.Duration, 0, len(s.WindowsMS))
		for _, ms := range s.WindowsMS {
			windows = append(windows, time.Duration(ms)*time.Millisecond)
		}
		g.EnableSummary(sensor, s.Event, s.Field, windows...)
		field := s.Field
		if field == "" {
			field = "VAL"
		}
		g.sumMu.Lock()
		e, ok := g.summaries[summaryKey{sensor, s.Event, field}]
		g.sumMu.Unlock()
		if !ok {
			continue
		}
		e.st.seedSamples(now, s.Samples)
	}
}

// seedSamples merges handed-off samples into the window. The live tap
// may already have folded newer samples, so the merged window is
// sorted by time and trimmed. It is a new slice: the old one may be
// being read in place (points).
func (st *summaryState) seedSamples(now time.Time, in []SummarySample) {
	st.mu.Lock()
	defer st.mu.Unlock()
	merged := make([]sample, len(st.samples), len(st.samples)+len(in))
	copy(merged, st.samples)
	for _, s := range in {
		merged = append(merged, sample{time.UnixMicro(s.T).UTC(), s.V})
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].t.Before(merged[j].t) })
	st.samples = merged
	st.trimLocked(now)
}
