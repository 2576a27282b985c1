package gateway

import (
	"fmt"
	"strconv"

	"jamm/internal/bus"
	"jamm/internal/ulm"
)

// DeliverMode selects the gateway-side filtering for a subscription.
type DeliverMode int

// Delivery modes.
const (
	// DeliverAll forwards every event.
	DeliverAll DeliverMode = iota
	// DeliverOnChange forwards an event only when the watched field's
	// value differs from the last forwarded value — "most consumers
	// only want to be notified when the counter changes, and not every
	// second".
	DeliverOnChange
	// DeliverThreshold forwards an event only on threshold crossings
	// (Above/Below) or relative changes exceeding DeltaFrac.
	DeliverThreshold
)

func (m DeliverMode) String() string {
	switch m {
	case DeliverAll:
		return "all"
	case DeliverOnChange:
		return "change"
	case DeliverThreshold:
		return "threshold"
	}
	return "unknown"
}

// ParseMode parses a delivery-mode name ("all", "change", "threshold").
func ParseMode(s string) (DeliverMode, error) {
	switch s {
	case "all", "":
		return DeliverAll, nil
	case "change":
		return DeliverOnChange, nil
	case "threshold":
		return DeliverThreshold, nil
	}
	return 0, fmt.Errorf("gateway: unknown delivery mode %q", s)
}

// Request describes what a consumer wants from the gateway.
type Request struct {
	// Principal is the requesting identity (certificate subject DN);
	// empty means anonymous.
	Principal string `json:"principal,omitempty"`
	// Sensor names one registered sensor, or "" for all sensors.
	Sensor string `json:"sensor,omitempty"`
	// Prefix makes Sensor a topic prefix instead of an exact name: the
	// subscription delivers every sensor (bus topic) under it. This is
	// how one wire subscription covers a synthetic topic family — a
	// dashboard subscribes to {Sensor: "_agg/", Prefix: true} and
	// receives every aggregate stream the gateway computes. Prefix
	// requests are served records (never sealed frames, see PassThrough)
	// and do not contribute to per-sensor consumer counts.
	Prefix bool `json:"prefix,omitempty"`
	// Events restricts delivery to the named event types; empty means
	// all events.
	Events []string `json:"events,omitempty"`
	// Mode is the delivery policy.
	Mode DeliverMode `json:"mode"`
	// Field is the watched field for change/threshold modes;
	// default "VAL".
	Field string `json:"field,omitempty"`
	// Above delivers when the watched value crosses from ≤ to >.
	Above *float64 `json:"above,omitempty"`
	// Below delivers when the watched value crosses from ≥ to <.
	Below *float64 `json:"below,omitempty"`
	// DeltaFrac delivers when the value changes by more than this
	// fraction of the last delivered value (0.2 = 20%).
	DeltaFrac float64 `json:"delta_frac,omitempty"`
}

func (r Request) watchedField() string {
	if r.Field == "" {
		return "VAL"
	}
	return r.Field
}

// filter is a request's gateway-side delivery policy, compiled into a
// bus hook. The bus serializes hook invocations per subscription, so
// the policy state needs no locking of its own.
type filter struct {
	req Request

	haveLast bool    // an observation exists
	lastObs  float64 // last observed value (crossing detection)
	haveSent bool    // a delivery exists
	lastSent float64 // last delivered value (delta reference)
	// lastRaw is the last delivered raw value (on-change): a copy in
	// the filter's own buffer, because the record it came from may share
	// its frame's string arena (ulm.DecodeBinaryBatch), which a retained
	// substring would keep alive.
	lastRaw []byte
}

func newFilter(req Request) *filter { return &filter{req: req} }

// hook compiles the filter into the bus hook evaluated on the publish
// path. Requests with no event scope and no delivery policy compile to
// nil — the bus's hookless deliver-everything fast path.
func (f *filter) hook() bus.Hook {
	if f.req.Mode == DeliverAll && len(f.req.Events) == 0 {
		return nil
	}
	return func(_ string, rec ulm.Record) bus.Decision {
		if !f.inScope(rec) {
			return bus.Skip
		}
		if f.passes(rec) {
			return bus.Deliver
		}
		return bus.Suppress
	}
}

// inScope applies the event-type filter: out-of-scope records are
// skipped, not suppressed.
func (f *filter) inScope(rec ulm.Record) bool {
	if len(f.req.Events) == 0 {
		return true
	}
	for _, e := range f.req.Events {
		if e == rec.Event {
			return true
		}
	}
	return false
}

// passes applies the delivery policy, updating the filter state.
func (f *filter) passes(rec ulm.Record) bool {
	switch f.req.Mode {
	case DeliverAll:
		return true
	case DeliverOnChange:
		raw, ok := rec.Get(f.req.watchedField())
		if !ok {
			return true // unmeasurable: pass through
		}
		if f.haveLast && raw == string(f.lastRaw) {
			return false
		}
		f.haveLast = true
		f.lastRaw = append(f.lastRaw[:0], raw...)
		return true
	case DeliverThreshold:
		raw, ok := rec.Get(f.req.watchedField())
		if !ok {
			return false
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return false
		}
		pass := false
		if f.haveLast {
			// Crossing detection compares against the last observation.
			if f.req.Above != nil && f.lastObs <= *f.req.Above && v > *f.req.Above {
				pass = true
			}
			if f.req.Below != nil && f.lastObs >= *f.req.Below && v < *f.req.Below {
				pass = true
			}
		} else {
			// First observation: deliver if already past an edge.
			if f.req.Above != nil && v > *f.req.Above {
				pass = true
			}
			if f.req.Below != nil && v < *f.req.Below {
				pass = true
			}
		}
		if f.req.DeltaFrac > 0 {
			// "Load changes by more than 20%": the reference is the
			// last delivered value, so small drifts accumulate until
			// they cross the fraction. The first observation is
			// delivered to establish the baseline.
			if !f.haveSent {
				pass = true
			} else {
				base := abs(f.lastSent)
				diff := abs(v - f.lastSent)
				if base == 0 {
					if diff != 0 {
						pass = true
					}
				} else if diff/base > f.req.DeltaFrac {
					pass = true
				}
			}
		}
		f.haveLast = true
		f.lastObs = v
		if pass {
			f.haveSent = true
			f.lastSent = v
		}
		return pass
	}
	return true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
