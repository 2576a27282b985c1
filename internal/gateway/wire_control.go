package gateway

import (
	"encoding/json"
	"math"
	"strconv"
	"sync/atomic"
	"time"
)

// Control messages — requests one way; answers, acks, errors, drop
// counters and eof markers the other — are one JSON object each in both
// framings: a line of its own in JSON lines, the payload of a control
// frame in binary framing. The bytes are encoding/json's, the
// reflection is not. appendRequest and appendResponse write exactly what
// json.Marshal makes of a wireRequest or a wireResponse: the fields in
// struct order, omitempty as tagged, strings escaped by
// appendJSONString, floats in encoding/json's format. scanRequest and
// inboundEvents.scan read them on a lineParser. Between them they cover
// the messages of ping, query, summary, hello, subscribe, batch_max and
// history and their answers. Everything else — a listing, coverage
// spans, a handoff's or a seed_state's state, a threshold filter, a
// publish's records; a key in another case or twice, a null, a number
// that is not a plain integer where an integer goes, a float
// encoding/json refuses — is encoding/json's to read or write, here and
// nowhere else in the package. So what the wire accepts, and every byte
// it answers, is encoding/json's by construction; controlFallbacks
// counts the messages that took that path. The fallbacks hand
// encoding/json a copy, never the caller's message: what reflection is
// given escapes to the heap, and the caller's wireRequest or
// wireResponse is meant to stay on its stack.

// controlFallbacks counts the control messages, read or written at either
// end of a connection, that went through encoding/json.
var controlFallbacks atomic.Uint64

// marshalRequest appends req to dst as JSON.
func marshalRequest(dst []byte, req *wireRequest) ([]byte, error) {
	if out, ok := appendRequest(dst, req); ok {
		return out, nil
	}
	controlFallbacks.Add(1)
	data, err := json.Marshal(*req)
	return append(dst, data...), err
}

// marshalResponse appends resp to dst as JSON. An answer encoding/json
// refuses (a float it cannot write) goes out as an error answer that
// says so: the peer is owed one, and hanging up would tell it nothing.
func marshalResponse(dst []byte, resp *wireResponse) []byte {
	if out, ok := appendResponse(dst, resp); ok {
		return out
	}
	controlFallbacks.Add(1)
	msg := *resp
	if len(msg.payload) > 0 {
		msg.Rec = string(msg.payload)
	}
	data, err := json.Marshal(msg)
	if err != nil {
		out, _ := appendResponse(dst, &wireResponse{Error: "gateway: " + err.Error()})
		return out
	}
	return append(dst, data...)
}

// readRequest reads data, one request, into req, which the caller
// zeroed: scanned, its names interned in in, when scanRequest knows it.
func (in *inboundEvents) readRequest(data []byte, req *wireRequest) error {
	if in.scanRequest(data, req) {
		return nil
	}
	controlFallbacks.Add(1)
	var msg wireRequest
	if err := json.Unmarshal(data, &msg); err != nil {
		return err
	}
	*req = msg
	return nil
}

// readResponse reads data, one answer, into resp, which the caller
// zeroed but for its events: scanned, its events left in in, when scan
// knows it.
func (in *inboundEvents) readResponse(data []byte, resp *wireResponse) error {
	if in.scan(data, resp) {
		return nil
	}
	controlFallbacks.Add(1)
	msg := wireResponse{events: resp.events}
	if err := json.Unmarshal(data, &msg); err != nil {
		return err
	}
	*resp = msg
	in.take(resp)
	return nil
}

// appendRequest appends req as json.Marshal writes it, and reports
// whether it could: a publish and a seed_state's state are
// encoding/json's to write, and so is a threshold filter.
func appendRequest(dst []byte, req *wireRequest) ([]byte, bool) {
	if req.Rec != "" || len(req.Recs) > 0 || req.Replica || len(req.Summaries) > 0 || req.Agg != "" ||
		req.Above != nil || req.Below != nil || req.DeltaFrac != 0 {
		return dst, false
	}
	dst = appendJSONString(append(dst, `{"op":`...), req.Op)
	dst = appendStringMember(dst, `,"format":`, req.Format)
	dst = appendIntMember(dst, `,"max_version":`, int64(req.MaxVersion))
	dst = appendStringMember(dst, `,"event":`, req.Event)
	dst = appendIntMember(dst, `,"batch_max":`, int64(req.BatchMax))
	dst = appendIntMember(dst, `,"batch_wait_ms":`, req.BatchWaitMS)
	dst = appendStringMember(dst, `,"from":`, req.From)
	dst = appendStringMember(dst, `,"to":`, req.To)
	dst = appendStringMember(dst, `,"principal":`, req.Principal)
	dst = appendStringMember(dst, `,"sensor":`, req.Sensor)
	if req.Prefix {
		dst = append(dst, `,"prefix":true`...)
	}
	for i, ev := range req.Events {
		if i == 0 {
			dst = append(dst, `,"events":[`...)
		} else {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, ev)
	}
	if len(req.Events) > 0 {
		dst = append(dst, ']')
	}
	dst = strconv.AppendInt(append(dst, `,"mode":`...), int64(req.Mode), 10)
	dst = appendStringMember(dst, `,"field":`, req.Field)
	return append(dst, '}'), true
}

// summaryFloatKeys are the float members of a SummaryPoint, in order.
var summaryFloatKeys = [...]string{`,"avg":`, `,"min":`, `,"max":`}

// appendResponse appends resp as json.Marshal writes it, and reports
// whether it could: a listing, coverage spans and a handoff's state are
// encoding/json's to write, and so is a summary with a float it refuses.
func appendResponse(dst []byte, resp *wireResponse) ([]byte, bool) {
	if len(resp.Recs) > 0 || len(resp.Sensors) > 0 || resp.Meta != nil || len(resp.Summaries) > 0 ||
		resp.Agg != "" || len(resp.Coverage) > 0 {
		return dst, false
	}
	start := len(dst)
	dst = strconv.AppendBool(append(dst, `{"ok":`...), resp.OK)
	dst = appendStringMember(dst, `,"error":`, resp.Error)
	dst = appendStringMember(dst, `,"sensor":`, resp.Sensor)
	switch {
	case len(resp.payload) > 0:
		dst = appendJSONString(append(dst, `,"rec":`...), resp.payload)
	case resp.Rec != "":
		dst = appendJSONString(append(dst, `,"rec":`...), resp.Rec)
	}
	if resp.Found {
		dst = append(dst, `,"found":true`...)
	}
	for i := range resp.Summary {
		if i == 0 {
			dst = append(dst, `,"summary":[`...)
		} else {
			dst = append(dst, ',')
		}
		pt := &resp.Summary[i]
		dst = strconv.AppendInt(append(dst, `{"window":`...), int64(pt.Window), 10)
		for j, v := range [...]float64{pt.Avg, pt.Min, pt.Max} {
			var ok bool
			if dst, ok = appendFloat(append(dst, summaryFloatKeys[j]...), v); !ok {
				return dst[:start], false
			}
		}
		dst = strconv.AppendInt(append(dst, `,"count":`...), int64(pt.Count), 10)
		dst = append(dst, '}')
	}
	if len(resp.Summary) > 0 {
		dst = append(dst, ']')
	}
	if resp.Drops != 0 {
		dst = strconv.AppendUint(append(dst, `,"drops":`...), resp.Drops, 10)
	}
	if resp.Eof {
		dst = append(dst, `,"eof":true`...)
	}
	dst = appendIntMember(dst, `,"n":`, int64(resp.N))
	dst = appendIntMember(dst, `,"version":`, int64(resp.Version))
	return append(dst, '}'), true
}

// appendStringMember appends the member key (with its leading comma) and
// s, unless s is empty: an omitempty string.
func appendStringMember(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendJSONString(append(dst, key...), s)
}

// appendIntMember is appendStringMember for an omitempty integer.
func appendIntMember(dst []byte, key string, n int64) []byte {
	if n == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), n, 10)
}

// appendFloat appends f as encoding/json writes a float64 — the shortest
// decimal that reads back as f, in exponent form below 1e-6 and from
// 1e21 on, with no leading zero in the exponent — and reports false for
// NaN and ±Inf, which encoding/json refuses.
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		// e-07 is written e-7.
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
}

// scanRequest reads line as a request of the members appendRequest
// writes — in any order, each at most once — into req, and reports
// whether it was one. Its names (op, format, principal, sensor, event,
// field) are interned in in.names, so a connection that asks the same
// things over and over reads its requests without allocating. Whatever
// else the line is, it is json.Unmarshal's to read: scanRequest accepts
// nothing that would read differently there.
func (in *inboundEvents) scanRequest(line []byte, req *wireRequest) bool {
	p := lineParser{d: line}
	if !p.open('{') {
		return false
	}
	seen := 0
	for first := true; !p.close('}', first); first = false {
		key, ok := p.key()
		if !ok {
			return false
		}
		var bit int
		switch string(key) {
		case "op":
			bit, req.Op = 1<<0, in.name(&p)
		case "format":
			bit, req.Format = 1<<1, in.name(&p)
		case "max_version":
			bit, req.MaxVersion = 1<<2, int(p.int())
		case "event":
			bit, req.Event = 1<<3, in.name(&p)
		case "batch_max":
			bit, req.BatchMax = 1<<4, int(p.int())
		case "batch_wait_ms":
			bit, req.BatchWaitMS = 1<<5, p.int()
		case "from":
			bit, req.From = 1<<6, in.value(&p)
		case "to":
			bit, req.To = 1<<7, in.value(&p)
		case "principal":
			bit, req.Principal = 1<<8, in.name(&p)
		case "sensor":
			bit, req.Sensor = 1<<9, in.name(&p)
		case "prefix":
			bit, req.Prefix = 1<<10, p.bool()
		case "events":
			bit, req.Events = 1<<11, in.nameList(&p)
		case "mode":
			bit, req.Mode = 1<<12, DeliverMode(p.int())
		case "field":
			bit, req.Field = 1<<13, in.name(&p)
		default:
			return false
		}
		if p.failed || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
	return p.end()
}

// name reads a string that names something, interned.
func (in *inboundEvents) name(p *lineParser) string {
	s0 := len(in.text)
	if !p.str(&in.text) {
		return ""
	}
	s := in.names.intern(in.text[s0:])
	in.text = in.text[:s0]
	return s
}

// value reads a string that is read once — an error's text, a date —
// into a string of its own.
func (in *inboundEvents) value(p *lineParser) string {
	s0 := len(in.text)
	if !p.str(&in.text) {
		return ""
	}
	s := string(in.text[s0:])
	in.text = in.text[:s0]
	return s
}

// nameList reads an array of names; [] reads as an empty list, as
// encoding/json reads it, not as none.
func (in *inboundEvents) nameList(p *lineParser) []string {
	list := []string{}
	if !p.open('[') {
		return nil
	}
	for first := true; !p.close(']', first); first = false {
		list = append(list, in.name(p))
	}
	return list
}

// summary reads a summary answer's points into one slice of exactly
// their number.
func (in *inboundEvents) summary(p *lineParser) []SummaryPoint {
	in.points = in.points[:0]
	if !p.open('[') {
		return nil
	}
	for first := true; !p.close(']', first); first = false {
		if !p.open('{') {
			return nil
		}
		var pt SummaryPoint
		seen := 0
		for first := true; !p.close('}', first); first = false {
			key, ok := p.key()
			if !ok {
				return nil
			}
			var bit int
			switch string(key) {
			case "window":
				bit, pt.Window = 1<<0, time.Duration(p.int())
			case "avg":
				bit, pt.Avg = 1<<1, p.float()
			case "min":
				bit, pt.Min = 1<<2, p.float()
			case "max":
				bit, pt.Max = 1<<3, p.float()
			case "count":
				bit, pt.Count = 1<<4, int(p.int())
			default:
				p.fail()
			}
			if p.failed || seen&bit != 0 {
				p.fail()
				return nil
			}
			seen |= bit
		}
		in.points = append(in.points, pt)
	}
	if p.failed {
		return nil
	}
	return append(make([]SummaryPoint, 0, len(in.points)), in.points...)
}
