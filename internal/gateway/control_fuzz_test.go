package gateway

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"
)

// FuzzControlMessages is the differential test of the control-message
// codec against encoding/json. For arbitrary bytes the request scanner
// and the answer scanner either hand the message over or read exactly
// what json.Unmarshal reads. For arbitrary requests and answers the
// appenders write exactly what json.Marshal writes, and hand over
// exactly the messages they do not cover or encoding/json refuses; what
// marshalResponse then puts on the wire is json.Marshal's bytes or an
// error answer saying why there are none.
func FuzzControlMessages(f *testing.F) {
	for _, line := range transcriptLines(f) {
		f.Add(line, "", "", int64(0), 0.0, 0.0, uint8(0))
	}
	for _, s := range []string{
		`{"op":"history","sensor":"cpu","events":["A","B"],"from":"20000501000000.000000","to":"x","batch_max":4,"mode":0}`,
		`{"op":"subscribe","prefix":true,"events":[],"mode":-0,"field":"Vé","batch_wait_ms":-12}`,
		`{"op":"hello","max_version":999999999999999999}`, `{"op":"hello","max_version":9999999999999999999}`,
		`{"op":"x","mode":1.0}`, `{"op":"x","mode":01}`, `{"op":"x","mode":- 1}`, `{"op":"x","OP":"y"}`, `{"op":"x","op":"y"}`,
		`{"op":null}`, `{"op":"x","events":null}`, `{"op":"x","events":["a",]}`, `{"op":"x","above":1}`, `{"op":"x","replica":true}`,
		`{"ok":true,"summary":[{"window":1,"avg":-0,"min":1e-7,"max":1E+21,"count":3},{"avg":0.5e-3}]}`,
		`{"ok":true,"summary":[]}`, `{"ok":true,"summary":[{"avg":1e400}]}`, `{"ok":true,"summary":[{"Avg":1}]}`,
		`{"ok":true,"summary":[{"avg":1,"avg":2}]}`, `{"ok":true,"summary":[{"avg":.5}]}`, `{"ok":true,"summary":[{"avg":1.}]}`,
		`{"ok":true,"summary":[{"window":1.5}]}`, `{"ok":true,"summary":null}`, `{"ok":true,"version":-2}`,
		`{"ok":true,"sensor":"s"}`, `{"ok":true,"found":true,"rec":"DATE=1","sensor":"s"}`, `{"ok":true,"sensors":[]}`,
	} {
		f.Add([]byte(s), "", "", int64(0), 0.0, 0.0, uint8(0))
	}
	f.Add([]byte(`{"op":"ping"}`), "<a&b> ", "\xff \x00\"\\", int64(-1), 1e21, 1e-7, uint8(0x7f))
	f.Add([]byte(`{}`), "", "café", int64(1)<<62, 999999999999999999999.0, 0.000001, uint8(0x55))
	f.Add([]byte(`{}`), "q", "", int64(7), math.Copysign(0, -1), 123456789.125, uint8(0xaa))
	f.Add([]byte(`{}`), "q", "r", int64(7), math.NaN(), 1.0, uint8(0xc0))
	f.Add([]byte(`{}`), "q", "r", int64(7), 1.0, math.Inf(-1), uint8(0x40))
	f.Fuzz(func(t *testing.T, line []byte, s1, s2 string, n int64, x, y float64, shape uint8) {
		scanRequestLike(t, line)
		scanResponseLike(t, line)
		var req wireRequest
		if json.Unmarshal(line, &req) == nil {
			appendRequestLike(t, &req, false)
		}
		var resp wireResponse
		if json.Unmarshal(line, &resp) == nil {
			appendResponseLike(t, &resp, false)
		}
		appendRequestLike(t, fuzzRequest(s1, s2, n, x, shape), shape&0x80 != 0)
		appendResponseLike(t, fuzzResponse(s1, s2, n, x, y, shape), shape&0x80 != 0)
	})
}

// fuzzRequest is a request of every member appendRequest covers, and a
// threshold filter, which it does not, if uncovered (shape's top bit) is
// set.
func fuzzRequest(s1, s2 string, n int64, x float64, shape uint8) *wireRequest {
	req := &wireRequest{Op: s1, Format: s2, Event: s2, From: s1, To: s2,
		Request: Request{Principal: s1, Sensor: s2, Field: s1, Mode: DeliverMode(n)}}
	if shape&1 != 0 {
		req.MaxVersion, req.BatchMax, req.BatchWaitMS = int(n), int(n>>8), n
	}
	if shape&2 != 0 {
		req.Prefix, req.Events = true, []string{s1, s2}
	}
	if shape&0x80 != 0 {
		req.Above = &x
	}
	return req
}

// fuzzResponse is an answer of every member appendResponse covers, and
// coverage spans, which it does not, if shape's top bit is set.
func fuzzResponse(s1, s2 string, n int64, x, y float64, shape uint8) *wireResponse {
	resp := &wireResponse{OK: shape&1 != 0, Error: s1, Sensor: s2, Found: shape&2 != 0, Eof: shape&4 != 0,
		Drops: uint64(n), N: int(n >> 4), Version: int(n >> 8)}
	switch {
	case shape&8 != 0:
		resp.Rec = s1
	case shape&16 != 0:
		resp.payload = []byte(s2)
	}
	if shape&0x40 != 0 {
		resp.Summary = []SummaryPoint{
			{Window: time.Duration(n), Avg: x, Min: y, Max: x * y, Count: int(n >> 2)},
			{Avg: y / 3, Min: -x, Max: x / 7},
		}
	}
	if shape&0x80 != 0 {
		resp.Meta = &Meta{Host: s1}
	}
	return resp
}

// scanRequestLike checks the request scanner on line against
// json.Unmarshal.
func scanRequestLike(t *testing.T, line []byte) {
	t.Helper()
	orig := bytes.Clone(line)
	var in inboundEvents
	var got, want wireRequest
	if !in.scanRequest(line, &got) {
		return // json.Unmarshal decides
	}
	if !bytes.Equal(line, orig) {
		t.Fatal("the request scanner wrote to its line")
	}
	if err := json.Unmarshal(line, &want); err != nil {
		t.Fatalf("the request scanner read %q, json.Unmarshal refuses it: %v", line, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: request scanner %+v, json.Unmarshal %+v", line, got, want)
	}
}

// scanResponseLike checks the answer scanner on line against
// json.Unmarshal: the events it leaves in inboundEvents are what
// json.Unmarshal reads into Sensor and Rec or into Recs, and everything
// else is equal.
func scanResponseLike(t *testing.T, line []byte) {
	t.Helper()
	orig := bytes.Clone(line)
	var in inboundEvents
	var got, want wireResponse
	if !in.scan(line, &got) {
		return
	}
	if !bytes.Equal(line, orig) {
		t.Fatal("the answer scanner wrote to its line")
	}
	if err := json.Unmarshal(line, &want); err != nil {
		t.Fatalf("the answer scanner read %q, json.Unmarshal refuses it: %v", line, err)
	}
	events := want.Recs
	if want.Rec != "" {
		events = append(events, wireEvent{Sensor: want.Sensor, Rec: want.Rec})
		want.Sensor = ""
	}
	if len(in.evs) != len(events) {
		t.Fatalf("%q: the answer scanner found %d events, json.Unmarshal %d", line, len(in.evs), len(events))
	}
	for i, ev := range in.evs {
		if s, p := string(in.text[ev.s0:ev.s1]), string(in.text[ev.p0:ev.p1]); s != events[i].Sensor || p != events[i].Rec {
			t.Fatalf("%q: event %d: scanner (%q, %q), json.Unmarshal (%q, %q)", line, i, s, p, events[i].Sensor, events[i].Rec)
		}
	}
	want.Rec, want.Recs = "", nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: answer scanner %+v, json.Unmarshal %+v", line, got, want)
	}
}

// appendRequestLike checks appendRequest and marshalRequest on req
// against json.Marshal, and the scanner on what they wrote. uncovered
// says req has a member appendRequest must hand over; a request from a
// line may have one or not.
func appendRequestLike(t *testing.T, req *wireRequest, uncovered bool) {
	t.Helper()
	want, err := json.Marshal(req)
	got, ok := appendRequest([]byte("x"), req)
	switch {
	case ok && (err != nil || !bytes.Equal(got[1:], want)):
		t.Fatalf("%+v: appended %q, json.Marshal %q, %v", req, got[1:], want, err)
	case ok && uncovered:
		t.Fatalf("%+v: appended a request it does not cover", req)
	case !ok && err == nil && plainRequest(req):
		t.Fatalf("%+v: handed over a request it covers", req)
	}
	if m, merr := marshalRequest(nil, req); (merr == nil) != (err == nil) || merr == nil && !bytes.Equal(m, want) {
		t.Fatalf("%+v: marshalRequest %q, %v; json.Marshal %q, %v", req, m, merr, want, err)
	}
	if err == nil {
		scanRequestLike(t, want)
	}
}

// plainRequest reports whether req has no member appendRequest hands
// over: no publish, no seed_state state, no threshold filter.
func plainRequest(req *wireRequest) bool {
	return req.Rec == "" && len(req.Recs) == 0 && !req.Replica && len(req.Summaries) == 0 && req.Agg == "" &&
		req.Above == nil && req.Below == nil && req.DeltaFrac == 0
}

// plainAnswer reports whether resp has no member appendResponse hands
// over: no listing, no coverage, no handoff state.
func plainAnswer(resp *wireResponse) bool {
	return len(resp.Recs) == 0 && len(resp.Sensors) == 0 && resp.Meta == nil && len(resp.Summaries) == 0 &&
		resp.Agg == "" && len(resp.Coverage) == 0
}

// appendResponseLike is appendRequestLike for an answer. A float
// encoding/json refuses is handed over too, and marshalResponse answers
// with the error instead.
func appendResponseLike(t *testing.T, resp *wireResponse, uncovered bool) {
	t.Helper()
	msg := *resp
	if len(msg.payload) > 0 {
		msg.Rec = string(msg.payload)
	}
	msg.payload = nil
	want, err := json.Marshal(msg)
	got, ok := appendResponse([]byte("x"), resp)
	switch {
	case ok && (err != nil || !bytes.Equal(got[1:], want)):
		t.Fatalf("%+v: appended %q, json.Marshal %q, %v", resp, got[1:], want, err)
	case ok && uncovered:
		t.Fatalf("%+v: appended an answer it does not cover", resp)
	case !ok && err == nil && plainAnswer(resp):
		t.Fatalf("%+v: handed over an answer it covers", resp)
	}
	if err != nil {
		// Only a float it refuses makes encoding/json refuse an answer.
		if want, err = json.Marshal(wireResponse{Error: "gateway: " + err.Error()}); err != nil {
			t.Fatal(err)
		}
	}
	if m := marshalResponse(nil, resp); !bytes.Equal(m, want) {
		t.Fatalf("%+v: marshalResponse %q, want %q", resp, m, want)
	}
	scanResponseLike(t, want)
}
