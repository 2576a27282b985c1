package gateway

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"jamm/internal/transport"
	"jamm/internal/ulm"
)

// TestWireV2NegotiationMatrix drives every client-policy × server-cap
// combination through a publish/query and a subscribe roundtrip: auto
// clients ride v2 against a v2 server and fall back to JSON against a
// pinned one, pinned-JSON clients stay on v1 everywhere, and ProtoV2
// clients refuse to degrade.
func TestWireV2NegotiationMatrix(t *testing.T) {
	cases := []struct {
		name      string
		proto     Proto
		serverMax int
		wantVer   int // 0 = expect ErrV2Unsupported
	}{
		{"auto_v2server", ProtoAuto, 2, 2},
		{"auto_v1server", ProtoAuto, 1, 1},
		{"json_v2server", ProtoJSON, 2, 1},
		{"v2_v2server", ProtoV2, 2, 2},
		{"v2_v1server", ProtoV2, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, srv := startServer(t)
			srv.SetMaxVersion(tc.serverMax)
			c := NewClient("", srv.Addr())
			c.Protocol = tc.proto

			pub, err := c.NewBatchPublisher(FormatULM, 8, time.Millisecond)
			if tc.wantVer == 0 {
				if !errors.Is(err, ErrV2Unsupported) {
					t.Fatalf("publisher err = %v, want ErrV2Unsupported", err)
				}
				if _, err := c.SubscribeBatchStream(Request{Sensor: "cpu"}, StreamOptions{}, func(string, []ulm.Record) {}); !errors.Is(err, ErrV2Unsupported) {
					t.Fatalf("subscribe err = %v, want ErrV2Unsupported", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer pub.Close()
			if v := pub.Version(); v != tc.wantVer {
				t.Fatalf("publisher negotiated v%d, want v%d", v, tc.wantVer)
			}

			var got atomic.Int64
			st, err := c.SubscribeBatchStream(Request{Sensor: "cpu"}, StreamOptions{BatchMax: 8},
				func(_ string, recs []ulm.Record) { got.Add(int64(len(recs))) })
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if v := st.Version(); v != tc.wantVer {
				t.Fatalf("stream negotiated v%d, want v%d", v, tc.wantVer)
			}

			if err := pub.Publish("cpu", mkRec("LOAD", time.Second, 7)); err != nil {
				t.Fatal(err)
			}
			if err := pub.Flush(); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for got.Load() < 1 {
				if time.Now().After(deadline) {
					t.Fatalf("record never delivered (v%d)", tc.wantVer)
				}
				time.Sleep(time.Millisecond)
			}
			// The record also landed in the last-event cache (relay hops
			// fill it lazily on query).
			rec, found, err := c.Query("cpu", "LOAD")
			if err != nil || !found {
				t.Fatalf("query after publish: %v found=%v", err, found)
			}
			if v, _ := rec.Float("VAL"); v != 7 {
				t.Fatalf("queried VAL = %v, want 7", v)
			}
			_ = g
		})
	}
}

// TestWireV2XMLStaysJSON: the XML payload format has no binary frame
// encoding, so an auto client pins it to the JSON protocol and a
// ProtoV2 client must refuse it outright.
func TestWireV2XMLStaysJSON(t *testing.T) {
	_, srv := startServer(t)
	c := NewClient("", srv.Addr())
	pub, err := c.NewPublisher(FormatXML)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if v := pub.Version(); v != 1 {
		t.Fatalf("XML publisher negotiated v%d, want v1", v)
	}

	c2 := NewClient("", srv.Addr())
	c2.Protocol = ProtoV2
	if _, err := c2.NewPublisher(FormatXML); err == nil {
		t.Fatal("ProtoV2 with FormatXML succeeded; XML cannot ride binary frames")
	}
}

// handshakeV2 dials srv raw, performs the hello exchange, and returns
// the negotiated connection ready for binary frames.
func handshakeV2(t *testing.T, srv *TCPServer) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	hello, _ := json.Marshal(wireRequest{Op: "hello", MaxVersion: wireVersionMax})
	if _, err := conn.Write(append(hello, '\n')); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp wireResponse
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Version != 2 {
		t.Fatalf("handshake answered %+v, want ok v2", resp)
	}
	return conn, br
}

// TestWireV2BadFrameSkippedAndCounted: a frame that fails its CRC is
// counted and skipped — the stream stays in sync and later good frames
// still publish. The binary analogue of TestWireMalformedLineKeepsConnection.
func TestWireV2BadFrameSkippedAndCounted(t *testing.T) {
	g, srv := startServer(t)
	conn, _ := handshakeV2(t, srv)

	good1 := appendBatchFrame(nil, 0, "cpu", []ulm.Record{mkRec("A", 0, 1)})
	bad := appendBatchFrame(nil, 0, "cpu", []ulm.Record{mkRec("B", 0, 2)})
	bad[len(bad)-1] ^= 0xFF // corrupt the payload: CRC now fails
	good2 := appendBatchFrame(nil, 0, "cpu", []ulm.Record{mkRec("C", 0, 3)})

	for _, f := range [][]byte{good1, bad, good2} {
		if _, err := conn.Write(f); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().Published < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("published %d records, want 2 (good frames around a bad one)", g.Stats().Published)
		}
		time.Sleep(time.Millisecond)
	}
	if g.Stats().Published != 2 {
		t.Fatalf("published %d records, want exactly 2", g.Stats().Published)
	}
	if bf := srv.WireStats().BadFrames; bf != 1 {
		t.Fatalf("BadFrames = %d, want 1", bf)
	}
	if srv.WireStats().Drops() == 0 {
		t.Fatal("bad frame not reflected in Drops()")
	}
}

// TestWireV2OversizedFrameClosesConnection: an implausible declared
// length means the stream is desynchronized or hostile — there is no
// resync point, so the server must hang up (and only on that
// connection; the server survives), counting the disconnect once —
// on a request stream and on a subscription's control stream alike.
func TestWireV2OversizedFrameClosesConnection(t *testing.T) {
	for _, subscribed := range []bool{false, true} {
		_, srv := startServer(t)
		conn, br := handshakeV2(t, srv)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if subscribed {
			subReq, _ := json.Marshal(wireRequest{Op: "subscribe", Request: Request{Sensor: "cpu"}})
			if _, err := conn.Write(appendJSONFrame(nil, subReq)); err != nil {
				t.Fatal(err)
			}
			var ack wireResponse
			if _, err := newFrameCodec(conn, br).readResponse(&ack); err != nil || !ack.OK {
				t.Fatalf("subscribe ack: %+v, err %v", ack, err)
			}
		}

		var hdr [wireFrameHdr]byte
		binary.LittleEndian.PutUint32(hdr[:], maxWireFrameBytes+1)
		if _, err := conn.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := br.ReadByte(); err != io.EOF {
			t.Fatalf("subscribed=%v: connection read = %v, want EOF (server hangup)", subscribed, err)
		}
		if bf := srv.WireStats().BadFrames; bf != 1 {
			t.Fatalf("subscribed=%v: BadFrames = %d, want 1", subscribed, bf)
		}
		// The listener survived the hostile connection.
		if err := NewClient("", srv.Addr()).Ping(); err != nil {
			t.Fatalf("server dead after oversized frame: %v", err)
		}
	}
}

// TestWireV2BadFrameStreakClosesConnection: a peer sending nothing but
// garbage frames is cut off after the bounded error run, exactly like
// the JSON protocol's bad-line streak.
func TestWireV2BadFrameStreakClosesConnection(t *testing.T) {
	_, srv := startServer(t)
	conn, br := handshakeV2(t, srv)

	frame := appendBatchFrame(nil, 0, "cpu", []ulm.Record{mkRec("A", 0, 1)})
	frame[len(frame)-1] ^= 0xFF
	for i := 0; i < maxConsecutiveBadLines; i++ {
		if _, err := conn.Write(frame); err != nil {
			break // server may already have hung up mid-streak
		}
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("connection still open after a full streak of bad frames")
	}
	if bf := srv.WireStats().BadFrames; bf < maxConsecutiveBadLines {
		t.Fatalf("BadFrames = %d, want >= %d", bf, maxConsecutiveBadLines)
	}
}

// TestWireV2HandshakeTimeout: a peer that connects and sends nothing is
// dropped once the negotiation window closes, and counted — connections
// cannot park in the pre-handshake state forever.
func TestWireV2HandshakeTimeout(t *testing.T) {
	old := transport.FirstReadTimeout
	transport.FirstReadTimeout = 50 * time.Millisecond
	// Restored after startServer's cleanup has stopped the server.
	t.Cleanup(func() { transport.FirstReadTimeout = old })

	_, srv := startServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("silent connection not dropped after handshake window")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.WireStats().HandshakeTimeouts < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("HandshakeTimeouts = %d, want 1", srv.WireStats().HandshakeTimeouts)
		}
		time.Sleep(time.Millisecond)
	}
	// Timeouts are liveness enforcement, not loss: they stay out of the
	// Drops() total a ping reports.
	if srv.WireStats().Drops() != 0 {
		t.Fatalf("handshake timeout leaked into Drops() = %d", srv.WireStats().Drops())
	}
}

// TestWireV2HistoryRawReplay: an unfiltered v2 history query is served
// by splicing stored archive frames — record bodies never decoded on
// the server — while a filtered query falls back to the cooked path.
func TestWireV2HistoryRawReplay(t *testing.T) {
	dir := t.TempDir()
	g, srv, hist := startHistoryServer(t, dir)
	for i := 0; i < 50; i++ {
		g.Publish("cpu", mkRec("LOAD", time.Duration(i)*time.Second, float64(i)))
	}

	c := NewClient("", srv.Addr())
	var n int
	total, err := c.HistoryStream(HistoryRequest{Sensor: "cpu"}, func(sensor string, recs []ulm.Record) error {
		if sensor != "cpu" {
			t.Fatalf("history frame sensor = %q", sensor)
		}
		n += len(recs)
		return nil
	})
	if err != nil || total != 50 || n != 50 {
		t.Fatalf("HistoryStream: total=%d n=%d err=%v", total, n, err)
	}
	raw := hist.Stats().RawFrames
	if raw == 0 {
		t.Fatal("unfiltered v2 history replay decoded every frame (RawFrames = 0)")
	}

	// An event filter needs record bodies: served cooked, raw counter flat.
	ev, err := c.History(HistoryRequest{Sensor: "cpu", Events: []string{"LOAD"}})
	if err != nil || len(ev) != 50 {
		t.Fatalf("filtered history: %d records (err %v)", len(ev), err)
	}
	if hist.Stats().RawFrames != raw {
		t.Fatalf("filtered history rode the raw path (RawFrames %d -> %d)", raw, hist.Stats().RawFrames)
	}
}

// TestWireV2SubscribeFrameStream: the raw frame-plane client API — a
// pass-through subscription on a v2 server delivers borrowed frames
// whose bytes verify and decode to the published records.
func TestWireV2SubscribeFrameStream(t *testing.T) {
	g, srv := startServer(t)
	c := NewClient("", srv.Addr())

	type frameCopy struct {
		sensor string
		count  int
		recs   []ulm.Record
	}
	frames := make(chan frameCopy, 16)
	st, err := c.SubscribeFrameStream(Request{Sensor: "cpu"}, StreamOptions{BatchMax: 64}, func(f *Frame) {
		if err := verifyFrame(f.Bytes()); err != nil {
			t.Errorf("delivered frame fails verification: %v", err)
		}
		recs, err := f.Records(nil)
		if err != nil {
			t.Errorf("delivered frame records: %v", err)
		}
		frames <- frameCopy{sensor: f.Sensor, count: f.Count, recs: recs}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	g.PublishBatch("cpu", []ulm.Record{mkRec("A", 0, 1), mkRec("B", time.Second, 2)})
	select {
	case fc := <-frames:
		if fc.sensor != "cpu" || fc.count != len(fc.recs) || len(fc.recs) == 0 {
			t.Fatalf("frame = %+v", fc)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no frame delivered")
	}

	// A filtering request cannot ride the frame plane.
	if _, err := c.SubscribeFrameStream(Request{Sensor: "cpu", Events: []string{"A"}}, StreamOptions{}, func(*Frame) {}); err == nil {
		t.Fatal("filtered frame subscription succeeded")
	}

	// And against a v1-only server the API refuses rather than degrades.
	srv2Gw := New("gw2", nil)
	srv2, err := ServeTCP(srv2Gw, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	srv2.SetMaxVersion(1)
	c2 := NewClient("", srv2.Addr())
	if _, err := c2.SubscribeFrameStream(Request{}, StreamOptions{}, func(*Frame) {}); !errors.Is(err, ErrV2Unsupported) {
		t.Fatalf("frame stream on v1 server: %v, want ErrV2Unsupported", err)
	}
}

// TestWireV2RelayPathDoesNotDecode proves the tentpole property at the
// gateway boundary: frames arriving from a v2 publisher on a gateway
// whose only consumer is a frame-plane subscriber are relayed — CRC
// check and memcpy — with the record bodies never decoded.
func TestWireV2RelayPathDoesNotDecode(t *testing.T) {
	g, srv := startServer(t)
	c := NewClient("", srv.Addr())

	var recsSeen atomic.Int64
	st, err := c.SubscribeFrameStream(Request{}, StreamOptions{BatchMax: 64}, func(f *Frame) {
		recsSeen.Add(int64(f.Count))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	pub, err := c.NewBatchPublisher(FormatULM, 16, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if pub.Version() != 2 {
		t.Fatalf("publisher negotiated v%d", pub.Version())
	}
	batch := []ulm.Record{mkRec("A", 0, 1), mkRec("B", time.Second, 2), mkRec("C", 2*time.Second, 3)}
	if _, err := pub.PublishBatch("cpu", batch); err != nil {
		t.Fatal(err)
	}
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for recsSeen.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("frame subscriber saw %d records, want 3", recsSeen.Load())
		}
		time.Sleep(time.Millisecond)
	}
	fs := g.FrameStats()
	if fs.Decodes != 0 {
		t.Fatalf("pure-relay gateway decoded %d frames, want 0", fs.Decodes)
	}
	if fs.Relays == 0 || fs.RelayRecords != 3 {
		t.Fatalf("FrameStats = %+v, want relays > 0 and 3 relay records", fs)
	}
	// Accounting still sees the records even though the bus never did.
	if got := g.Stats().Published; got != 3 {
		t.Fatalf("Stats().Published = %d, want 3", got)
	}
	// And the last-event cache fills lazily from the stashed frame.
	rec, found, err := c.Query("cpu", "B")
	if err != nil || !found {
		t.Fatalf("query on relay-only gateway: %v found=%v", err, found)
	}
	if v, _ := rec.Float("VAL"); v != 2 {
		t.Fatalf("queried VAL = %v, want 2", v)
	}
}

// FuzzWireFrame hammers the server-side frame decode chain — length
// and CRC validation, batch payload parse, record decode — with the
// corpus seeded from real frames. The invariant is memory safety plus
// error discipline: arbitrary bytes may be rejected but never panic,
// and anything that parses must re-verify.
func FuzzWireFrame(f *testing.F) {
	recs := []ulm.Record{mkRec("LOAD", time.Second, 42), mkRec("MEM", 2*time.Second, 7)}
	f.Add(appendBatchFrame(nil, 0, "cpu", recs))
	f.Add(appendBatchFrame(nil, 3, "net@h1.lbl.gov", recs[:1]))
	f.Add(appendBatchFrame(nil, 0, "", nil))
	f.Add(appendJSONFrame(nil, []byte(`{"op":"ping"}`)))
	f.Add([]byte{})
	short := appendBatchFrame(nil, 0, "cpu", recs)
	f.Add(short[:wireFrameHdr+2])

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bytes.NewReader(data))
		for {
			buf, err := fr.next()
			if err != nil {
				if errors.Is(err, errBadFrame) {
					continue // skippable: reader stays in sync
				}
				return // EOF, truncation, or oversized length
			}
			// A frame that passed the reader must re-verify from its bytes.
			if verr := verifyFrame(buf); verr != nil {
				t.Fatalf("frame passed reader but fails verifyFrame: %v", verr)
			}
			if buf[wireFrameHdr] != frameOpBatch {
				continue
			}
			pf, err := parseBatchFrame(buf)
			if err != nil {
				continue
			}
			if pf.Count < 0 {
				t.Fatalf("parsed negative count %d", pf.Count)
			}
			// The reader's reused Frame says what the one-off parse says.
			if rf, rerr := fr.batchFrame(buf); rerr != nil || rf.Sensor != pf.Sensor || rf.Count != pf.Count || rf.recOff != pf.recOff {
				t.Fatalf("frameReader.batchFrame = %+v, %v; parseBatchFrame = %+v", rf, rerr, pf)
			}
			out, err := pf.Records(nil)
			if err == nil && len(out) != pf.Count {
				t.Fatalf("decoded %d records, header declared %d", len(out), pf.Count)
			}
			// Frame.Records rides the batch decoder; record-at-a-time
			// decode plus the hop delta is the reference it must match.
			var want []ulm.Record
			rest := buf[pf.recOff:]
			var refErr error
			for i := 0; i < pf.Count && refErr == nil; i++ {
				var rec ulm.Record
				if rest, refErr = ulm.DecodeBinary(rest, &rec); refErr == nil {
					if d := pf.Hops() - pf.baseHops(); d > 0 {
						addHops(&rec, d)
					}
					want = append(want, rec)
				}
			}
			if refErr == nil && len(rest) != 0 {
				refErr = errors.New("trailing bytes")
			}
			if (err == nil) != (refErr == nil) {
				t.Fatalf("Frame.Records err %v, record-at-a-time err %v", err, refErr)
			}
			for i := range out {
				if out[i].String() != want[i].String() {
					t.Fatalf("record %d differs:\n batch:  %s\n single: %s", i, out[i].String(), want[i].String())
				}
			}
			// Round-trip: re-encoding the decoded records must verify.
			if err == nil {
				re := appendBatchFrame(nil, pf.Hops(), pf.Sensor, out)
				if verr := verifyFrame(re); verr != nil {
					t.Fatalf("re-encoded frame fails verification: %v", verr)
				}
			}
		}
	})
}

// TestFrameHopDeltaPerRecord: the frame header carries the batch's
// maximum hop count for relay-side MaxHops checks, but decode must add
// only the hops accumulated since encode (header minus base) to each
// record — a hops-0 record batched with a hops-3 one never inherits 3.
func TestFrameHopDeltaPerRecord(t *testing.T) {
	shallow := mkRec("A", 0, 1)
	deep := mkRec("B", time.Second, 2)
	deep.Set("JAMM.HOPS", "3")
	recs := []ulm.Record{shallow, deep}
	buf := appendBatchFrame(nil, batchHops(recs), "cpu", recs)
	f, err := parseBatchFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Hops() != 3 {
		t.Fatalf("header hops = %d, want batch max 3", f.Hops())
	}

	// Un-relayed: decode leaves each record's own count untouched.
	out, err := f.Records(nil)
	if err != nil {
		t.Fatal(err)
	}
	if h0, h1 := recHops(out[0]), recHops(out[1]); h0 != 0 || h1 != 3 {
		t.Fatalf("hops after 0 relays = %d,%d, want 0,3", h0, h1)
	}

	// Two relay bumps: each record gains exactly the two hops it took.
	f.SetHops(f.Hops() + 1)
	f.SetHops(f.Hops() + 1)
	if err := verifyFrame(f.Bytes()); err != nil {
		t.Fatal(err)
	}
	if out, err = f.Records(nil); err != nil {
		t.Fatal(err)
	}
	if h0, h1 := recHops(out[0]), recHops(out[1]); h0 != 2 || h1 != 5 {
		t.Fatalf("hops after 2 relays = %d,%d, want 2,5", h0, h1)
	}
}

// TestWireV2SubscriberControlGarbageCloses: the control reader of a
// live subscription applies the same bounded bad-message streak as the
// main loop, in either framing — a subscriber streaming garbage is
// disconnected instead of holding the connection and subscription
// resources indefinitely.
func TestWireV2SubscriberControlGarbageCloses(t *testing.T) {
	subReq, _ := json.Marshal(wireRequest{Op: "subscribe", Request: Request{Sensor: "cpu"}})
	// CRC-valid frames with an unknown op: garbage the control reader
	// must count, and eventually cut off.
	junk, start := beginFrame(nil, 9, 0)
	junk = finishFrame(junk, start)
	for _, tc := range []struct {
		name      string
		v2        bool
		subscribe []byte
		garbage   []byte
		counted   func(WireStats) uint64
	}{
		{"json", false, append(subReq, '\n'), []byte("garbage\n"), func(ws WireStats) uint64 { return ws.BadLines }},
		{"v2", true, appendJSONFrame(nil, subReq), junk, func(ws WireStats) uint64 { return ws.BadFrames }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, srv := startServer(t)
			var conn net.Conn
			var br *bufio.Reader
			if tc.v2 {
				conn, br = handshakeV2(t, srv)
			} else {
				var err error
				if conn, err = net.Dial("tcp", srv.Addr()); err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				br = bufio.NewReader(conn)
			}
			if _, err := conn.Write(tc.subscribe); err != nil {
				t.Fatal(err)
			}
			cdc := wireCodec(newLineCodec(conn, br, maxLineBytes))
			if tc.v2 {
				cdc = newFrameCodec(conn, br)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			var ack wireResponse
			if f, err := cdc.readResponse(&ack); err != nil || f != nil || !ack.OK {
				t.Fatalf("bad subscribe ack: %+v, frame %v, err %v", ack, f, err)
			}
			for i := 0; i < maxConsecutiveBadLines; i++ {
				if _, err := conn.Write(tc.garbage); err != nil {
					break // server may already have hung up mid-streak
				}
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			var rerr error
			for rerr == nil {
				_, rerr = cdc.readResponse(&ack)
			}
			if ne, ok := rerr.(net.Error); ok && ne.Timeout() {
				t.Fatal("connection still open after a full streak of bad control messages")
			}
			if n := tc.counted(srv.WireStats()); n < maxConsecutiveBadLines {
				t.Fatalf("bad messages counted = %d, want >= %d", n, maxConsecutiveBadLines)
			}
			// The subscription went with the connection.
			waitUntil(t, "the subscription to be cancelled", func() bool { return g.Consumers("cpu") == 0 })
		})
	}
}
