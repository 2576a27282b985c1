package gateway

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"jamm/internal/auth"
	"jamm/internal/histstore"
	"jamm/internal/ulm"
)

// Golden wire transcripts: every scripted session below runs through a
// recording TCP proxy in front of a fixed-clock gateway, and the raw
// bytes of both directions of every connection it opened are compared
// with internal/gateway/testdata/transcripts/<session>.golden. The
// files were recorded before the wire implementations were merged into
// one connection loop, so a byte that moves in either framing fails
// here. `go test -run TestWireTranscripts -update ./internal/gateway`
// rewrites them — only ever to pin a deliberate protocol change.
var updateTranscripts = flag.Bool("update", false, "rewrite the golden wire transcripts")

// wireTap is the recording proxy: each accepted connection is piped to
// target, with both directions teed into the session's record in accept
// order.
type wireTap struct {
	ln     net.Listener
	target string
	// wg covers the accept loop and both pipes of every connection;
	// conns and the recordings are read only after it is done.
	wg    sync.WaitGroup
	conns []*tappedConn
}

type tappedConn struct{ c2s, s2c bytes.Buffer }

func startTap(t *testing.T, target string) *wireTap {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tap := &wireTap{ln: ln, target: target}
	tap.wg.Add(1)
	go func() {
		defer tap.wg.Done()
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			server, err := net.Dial("tcp", target)
			if err != nil {
				client.Close()
				continue
			}
			tc := &tappedConn{}
			tap.conns = append(tap.conns, tc)
			tap.wg.Add(2)
			// Half-closes travel through, so a server that hangs up on a
			// hostile peer and a client that closes after its last frame
			// both look to the other side exactly as they would unproxied.
			pipe := func(dst, src net.Conn, rec *bytes.Buffer) {
				defer tap.wg.Done()
				io.Copy(io.MultiWriter(dst, rec), src) //nolint:errcheck
				dst.(*net.TCPConn).CloseWrite()        //nolint:errcheck
			}
			go pipe(server, client, &tc.c2s)
			go pipe(client, server, &tc.s2c)
		}
	}()
	return tap
}

func (tap *wireTap) addr() string { return tap.ln.Addr().String() }

// finish stops accepting, waits for every proxied connection to end,
// and renders the session.
func (tap *wireTap) finish() string {
	tap.ln.Close()
	tap.wg.Wait() // every session closes what it opened
	var b strings.Builder
	for i, tc := range tap.conns {
		fmt.Fprintf(&b, "# connection %d\n", i+1)
		writeStream(&b, '>', tc.c2s.Bytes())
		writeStream(&b, '<', tc.s2c.Bytes())
	}
	return b.String()
}

// writeStream renders one direction of one connection, a quoted chunk
// per line: JSON lines as they are, binary frames one per chunk. The
// chunking is only for reading — the stream is the concatenation.
func writeStream(b *strings.Builder, dir byte, data []byte) {
	for len(data) > 0 {
		n := bytes.IndexByte(data, '\n') + 1
		if data[0] != '{' && len(data) >= wireFrameHdr {
			// A binary frame: u32 length, u32 CRC, payload.
			n = wireFrameHdr + int(binary.LittleEndian.Uint32(data))
		}
		if n <= 0 || n > len(data) {
			n = len(data)
		}
		fmt.Fprintf(b, "%c %s\n", dir, strconv.QuoteToASCII(string(data[:n])))
		data = data[n:]
	}
}

// transcriptClock is the gateway's summary-window clock in every
// session.
var transcriptClock = epoch.Add(time.Hour)

// transcriptSite is one session's gateway, server and proxy. The proxy
// reaches the server through a gate (flush_test.go), which a session
// shuts to hold a subscription's writer at a write while it queues what
// must leave together.
type transcriptSite struct {
	t    *testing.T
	g    *Gateway
	srv  *TCPServer
	gate *writeGate
	tap  *wireTap
	// clients are the session's Clients: the recording ends when every
	// connection has, the ones a Client keeps included.
	clients []*Client
}

func newTranscriptSite(t *testing.T, archive bool) *transcriptSite {
	t.Helper()
	g := New("gw1", func() time.Time { return transcriptClock })
	g.Register("cpu", Meta{Host: "h1.lbl.gov", Type: "cpu", Interval: time.Second})
	srv, err := ServeTCP(g, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	s := &transcriptSite{t: t, g: g, srv: srv}
	if archive {
		hist, err := histstore.Open(t.TempDir(), histstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sub := g.Bus().SubscribeBatchTopics("", nil, func(topic string, recs []ulm.Record) {
			if err := hist.AppendBatch(topic, recs); err != nil {
				t.Errorf("archive append: %v", err)
			}
		})
		srv.SetHistory(hist)
		t.Cleanup(func() { sub.Cancel(); hist.Close() })
	}
	var addr string
	addr, s.gate = serveGated(t, srv)
	s.tap = startTap(t, addr)
	return s
}

func (s *transcriptSite) client(p Proto) *Client {
	c := NewClient("", s.tap.addr())
	c.Protocol = p
	s.clients = append(s.clients, c)
	return c
}

// finish closes the session's clients and renders what was recorded.
func (s *transcriptSite) finish() string {
	for _, c := range s.clients {
		c.Close() //nolint:errcheck
	}
	return s.tap.finish()
}

// raw is a scripted connection: the test writes bytes and reads the
// server's answers itself.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	fr   *frameReader
}

func (s *transcriptSite) dialRaw() *rawConn {
	s.t.Helper()
	conn, err := net.Dial("tcp", s.tap.addr())
	if err != nil {
		s.t.Fatal(err)
	}
	s.t.Cleanup(func() { conn.Close() })
	return &rawConn{t: s.t, conn: conn, fr: newFrameReader(conn)}
}

func (rc *rawConn) send(data []byte) {
	rc.t.Helper()
	if _, err := rc.conn.Write(data); err != nil {
		rc.t.Fatal(err)
	}
}

func (rc *rawConn) sendLine(line string) { rc.send([]byte(line + "\n")) }

// sendCtl sends a JSON control frame in v2 framing.
func (rc *rawConn) sendCtl(js string) { rc.send(appendJSONFrame(nil, []byte(js))) }

// appendJSONFrame appends a control frame carrying data, one JSON object
// written by hand.
func appendJSONFrame(dst []byte, data []byte) []byte {
	dst, start := beginFrame(dst, frameOpJSON, 0)
	dst = append(dst, data...)
	return finishFrame(dst, start)
}

// readLine consumes one answer line (the transcript records it).
func (rc *rawConn) readLine() {
	rc.t.Helper()
	rc.conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := rc.fr.br.ReadString('\n'); err != nil {
		rc.t.Fatalf("reading answer line: %v", err)
	}
}

// readFrame consumes one answer frame.
func (rc *rawConn) readFrame() {
	rc.t.Helper()
	rc.conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := rc.fr.next(); err != nil {
		rc.t.Fatalf("reading answer frame: %v", err)
	}
}

// hello negotiates max on a raw connection.
func (rc *rawConn) hello(max int) {
	rc.sendLine(fmt.Sprintf(`{"op":"hello","max_version":%d}`, max))
	rc.readLine()
}

// readEOF waits for the server to hang up.
func (rc *rawConn) readEOF() {
	rc.t.Helper()
	rc.conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := io.Copy(io.Discard, rc.fr.br); err != nil {
		rc.t.Fatalf("waiting for the server to hang up: %v", err)
	}
	rc.close()
}

func (rc *rawConn) close() { rc.conn.Close() }

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// hopRec is a record that already crossed two bridges.
func hopRec(event string, at time.Duration, val float64) ulm.Record {
	r := mkRec(event, at, val)
	r.Fields = append(r.Fields, ulm.Field{Key: hopField, Value: "2"})
	return r
}

// transcriptBatch is n consecutive records of one event.
func transcriptBatch(event string, from, n int) []ulm.Record {
	recs := make([]ulm.Record, n)
	for i := range recs {
		recs[i] = mkRec(event, time.Duration(from+i)*time.Second, float64(from+i))
	}
	return recs
}

// The request/response ops, once per framing.
var transcriptOps = []string{
	`{"op":"ping"}`,
	`{"op":"query","sensor":"cpu","event":"LOAD","mode":0}`,
	`{"op":"query","format":"xml","sensor":"cpu","event":"LOAD","mode":0}`,
	`{"op":"query","format":"binary","sensor":"cpu","event":"LOAD","mode":0}`,
	`{"op":"query","format":"cuneiform","sensor":"cpu","event":"LOAD","mode":0}`,
	`{"op":"query","sensor":"cpu","event":"NOPE","mode":0}`,
	`{"op":"query","sensor":"ghost","event":"LOAD","mode":0}`,
	`{"op":"summary","sensor":"cpu","event":"LOAD","field":"VAL","mode":0}`,
	`{"op":"summary","sensor":"cpu","event":"NOPE","field":"VAL","mode":0}`,
	`{"op":"list"}`,
	`{"op":"frobnicate"}`,
	`{"op":"coverage","sensor":"cpu"}`,
	`{"op":"history"}`,
}

func seedOps(s *transcriptSite) {
	s.g.EnableSummary("cpu", "LOAD", "VAL", time.Minute, time.Hour)
	s.g.Publish("cpu", mkRec("LOAD", 59*time.Minute+30*time.Second, 10))
	s.g.Publish("cpu", mkRec("LOAD", 59*time.Minute+50*time.Second, 30))
	s.g.Publish("mem@h2", mkRec("FREE", time.Second, 7))
}

// subscribeSession drives one wildcard subscription through exact-window
// flushes, a window spanning two sensors, a mid-stream retune and a
// partial window.
func subscribeSession(s *transcriptSite, p Proto, format string, batchMax int) {
	t := s.t
	var mu sync.Mutex
	seen, want := 0, 0
	st, err := s.client(p).SubscribeBatchStream(Request{}, StreamOptions{Format: format, BatchMax: batchMax, BatchWait: time.Second},
		func(_ string, recs []ulm.Record) {
			mu.Lock()
			seen += len(recs)
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	publish := func(sensor string, recs []ulm.Record) {
		s.g.PublishBatch(sensor, recs)
		want += len(recs)
	}
	delivered := func(what string) {
		t.Helper()
		waitUntil(t, what, func() bool { mu.Lock(); defer mu.Unlock(); return seen >= want })
	}
	// Two exact windows of one sensor in one delivery. The writer is held
	// at their write, so what is published next leaves together.
	s.gate.shut()
	publish("cpu", transcriptBatch("LOAD", 0, 2*batchMax))
	s.gate.await(t)
	// A window that spans two sensors: one mixed frame in JSON lines, a
	// frame per sensor in binary framing (the second a partial one).
	publish("cpu", transcriptBatch("LOAD", 100, 1))
	publish("mem@h2", []ulm.Record{hopRec("FREE", 101*time.Second, 5)})
	if batchMax > 2 {
		publish("mem@h2", transcriptBatch("FREE", 102, batchMax-2))
	}
	s.gate.open()
	delivered("the first windows and the two-sensor window")
	if batchMax < 2 {
		return
	}
	// Retune to half the window. The first half-window leaves the same
	// way whether the retune has landed (a full window) or not (a partial
	// one); by the time it has arrived the retune has, and
	// one delivery of a whole old window leaves as two frames.
	if err := st.SetBatchMax(batchMax / 2); err != nil {
		t.Fatal(err)
	}
	publish("cpu", transcriptBatch("LOAD", 200, batchMax/2))
	delivered("the first retuned window")
	publish("cpu", transcriptBatch("LOAD", 300, batchMax))
	delivered("the retuned windows")
	// A partial window leaves at once.
	publish("cpu", transcriptBatch("LOAD", 400, 1))
	delivered("the partial window")
}

// publishSession records what a Publisher emits: single frames, a
// batch that fills exact frames across two sensors, an explicit flush
// of a partial one, a relayed frame, and the same again replica-marked.
func publishSession(s *transcriptSite, p Proto, format string) {
	t := s.t
	c := s.client(p)
	single, err := c.NewPublisher(format)
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Publish("cpu", mkRec("LOAD", time.Second, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := single.PublishBatch("mem@h2", []ulm.Record{mkRec("FREE", 2*time.Second, 2), hopRec("FREE", 3*time.Second, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := single.Close(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the single-frame publishes", func() bool { return s.g.Stats().Published >= 3 })

	relayed := mustParseFrame(t, appendBatchFrame(nil, 1, "net@h3", transcriptBatch("BYTES", 40, 2)))
	for _, replica := range []bool{false, true} {
		pub, err := c.NewBatchPublisher(format, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		if replica {
			pub.MarkReplica()
		}
		before := s.g.Stats().Published
		if _, err := pub.PublishBatch("cpu", transcriptBatch("LOAD", 10, 3)); err != nil {
			t.Fatal(err)
		}
		if _, err := pub.PublishBatch("mem@h2", transcriptBatch("FREE", 20, 6)); err != nil {
			t.Fatal(err)
		}
		if err := pub.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := pub.PublishFrame(&relayed); err != nil {
			t.Fatal(err)
		}
		if err := pub.Publish("cpu", hopRec("LOAD", 30*time.Second, 30)); err != nil {
			t.Fatal(err)
		}
		if err := pub.Close(); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "the batched publishes", func() bool { return s.g.Stats().Published >= before+12 })
	}
}

// seedHistory archives three sensors' records: cpu in two appended
// batches (two stored frames), mem carrying a hop field, net one
// record.
func seedHistory(s *transcriptSite) {
	s.g.PublishBatch("cpu", transcriptBatch("LOAD", 0, 5))
	s.g.PublishBatch("cpu", transcriptBatch("IDLE", 5, 3))
	s.g.PublishBatch("mem@h2", []ulm.Record{hopRec("FREE", 6*time.Second, 1), mkRec("FREE", 7*time.Second, 2)})
	s.g.Publish("net@h3", mkRec("BYTES", 8*time.Second, 9))
}

func historySession(s *transcriptSite, p Proto, format string) {
	t := s.t
	seedHistory(s)
	c := s.client(p)
	for _, hr := range []HistoryRequest{
		{Format: format},
		{Format: format, Sensor: "cpu", BatchMax: 2},
		{Format: format, Sensor: "cpu", BatchMax: 1, Events: []string{"IDLE"}},
		{Format: format, Sensor: "cpu", From: epoch.Add(2 * time.Second), To: epoch.Add(6 * time.Second)},
		{Format: format, Sensor: "ghost"},
	} {
		if _, err := c.History(hr); err != nil {
			t.Fatalf("history %+v: %v", hr, err)
		}
	}
}

// denyControl refuses the control-plane verbs and everything about the
// sensor "secret".
type denyControl struct{}

func (denyControl) Authorize(subject, resource, action string) error {
	if action == auth.ActionControl || strings.HasSuffix(resource, "/secret") {
		return auth.ErrDenied{Subject: subject, Resource: resource, Action: action}
	}
	return nil
}

func (denyControl) AllowedActions(subject, resource string) []string { return nil }

// transcriptSessions are the scripted sessions, one golden file each.
var transcriptSessions = []struct {
	name    string
	archive bool
	run     func(s *transcriptSite)
}{
	{"hello", false, func(s *transcriptSite) {
		// A v2 client on a v2 server: binary framing from the answer on.
		rc := s.dialRaw()
		rc.hello(2)
		rc.sendCtl(`{"op":"ping"}`)
		rc.readFrame()
		// A hello inside the binary framing is just an unknown op.
		rc.sendCtl(`{"op":"hello","max_version":2}`)
		rc.readFrame()
		rc.close()
		// A client from the future is capped at what the server speaks.
		rc = s.dialRaw()
		rc.hello(7)
		rc.sendCtl(`{"op":"ping"}`)
		rc.readFrame()
		rc.close()
		// A v1 hello, and a hello that names no version, stay JSON lines.
		for _, max := range []int{1, 0} {
			rc = s.dialRaw()
			rc.hello(max)
			rc.sendLine(`{"op":"ping"}`)
			rc.readLine()
			rc.hello(max)
			rc.close()
		}
		// A server pinned to 1 answers hello and stays JSON lines.
		s.srv.SetMaxVersion(1)
		rc = s.dialRaw()
		rc.hello(2)
		rc.sendLine(`{"op":"ping"}`)
		rc.readLine()
		rc.close()
	}},
	{"ops-json", false, func(s *transcriptSite) {
		seedOps(s)
		rc := s.dialRaw()
		for _, op := range transcriptOps {
			rc.sendLine(op)
			rc.readLine()
		}
		rc.close()
		// The client's own request/answer calls, on the one connection it
		// keeps; History opens its own.
		c := s.client(ProtoAuto)
		c.Ping()                                  //nolint:errcheck
		c.Query("cpu", "LOAD")                    //nolint:errcheck
		c.Summary("cpu", "LOAD", "VAL")           //nolint:errcheck
		c.List()                                  //nolint:errcheck
		c.Coverage("cpu")                         //nolint:errcheck
		c.roundTrip(wireRequest{Op: "frob"}, nil) //nolint:errcheck
		c.History(HistoryRequest{})               //nolint:errcheck
	}},
	{"ops-v2", false, func(s *transcriptSite) {
		seedOps(s)
		rc := s.dialRaw()
		rc.hello(2)
		for _, op := range transcriptOps {
			rc.sendCtl(op)
			rc.readFrame()
		}
		rc.close()
	}},
	{"malformed-json", false, func(s *transcriptSite) {
		// One bad line is answered and survived.
		rc := s.dialRaw()
		rc.sendLine("this is not json")
		rc.readLine()
		rc.sendLine(`{"op":"ping"}`)
		rc.readLine()
		rc.close()
		// After a publish the stream is fire-and-forget: bad lines are
		// counted, never answered, and undecodable records likewise.
		rc = s.dialRaw()
		rc.sendLine(`{"op":"publish","sensor":"cpu","rec":"` + mkRec("LOAD", time.Second, 1).String() + `"}`)
		rc.sendLine("garbage after a publish")
		rc.sendLine(`{"op":"publish","sensor":"cpu","rec":"not a ulm record"}`)
		rc.sendLine(`{"op":"publish","format":"cuneiform","sensor":"cpu","rec":"x"}`)
		rc.sendLine(`{"op":"ping"}`)
		rc.readLine()
		rc.close()
		// Nothing but garbage: answered up to the cap, then cut off.
		rc = s.dialRaw()
		for i := 0; i < maxConsecutiveBadLines; i++ {
			rc.sendLine(fmt.Sprintf("garbage %d", i))
		}
		rc.readEOF()
		rc = s.dialRaw()
		rc.sendLine(`{"op":"ping"}`)
		rc.readLine()
		rc.close()
	}},
	{"malformed-v2", false, func(s *transcriptSite) {
		good := appendBatchFrame(nil, 0, "cpu", transcriptBatch("LOAD", 0, 2))
		bad := bytes.Clone(good)
		bad[len(bad)-1] ^= 0xFF
		unknown, start := beginFrame(nil, 9, 0)
		unknown = finishFrame(unknown, start)
		// Checksums, but its one record body stops after the magic byte.
		truncated := appendRawBatchFrame(nil, 0, "cpu", 1, ulm.AppendBinary(nil, &ulm.Record{})[:1])
		// Bad frames are skipped in silence; the stream stays usable.
		rc := s.dialRaw()
		rc.hello(2)
		rc.send(good)
		rc.send(bad)
		rc.send(unknown)
		rc.send(truncated)
		rc.sendCtl(`not json`)
		rc.sendCtl(`{"op":"publish","sensor":"cpu","rec":"not a ulm record"}`)
		rc.send(good)
		rc.sendCtl(`{"op":"ping"}`)
		rc.readFrame()
		rc.close()
		// An implausible length cannot be resynchronized.
		rc = s.dialRaw()
		rc.hello(2)
		var hdr [wireFrameHdr]byte
		binary.LittleEndian.PutUint32(hdr[:], maxWireFrameBytes+1)
		rc.send(hdr[:])
		rc.readEOF()
		rc = s.dialRaw()
		rc.sendLine(`{"op":"ping"}`)
		rc.readLine()
		rc.close()
	}},
	{"publish-json-ulm", false, func(s *transcriptSite) { publishSession(s, ProtoJSON, FormatULM) }},
	{"publish-json-xml", false, func(s *transcriptSite) { publishSession(s, ProtoAuto, FormatXML) }},
	{"publish-json-binary", false, func(s *transcriptSite) { publishSession(s, ProtoJSON, FormatBinary) }},
	{"publish-v2", false, func(s *transcriptSite) { publishSession(s, ProtoV2, FormatULM) }},
	{"subscribe-json-ulm-1", false, func(s *transcriptSite) { subscribeSession(s, ProtoJSON, FormatULM, 1) }},
	{"subscribe-json-ulm-4", false, func(s *transcriptSite) { subscribeSession(s, ProtoJSON, FormatULM, 4) }},
	{"subscribe-json-xml-1", false, func(s *transcriptSite) { subscribeSession(s, ProtoAuto, FormatXML, 1) }},
	{"subscribe-json-xml-4", false, func(s *transcriptSite) { subscribeSession(s, ProtoAuto, FormatXML, 4) }},
	{"subscribe-json-binary-4", false, func(s *transcriptSite) { subscribeSession(s, ProtoJSON, FormatBinary, 4) }},
	{"subscribe-v2-1", false, func(s *transcriptSite) { subscribeSession(s, ProtoV2, FormatBinary, 1) }},
	{"subscribe-v2-4", false, func(s *transcriptSite) { subscribeSession(s, ProtoV2, "", 4) }},
	{"subscribe-v2-filtered", false, func(s *transcriptSite) {
		// A filtered request rides the record plane; a relayed frame
		// reaches a pass-through subscriber byte for byte.
		t := s.t
		c := s.client(ProtoV2)
		var mu sync.Mutex
		crossings, relayed := 0, 0
		st, err := c.SubscribeBatchStream(Request{Sensor: "cpu", Mode: DeliverThreshold, Above: Float64(2.5)},
			StreamOptions{BatchMax: 1},
			func(_ string, recs []ulm.Record) { mu.Lock(); crossings += len(recs); mu.Unlock() })
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		fst, err := c.SubscribeFrameStream(Request{}, StreamOptions{BatchMax: 5, BatchWait: time.Second},
			func(f *Frame) { mu.Lock(); relayed += f.Count; mu.Unlock() })
		if err != nil {
			t.Fatal(err)
		}
		defer fst.Close()
		s.g.PublishBatch("cpu", transcriptBatch("LOAD", 0, 5)) // one crossing, at 3
		frame := mustParseFrame(t, appendBatchFrame(nil, 2, "net@h3", []ulm.Record{hopRec("BYTES", time.Second, 1), mkRec("BYTES", 2*time.Second, 2)}))
		frame.SetHops(3)
		if err := s.g.PublishFrame(&frame); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "the crossing and the relayed frame", func() bool {
			mu.Lock()
			defer mu.Unlock()
			return crossings == 1 && relayed == 7
		})
	}},
	{"subscribe-refused", false, func(s *transcriptSite) {
		t := s.t
		s.g.SetAuthorizer(denyControl{})
		for _, p := range []Proto{ProtoJSON, ProtoV2} {
			if _, err := s.client(p).SubscribeBatchStream(Request{Sensor: "secret"}, StreamOptions{}, func(string, []ulm.Record) {}); err == nil {
				t.Fatal("subscription to a denied sensor succeeded")
			}
		}
		if _, err := s.client(ProtoJSON).Subscribe(Request{}, "cuneiform", func(ulm.Record) {}); err == nil {
			t.Fatal("subscription in an unknown format succeeded")
		}
	}},
	{"history-json-ulm", true, func(s *transcriptSite) { historySession(s, ProtoJSON, FormatULM) }},
	{"history-json-xml", true, func(s *transcriptSite) { historySession(s, ProtoAuto, FormatXML) }},
	{"history-json-binary", true, func(s *transcriptSite) { historySession(s, ProtoJSON, FormatBinary) }},
	{"history-v2", true, func(s *transcriptSite) { historySession(s, ProtoV2, "") }},
	{"history-refused", true, func(s *transcriptSite) {
		seedHistory(s)
		s.g.SetAuthorizer(denyControl{})
		refused := []string{
			`{"op":"history","sensor":"secret"}`,
			`{"op":"history","from":"yesterday"}`,
			`{"op":"history","to":"tomorrow"}`,
			`{"op":"coverage","sensor":"secret"}`,
		}
		rc := s.dialRaw()
		for _, op := range refused {
			rc.sendLine(op)
			rc.readLine()
		}
		rc.sendLine(`{"op":"history","format":"cuneiform"}`)
		rc.readLine()
		// Refusals leave the connection usable.
		rc.sendLine(`{"op":"history","sensor":"net@h3"}`)
		rc.readLine()
		rc.readLine()
		rc.close()
		rc = s.dialRaw()
		rc.hello(2)
		for _, op := range refused {
			rc.sendCtl(op)
			rc.readFrame()
		}
		rc.sendCtl(`{"op":"history","sensor":"net@h3"}`)
		rc.readFrame()
		rc.readFrame()
		rc.close()
		// No archive attached at all.
		s.srv.SetHistory(nil)
		rc = s.dialRaw()
		rc.sendLine(`{"op":"history"}`)
		rc.readLine()
		rc.hello(2)
		rc.sendCtl(`{"op":"history"}`)
		rc.readFrame()
		rc.close()
	}},
	{"handoff", true, func(s *transcriptSite) {
		t := s.t
		seedOps(s)
		c := s.client(ProtoAuto)
		st, found, err := c.Handoff("cpu")
		if err != nil || !found {
			t.Fatalf("handoff: found %v err %v", found, err)
		}
		if _, found, err := c.Handoff("cpu"); err != nil || found {
			t.Fatalf("second handoff: found %v err %v", found, err)
		}
		if err := c.SeedState("cpu", st.Summaries, st.Agg); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Coverage(""); err != nil {
			t.Fatal(err)
		}
		// The same verbs in a format, and refused.
		rc := s.dialRaw()
		rc.sendLine(`{"op":"handoff","format":"xml","sensor":"mem@h2"}`)
		rc.readLine()
		s.g.SetAuthorizer(denyControl{})
		for _, op := range []string{`{"op":"handoff","sensor":"cpu"}`, `{"op":"seed_state","sensor":"cpu","agg":"x"}`} {
			rc.sendLine(op)
			rc.readLine()
		}
		rc.close()
	}},
}

func TestWireTranscripts(t *testing.T) {
	for _, sess := range transcriptSessions {
		t.Run(sess.name, func(t *testing.T) {
			t.Parallel()
			s := newTranscriptSite(t, sess.archive)
			sess.run(s)
			if t.Failed() {
				return
			}
			got := s.finish()
			path := filepath.Join("testdata", "transcripts", sess.name+".golden")
			if *updateTranscripts {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("wire bytes differ from %s:\n%s", path, diffLines(string(want), got))
			}
		})
	}
}

// diffLines shows the first differing transcript line.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n want %s\n got  %s", i+1, wl, gl)
		}
	}
	return "(no differing line)"
}
