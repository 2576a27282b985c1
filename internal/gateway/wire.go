package gateway

import (
	"bufio"
	"crypto/tls"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jamm/internal/auth"
	"jamm/internal/histstore"
	"jamm/internal/ulm"
)

// Wire protocol: newline-delimited JSON over TCP (optionally TLS). A
// subscribe request turns the connection into a one-way event stream;
// each event travels as {"rec": "<payload>"} where the payload is the
// requested format — "ulm" (ASCII, default), "xml" (the ULM-to-XML
// gateway filter of §7.0), or "binary" (base64 of the compact encoding
// for consumers that cannot afford ASCII parsing, §3.0).
//
// Batched frames amortize the per-record JSON and syscall cost on both
// directions of the event path:
//
//   - publish: {"op":"publish","format":f,"recs":[{"sensor":s,"rec":p},...]}
//     carries many records in one line (the Publisher coalesces up to
//     N records or T milliseconds per frame);
//   - subscribe: a request with "batch_max"/"batch_wait_ms" asks the
//     server to coalesce delivery the same way, and event frames come
//     back as {"ok":true,"recs":[...]}.
//
// Single-record frames ({"rec":...}) remain valid in both directions
// for wire compatibility. Event frames also piggyback the cumulative
// slow-consumer drop counter ("drops"), so a mirror downstream can see
// loss it never received.
//
// A subscriber may retune its stream mid-flight: a {"op":"batch_max",
// "batch_max":N} control line on the subscription connection resizes
// the server's coalescing window per batch — flow control the client
// adjusts to its own consumption rate without resubscribing.
//
// The history op queries the gateway's persistent archive (a histstore
// attached with SetHistory): {"op":"history","from":d,"to":d,...}
// streams matching records back as batched event frames, terminated by
// an {"ok":true,"eof":true,"n":N} frame.

// Format names for event payloads.
const (
	FormatULM    = "ulm"
	FormatXML    = "xml"
	FormatBinary = "binary"
)

// wireEvent is one event inside a batched frame: the sensor (bus
// topic) it was published under plus the encoded payload.
type wireEvent struct {
	Sensor string `json:"sensor,omitempty"`
	Rec    string `json:"rec"`
}

type wireRequest struct {
	Op     string `json:"op"` // hello, subscribe, publish, query, summary, list, ping, history, batch_max
	Format string `json:"format,omitempty"`
	// MaxVersion is the highest wire protocol version the client speaks,
	// on an op=hello handshake line (see wire_v2.go).
	MaxVersion int    `json:"max_version,omitempty"`
	Event      string `json:"event,omitempty"`
	Rec        string `json:"rec,omitempty"` // publish: a single event payload
	// Recs is the batched publish frame; each record names its own
	// sensor (falling back to the request sensor when empty).
	Recs []wireEvent `json:"recs,omitempty"`
	// BatchMax asks a subscription for batched event frames of up to
	// this many records; BatchWaitMS bounds how long a partial batch
	// may wait before it is flushed. On an op=batch_max control line
	// (sent mid-stream on a subscription connection) BatchMax is the
	// new coalescing window.
	BatchMax    int   `json:"batch_max,omitempty"`
	BatchWaitMS int64 `json:"batch_wait_ms,omitempty"`
	// From/To bound a history query's record DATE field (ULM DATE
	// format; empty = unbounded, inclusive from, exclusive to).
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Replica marks a publish frame as a replicated copy pushed from
	// the sensor's primary gateway: ingested without firing
	// registration hooks and never re-forwarded to the replica set.
	Replica bool `json:"replica,omitempty"`
	// Summaries and Agg carry drained summary windows and the opaque
	// aggregate contribution on an op=seed_state request — the second
	// half of a rebalancing handoff, seeding the new owner with the
	// state the old owner drained instead of rebuilding it.
	Summaries []SummarySeries `json:"summaries,omitempty"`
	Agg       string          `json:"agg,omitempty"`
	Request
}

type wireResponse struct {
	OK      bool           `json:"ok"`
	Error   string         `json:"error,omitempty"`
	Sensor  string         `json:"sensor,omitempty"`
	Rec     string         `json:"rec,omitempty"`
	Recs    []wireEvent    `json:"recs,omitempty"`
	Found   bool           `json:"found,omitempty"`
	Summary []SummaryPoint `json:"summary,omitempty"`
	Sensors []SensorInfo   `json:"sensors,omitempty"`
	// Drops carries the cumulative wire-drop counter: on event frames
	// the subscription's slow-consumer drops, on ping responses the
	// server-wide total (bad records + bad lines + subscription drops).
	Drops uint64 `json:"drops,omitempty"`
	// Eof marks the terminal frame of a history response; N is the
	// record count the stream carried.
	Eof bool `json:"eof,omitempty"`
	N   int  `json:"n,omitempty"`
	// Version answers an op=hello handshake: the negotiated wire
	// protocol version the connection speaks from here on.
	Version int `json:"version,omitempty"`
	// Meta carries the drained sensor's metadata on a handoff response;
	// Summaries its summary windows and Agg its opaque in-window
	// aggregate contribution, so the new owner continues the old
	// owner's answers instead of rebuilding them.
	Meta      *Meta           `json:"meta,omitempty"`
	Summaries []SummarySeries `json:"summaries,omitempty"`
	Agg       string          `json:"agg,omitempty"`
	// Coverage answers an op=coverage request: the gateway archive's
	// per-segment time spans for the requested sensor.
	Coverage []histstore.Span `json:"coverage,omitempty"`
}

func encodeRecord(format string, rec ulm.Record) (string, error) {
	switch format {
	case FormatULM, "":
		return rec.String(), nil
	case FormatXML:
		b, err := ulm.ToXML(&rec)
		if err != nil {
			return "", err
		}
		return string(b), nil
	case FormatBinary:
		return base64.StdEncoding.EncodeToString(ulm.AppendBinary(nil, &rec)), nil
	}
	return "", fmt.Errorf("gateway: unknown format %q", format)
}

func decodeRecord(format, payload string) (ulm.Record, error) {
	switch format {
	case FormatULM, "":
		return ulm.Parse(payload)
	case FormatXML:
		return ulm.FromXML([]byte(payload))
	case FormatBinary:
		raw, err := base64.StdEncoding.DecodeString(payload)
		if err != nil {
			return ulm.Record{}, err
		}
		var rec ulm.Record
		if _, err := ulm.DecodeBinary(raw, &rec); err != nil {
			return ulm.Record{}, err
		}
		return rec, nil
	}
	return ulm.Record{}, fmt.Errorf("gateway: unknown format %q", format)
}

// WireStats counts wire-path loss and traffic at one TCP server. Every
// record the wire path cannot carry is counted somewhere here — there
// is no silent loss.
type WireStats struct {
	// BadRecords counts op=publish records that failed payload decode
	// and were therefore not published.
	BadRecords uint64
	// BadLines counts request lines that failed JSON parsing.
	BadLines uint64
	// SubDrops counts records dropped on slow subscriber connections
	// (the per-subscription counters, summed over all subscriptions
	// past and present).
	SubDrops uint64
	// HistDrops counts archived records a history response could not
	// carry (payload encode failure in the requested format).
	HistDrops uint64
	// BadFrames counts malformed v2 binary frames (failed CRC, bad
	// payload parse, undecodable record bodies) — the binary analogue
	// of BadLines.
	BadFrames uint64
	// HandshakeTimeouts counts connections dropped because the peer
	// connected and then sent nothing within the negotiation window.
	HandshakeTimeouts uint64
}

// Drops returns the total loss counter the server answers pings with.
func (w WireStats) Drops() uint64 {
	return w.BadRecords + w.BadLines + w.SubDrops + w.HistDrops + w.BadFrames
}

// wireSubChanDepth is the per-subscription buffer (in records) between
// the bus and a subscriber connection; a variable so tests can force
// drops.
var wireSubChanDepth = 256

// maxBatchRecords caps a batch size in either direction, bounding
// per-connection frame memory.
const maxBatchRecords = 4096

// maxBatchBytes bounds a publish batch by encoded payload bytes so a
// full frame stays far below the server's 4MB line limit even with
// fat records (XML, base64 binary).
const maxBatchBytes = 1 << 20

// maxConsecutiveBadLines bounds how much garbage a connection may send
// before the server gives up on it. Publish streams never read their
// connection, so the per-line error responses must stay far below the
// socket buffers; past this many bad lines in a row the peer is not
// speaking the protocol at all.
const maxConsecutiveBadLines = 64

// defaultBatchWait bounds how long a partial subscribe batch waits for
// more records before it is flushed.
const defaultBatchWait = 2 * time.Millisecond

// maxBatchWait clamps a client-requested batch wait so a drained
// shutdown never races an arbitrarily long flush timer.
const maxBatchWait = time.Second

// TCPServer exposes a Gateway over the wire protocol.
type TCPServer struct {
	gw *Gateway
	ln net.Listener

	// hist is the persistent history plane the op=history verb serves;
	// nil until SetHistory attaches one.
	hist atomic.Pointer[histstore.Store]

	// maxVersion caps what the server will negotiate on op=hello;
	// SetMaxVersion(1) pins the server to JSON-per-line.
	maxVersion atomic.Int32

	badRecords        atomic.Uint64
	badLines          atomic.Uint64
	subDrops          atomic.Uint64
	histDrops         atomic.Uint64
	badFrames         atomic.Uint64
	handshakeTimeouts atomic.Uint64

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	subConns map[*subConn]struct{}
	stopped  bool // listener closed (StopAccepting or Close)
	closed   bool
	wg       sync.WaitGroup
}

// subConn is one subscriber connection's drain state: its subscription
// (whose ChanBacklog counts records buffered behind the batch channel)
// plus the records dequeued into a not-yet-flushed wire frame. chLen
// reports records sitting in the delivery channel itself, abstracting
// over the JSON path's TopicBatch channel and the v2 path's frameItem
// channel.
type subConn struct {
	sub     *Subscription
	chLen   func() int
	pending atomic.Int64
}

// ServeTCP serves gw on addr ("127.0.0.1:0" for ephemeral). A non-nil
// tlsCfg enables TLS; an authenticated peer certificate subject
// overrides the request principal, so remote identity is the
// certificate, not a client claim.
func ServeTCP(gw *Gateway, addr string, tlsCfg *tls.Config) (*TCPServer, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	if tlsCfg != nil {
		ln, err = tls.Listen("tcp", addr, tlsCfg)
	} else {
		ln, err = net.Listen("tcp", addr)
	}
	if err != nil {
		return nil, err
	}
	t := &TCPServer{gw: gw, ln: ln, conns: make(map[net.Conn]struct{}), subConns: make(map[*subConn]struct{})}
	t.maxVersion.Store(wireVersionMax)
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the listening address.
func (t *TCPServer) Addr() string { return t.ln.Addr().String() }

// WireStats returns a snapshot of the server's wire-loss counters.
func (t *TCPServer) WireStats() WireStats {
	return WireStats{
		BadRecords:        t.badRecords.Load(),
		BadLines:          t.badLines.Load(),
		SubDrops:          t.subDrops.Load(),
		HistDrops:         t.histDrops.Load(),
		BadFrames:         t.badFrames.Load(),
		HandshakeTimeouts: t.handshakeTimeouts.Load(),
	}
}

// SetMaxVersion caps the wire protocol version the server negotiates
// on op=hello handshakes: 1 pins the server to JSON-per-line (hello is
// still answered, with version 1), wireVersionMax (the default)
// allows binary v2. Existing connections are unaffected.
func (t *TCPServer) SetMaxVersion(v int) {
	if v < 1 {
		v = 1
	}
	if v > wireVersionMax {
		v = wireVersionMax
	}
	t.maxVersion.Store(int32(v))
}

// SetHistory attaches a persistent event archive: the wire protocol's
// history op serves time-range queries from it. nil detaches (history
// requests are refused).
func (t *TCPServer) SetHistory(h *histstore.Store) { t.hist.Store(h) }

// History returns the attached persistent archive, or nil.
func (t *TCPServer) History() *histstore.Store { return t.hist.Load() }

func (t *TCPServer) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.serveConn(conn)
	}
}

func peerPrincipal(conn net.Conn, claimed string) string {
	if tc, ok := conn.(*tls.Conn); ok {
		if err := tc.Handshake(); err == nil {
			if dn := auth.PeerDN(tc.ConnectionState()); dn != "" {
				return dn
			}
		}
	}
	return claimed
}

func (t *TCPServer) serveConn(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()
	sc := bufio.NewScanner(conn)
	// Start small: most connections are one-shot query/summary/list
	// calls or a hello line (clients dial per call), and the scanner
	// grows on demand up to the cap for the batched publishers that
	// need more.
	sc.Buffer(make([]byte, 0, 4*1024), 4*1024*1024)
	enc := json.NewEncoder(conn)
	// The first read — the version-negotiation window — is bounded: a
	// peer that connects and sends nothing must not hold this goroutine
	// forever. Once the peer has said anything (hello or any v1 op) the
	// connection is idle-tolerant as before.
	awaitingFirst := true
	if wireHandshakeTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(wireHandshakeTimeout)) //nolint:errcheck
	}
	// First-occurrence logging per connection: one line when a peer
	// first sends garbage, not one per record.
	var loggedBadLine, loggedBadRecord bool
	var badStreak, badTotal int
	publishStream := false
	for sc.Scan() {
		if awaitingFirst {
			awaitingFirst = false
			conn.SetReadDeadline(time.Time{}) //nolint:errcheck
		}
		var req wireRequest
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			// One malformed line must not kill a persistent publisher
			// stream: count it, keep the connection — every event
			// already in flight behind it stays alive. Error responses
			// are suppressed once the connection has proven to be a
			// fire-and-forget publish stream (the peer never reads) and
			// after a bounded total, so unread responses can never back
			// up into the socket buffers and wedge the stream; a peer
			// that is all garbage is cut off after a bounded streak.
			t.badLines.Add(1)
			if !loggedBadLine {
				loggedBadLine = true
				log.Printf("gateway: wire: bad request line from %s: %v (counting further ones silently)", conn.RemoteAddr(), err)
			}
			badStreak++
			badTotal++
			if badStreak >= maxConsecutiveBadLines {
				log.Printf("gateway: wire: closing %s after %d consecutive bad lines", conn.RemoteAddr(), badStreak)
				return
			}
			if !publishStream && badTotal < maxConsecutiveBadLines {
				if err := enc.Encode(wireResponse{Error: "bad request: " + err.Error()}); err != nil {
					return
				}
			}
			continue
		}
		badStreak = 0
		req.Principal = peerPrincipal(conn, req.Principal)
		if req.Op == "hello" {
			// Version negotiation: answer with the highest mutually
			// supported version. Anything ≥ 2 switches the connection to
			// binary framing; 1 keeps this JSON loop — the zero-handshake
			// compat behavior, explicitly negotiated.
			ver := req.MaxVersion
			if max := int(t.maxVersion.Load()); ver > max {
				ver = max
			}
			if ver < 1 {
				ver = 1
			}
			if err := enc.Encode(wireResponse{OK: true, Version: ver}); err != nil {
				return
			}
			if ver >= 2 {
				t.serveConnV2(conn)
				return
			}
			continue
		}
		if req.Op == "subscribe" {
			t.serveSubscribe(conn, sc, enc, req)
			return // the subscription owns the connection
		}
		if req.Op == "history" {
			if !t.serveHistory(enc, req) {
				return
			}
			continue // the connection may issue further requests
		}
		if req.Op == "publish" {
			publishStream = true
			// Fire-and-forget: a remote sensor manager streams events
			// on a persistent connection, no acks — the event path must
			// not pay a round trip per record. Records that fail decode
			// are counted and logged, never silently discarded.
			t.handlePublish(conn, req, &loggedBadRecord)
			continue
		}
		if err := enc.Encode(t.handle(req)); err != nil {
			return
		}
	}
	// An over-long line (an uncapped or oversized batch frame) kills
	// the connection and everything buffered behind it; count it, don't
	// lose it silently. Other scanner errors are ordinary transport
	// teardown (reset, server shutdown).
	if err := sc.Err(); err == bufio.ErrTooLong {
		t.badLines.Add(1)
		log.Printf("gateway: wire: dropping connection %s: request line exceeds %d bytes (oversized batch?)", conn.RemoteAddr(), 4*1024*1024)
	} else if awaitingFirst {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.handshakeTimeouts.Add(1)
			log.Printf("gateway: wire: dropping %s: nothing received within the %s negotiation window", conn.RemoteAddr(), wireHandshakeTimeout)
		}
	}
}

// handlePublish feeds a publish frame — single-record or batched —
// into the gateway, counting undecodable records. A batched frame is
// ingested as whole per-sensor batches (PublishBatch per run of
// consecutive same-sensor records), so a coalesced publisher pays one
// gateway fan-out per run instead of one per record.
func (t *TCPServer) handlePublish(conn net.Conn, req wireRequest, loggedBadRecord *bool) {
	noteBad := func(err error) {
		t.badRecords.Add(1)
		if !*loggedBadRecord {
			*loggedBadRecord = true
			log.Printf("gateway: wire: undecodable %s record from %s: %v (counting further ones silently)", req.Format, conn.RemoteAddr(), err)
		}
	}
	if len(req.Recs) == 0 {
		rec, err := decodeRecord(req.Format, req.Rec)
		if err != nil {
			noteBad(err)
			return
		}
		if req.Replica {
			t.gw.PublishReplicaBatch(req.Sensor, []ulm.Record{rec})
		} else {
			t.gw.Publish(req.Sensor, rec)
		}
		return
	}
	var batch []ulm.Record
	runSensor := ""
	flush := func() {
		if len(batch) > 0 {
			if req.Replica {
				t.gw.PublishReplicaBatch(runSensor, batch)
			} else {
				t.gw.PublishBatch(runSensor, batch)
			}
			batch = batch[:0]
		}
	}
	for _, ev := range req.Recs {
		rec, err := decodeRecord(req.Format, ev.Rec)
		if err != nil {
			noteBad(err)
			continue
		}
		sensor := ev.Sensor
		if sensor == "" {
			sensor = req.Sensor
		}
		if sensor != runSensor {
			flush()
			runSensor = sensor
		}
		batch = append(batch, rec)
	}
	flush()
}

func (t *TCPServer) handle(req wireRequest) wireResponse {
	switch req.Op {
	case "ping":
		return wireResponse{OK: true, Drops: t.WireStats().Drops()}
	case "query":
		rec, found, err := t.gw.Query(req.Principal, req.Sensor, req.Event)
		if err != nil {
			return wireResponse{Error: err.Error()}
		}
		resp := wireResponse{OK: true, Found: found}
		if found {
			payload, err := encodeRecord(req.Format, rec)
			if err != nil {
				return wireResponse{Error: err.Error()}
			}
			resp.Rec = payload
		}
		return resp
	case "summary":
		pts, err := t.gw.Summary(req.Principal, req.Sensor, req.Event, req.Field)
		if err != nil {
			return wireResponse{Error: err.Error()}
		}
		return wireResponse{OK: true, Summary: pts}
	case "list":
		return wireResponse{OK: true, Sensors: t.gw.Sensors()}
	case "handoff":
		// A rebalancing move: drain the sensor's state (metadata +
		// last-event cache) and unregister it here, so the directory
		// advertisement moves with the sensor. Control-plane verb,
		// control-plane authorization.
		if err := t.gw.authorize(req.Principal, req.Sensor, auth.ActionControl); err != nil {
			return wireResponse{Error: err.Error()}
		}
		st, ok := t.gw.Handoff(req.Sensor)
		if !ok {
			return wireResponse{OK: true}
		}
		resp := wireResponse{OK: true, Found: true, Sensor: req.Sensor, Meta: &st.Meta,
			Summaries: st.Summaries, Agg: st.Agg}
		for i := range st.Recs {
			payload, err := encodeRecord(req.Format, st.Recs[i])
			if err != nil {
				// The state is already drained; a payload the format
				// cannot carry must fail loudly, not vanish.
				return wireResponse{Error: err.Error()}
			}
			resp.Recs = append(resp.Recs, wireEvent{Sensor: req.Sensor, Rec: payload})
		}
		return resp
	case "seed_state":
		// The receiving half of a rebalancing move: install the drained
		// summary windows and aggregate contribution for the sensor this
		// gateway is about to own. Control-plane verb, control-plane
		// authorization, like handoff.
		if err := t.gw.authorize(req.Principal, req.Sensor, auth.ActionControl); err != nil {
			return wireResponse{Error: err.Error()}
		}
		t.gw.SeedSummaries(req.Sensor, req.Summaries)
		t.gw.SeedAggregate(req.Sensor, req.Agg)
		return wireResponse{OK: true}
	case "coverage":
		hist := t.hist.Load()
		if hist == nil {
			return wireResponse{Error: "gateway: history not enabled"}
		}
		if err := t.gw.authorize(req.Principal, req.Sensor, auth.ActionQuery); err != nil {
			return wireResponse{Error: err.Error()}
		}
		return wireResponse{OK: true, Sensor: req.Sensor, Coverage: hist.Coverage(req.Sensor)}
	}
	return wireResponse{Error: fmt.Sprintf("gateway: unknown op %q", req.Op)}
}

// serveHistory streams a time-range archive query back as batched
// event frames, terminated by an eof frame carrying the record count.
// Flow control is the frame size (the request's batch_max, clamped)
// plus TCP backpressure: the replay reads segments only as fast as the
// client drains frames. It reports whether the connection is still
// usable for further requests.
func (t *TCPServer) serveHistory(enc *json.Encoder, req wireRequest) bool {
	refuse := func(msg string) bool {
		return enc.Encode(wireResponse{Error: msg}) == nil
	}
	hist := t.hist.Load()
	if hist == nil {
		return refuse("gateway: history not enabled")
	}
	if err := t.gw.authorize(req.Principal, req.Sensor, auth.ActionQuery); err != nil {
		return refuse(err.Error())
	}
	if _, err := encodeRecord(req.Format, ulm.Record{Date: time.Unix(0, 0), Host: "x", Prog: "x", Lvl: "x"}); err != nil {
		return refuse(err.Error())
	}
	q := histstore.Query{Sensor: req.Sensor, Events: req.Events}
	var err error
	if req.From != "" {
		if q.From, err = ulm.ParseDate(req.From); err != nil {
			return refuse("gateway: bad from: " + err.Error())
		}
	}
	if req.To != "" {
		if q.To, err = ulm.ParseDate(req.To); err != nil {
			return refuse("gateway: bad to: " + err.Error())
		}
	}
	batchMax := req.BatchMax
	if batchMax < 1 {
		batchMax = 256
	}
	if batchMax > maxBatchRecords {
		batchMax = maxBatchRecords
	}
	n := 0
	frame := make([]wireEvent, 0, batchMax)
	err = hist.Replay(q, batchMax, func(sensor string, recs []ulm.Record) error {
		frame = frame[:0]
		for i := range recs {
			payload, encErr := encodeRecord(req.Format, recs[i])
			if encErr != nil {
				// A record the format cannot carry is counted loss,
				// never a dead stream.
				t.histDrops.Add(1)
				continue
			}
			frame = append(frame, wireEvent{Sensor: sensor, Rec: payload})
		}
		if len(frame) == 0 {
			return nil
		}
		n += len(frame)
		return enc.Encode(wireResponse{OK: true, Recs: frame})
	})
	if err != nil {
		// Either the client went away (the connection is dead anyway)
		// or the archive failed mid-stream: report and let the client
		// distinguish a terminal error frame from a clean eof.
		return refuse("gateway: history: " + err.Error())
	}
	return enc.Encode(wireResponse{OK: true, Eof: true, N: n}) == nil
}

// clampBatchMax bounds a client-requested subscribe coalescing window.
func clampBatchMax(n int) int {
	if n < 1 {
		return 1
	}
	if n > maxBatchRecords {
		return maxBatchRecords
	}
	return n
}

func (t *TCPServer) serveSubscribe(conn net.Conn, sc *bufio.Scanner, enc *json.Encoder, req wireRequest) {
	if _, err := encodeRecord(req.Format, ulm.Record{Date: time.Unix(0, 0), Host: "x", Prog: "x", Lvl: "x"}); err != nil {
		enc.Encode(wireResponse{Error: err.Error()}) //nolint:errcheck
		return
	}
	// batchMax is the coalescing window — per batch, not per
	// subscription: the client may resize it mid-stream with an
	// op=batch_max control line, so a consumer that falls behind can
	// widen its frames (fewer, larger writes) and shrink them back for
	// low latency, without resubscribing.
	var batchMax atomic.Int64
	batchMax.Store(int64(clampBatchMax(req.BatchMax)))
	batchWait := time.Duration(req.BatchWaitMS) * time.Millisecond
	if batchWait <= 0 {
		batchWait = defaultBatchWait
	}
	if batchWait > maxBatchWait {
		batchWait = maxBatchWait
	}
	// Batches flow through a bounded channel so the gateway's publish
	// path is never blocked by a slow consumer connection; drops are
	// counted per record, per subscription, and server-wide — a shed
	// batch counts every record it carried.
	sub, ch, err := t.gw.SubscribeBatchChan(req.Request, wireSubChanDepth, func(n int) { t.subDrops.Add(uint64(n)) })
	if err != nil {
		enc.Encode(wireResponse{Error: err.Error()}) //nolint:errcheck
		return
	}
	defer sub.Cancel()
	// Register the drain state so DrainSubscribers can tell when every
	// in-flight record — buffered in the channel or dequeued into a
	// partial batch — has been written out.
	ss := &subConn{sub: sub, chLen: func() int { return len(ch) }}
	t.mu.Lock()
	t.subConns[ss] = struct{}{}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.subConns, ss)
		t.mu.Unlock()
	}()
	if err := enc.Encode(wireResponse{OK: true}); err != nil {
		return
	}
	// Read the subscriber's side of the connection for control lines
	// (per-batch flow control) until it goes away, which unblocks the
	// writer loop. Reading rides the connection's existing scanner so
	// pipelined bytes already buffered behind the subscribe request
	// are not lost.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for sc.Scan() {
			var creq wireRequest
			if err := json.Unmarshal(sc.Bytes(), &creq); err != nil {
				t.badLines.Add(1)
				continue // a garbage control line only hurts its sender
			}
			if creq.Op == "batch_max" {
				batchMax.Store(int64(clampBatchMax(creq.BatchMax)))
			}
		}
	}()
	emit := func(resp wireResponse) bool {
		// Piggyback the cumulative slow-consumer drop counter so the
		// subscriber can observe loss it never received.
		resp.Drops = sub.WireDrops()
		return enc.Encode(resp) == nil
	}
	var batch []wireEvent
	var timer *time.Timer
	var timerC <-chan time.Time
	stopTimer := func() {
		if timer != nil {
			timer.Stop()
			timer, timerC = nil, nil
		}
	}
	defer stopTimer()
	flush := func() bool {
		stopTimer()
		if len(batch) == 0 {
			return true
		}
		ok := emit(wireResponse{OK: true, Recs: batch})
		batch = nil
		ss.pending.Store(0)
		return ok
	}
	for {
		select {
		case tb := <-ch:
			// The coalescing window is re-read per delivered batch so a
			// mid-stream op=batch_max resize takes effect on the next
			// frames, not the next subscription.
			bm := int(batchMax.Load())
			for i := range tb.Recs {
				payload, err := encodeRecord(req.Format, tb.Recs[i])
				if err != nil {
					// A record this format cannot carry (e.g. an
					// XML-hostile byte in a field) is a wire drop like
					// any other: count it — per record — on the
					// subscription and keep the stream alive, and the
					// rest of the batch with it.
					sub.wireDrops.Add(1)
					t.subDrops.Add(1)
					continue
				}
				if bm == 1 && len(batch) == 0 {
					// Single-record frames: the wire-compatible format.
					if !emit(wireResponse{OK: true, Sensor: tb.Sensor, Rec: payload}) {
						return
					}
					continue
				}
				batch = append(batch, wireEvent{Sensor: tb.Sensor, Rec: payload})
				ss.pending.Store(int64(len(batch)))
				if len(batch) >= bm {
					if !flush() {
						return
					}
				}
			}
			if len(batch) > 0 && timerC == nil {
				timer = time.NewTimer(batchWait)
				timerC = timer.C
			}
		case <-timerC:
			timer, timerC = nil, nil
			if !flush() {
				return
			}
		case <-done:
			return
		}
	}
}

// StopAccepting closes the listener so no new connections arrive while
// existing subscriber connections stay open — the first phase of a
// drained shutdown: StopAccepting, Flush the gateway, DrainSubscribers,
// then Close.
func (t *TCPServer) StopAccepting() {
	t.mu.Lock()
	already := t.stopped
	t.stopped = true
	t.mu.Unlock()
	if !already {
		t.ln.Close()
	}
}

// DrainSubscribers waits until every open subscription's in-flight
// records — buffered in its channel or held in a partial batch — have
// been written out (plus a short grace for the final frame), or until
// timeout. It reports whether the drain completed. Call after
// StopAccepting and Flush.
func (t *TCPServer) DrainSubscribers(timeout time.Duration) bool {
	idle := func() bool {
		t.mu.Lock()
		defer t.mu.Unlock()
		for ss := range t.subConns {
			if ss.sub.ChanBacklog() > 0 || ss.chLen() > 0 || ss.pending.Load() > 0 { //jamm:lock-ok chLen is a len() accessor over the send channel; non-blocking
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if idle() {
			// A writer may still be encoding the record it just
			// dequeued; give it a beat and confirm.
			time.Sleep(2 * defaultBatchWait)
			if idle() {
				return true
			}
			continue
		}
		time.Sleep(time.Millisecond)
	}
	return idle()
}

// Close stops the listener and closes open connections.
func (t *TCPServer) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	already := t.stopped
	t.stopped = true
	for c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
	var err error
	if !already {
		err = t.ln.Close()
	}
	t.wg.Wait()
	return err
}

// Client talks to one gateway server.
type Client struct {
	Addr      string
	Principal string
	Timeout   time.Duration
	TLS       *tls.Config
	// Protocol is the wire protocol policy for the hot-path ops
	// (publish, subscribe, history): ProtoAuto (default) negotiates
	// binary v2 and falls back to JSON, ProtoJSON never negotiates,
	// ProtoV2 refuses to degrade.
	Protocol Proto
}

// NewClient returns a client for the gateway at addr.
func NewClient(principal, addr string) *Client {
	return &Client{Addr: addr, Principal: principal, Timeout: 5 * time.Second}
}

func (c *Client) dial() (net.Conn, error) {
	d := net.Dialer{Timeout: c.Timeout}
	if c.TLS != nil {
		return tls.DialWithDialer(&d, "tcp", c.Addr, c.TLS)
	}
	return d.Dial("tcp", c.Addr)
}

func (c *Client) roundTrip(req wireRequest) (wireResponse, error) {
	conn, err := c.dial()
	if err != nil {
		return wireResponse{}, err
	}
	defer conn.Close()
	if c.Timeout > 0 {
		conn.SetDeadline(time.Now().Add(c.Timeout)) //nolint:errcheck
	}
	req.Principal = c.Principal
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		return wireResponse{}, err
	}
	var resp wireResponse
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		return wireResponse{}, err
	}
	if !resp.OK {
		return resp, fmt.Errorf("%s", resp.Error)
	}
	return resp, nil
}

// Ping checks server liveness.
func (c *Client) Ping() error {
	_, err := c.roundTrip(wireRequest{Op: "ping"})
	return err
}

// Drops pings the server and returns its cumulative wire-drop counter
// (undecodable publish records + unparseable lines + slow-subscriber
// drops) — the observability hook for "no silent loss on the wire".
func (c *Client) Drops() (uint64, error) {
	resp, err := c.roundTrip(wireRequest{Op: "ping"})
	if err != nil {
		return 0, err
	}
	return resp.Drops, nil
}

// Query fetches the most recent event of the named type.
func (c *Client) Query(sensor, event string) (ulm.Record, bool, error) {
	resp, err := c.roundTrip(wireRequest{Op: "query", Event: event, Request: Request{Sensor: sensor}})
	if err != nil {
		return ulm.Record{}, false, err
	}
	if !resp.Found {
		return ulm.Record{}, false, nil
	}
	rec, err := decodeRecord(FormatULM, resp.Rec)
	return rec, err == nil, err
}

// Summary fetches windowed statistics for a summarized series.
func (c *Client) Summary(sensor, event, field string) ([]SummaryPoint, error) {
	resp, err := c.roundTrip(wireRequest{Op: "summary", Event: event, Request: Request{Sensor: sensor, Field: field}})
	if err != nil {
		return nil, err
	}
	return resp.Summary, nil
}

// List fetches the gateway's sensor listing.
func (c *Client) List() ([]SensorInfo, error) {
	resp, err := c.roundTrip(wireRequest{Op: "list"})
	if err != nil {
		return nil, err
	}
	return resp.Sensors, nil
}

// Handoff drains one sensor's state from the gateway for a rebalancing
// move: the sensor's metadata, last-event cache, summary windows and
// aggregate contribution come back and the remote gateway unregisters
// it (withdrawing its directory advertisement). found is false when
// the sensor was not live there.
func (c *Client) Handoff(sensor string) (st HandoffState, found bool, err error) {
	resp, err := c.roundTrip(wireRequest{Op: "handoff", Request: Request{Sensor: sensor}})
	if err != nil {
		return HandoffState{}, false, err
	}
	if !resp.Found {
		return HandoffState{}, false, nil
	}
	if resp.Meta != nil {
		st.Meta = *resp.Meta
	}
	st.Summaries = resp.Summaries
	st.Agg = resp.Agg
	for _, ev := range resp.Recs {
		rec, derr := decodeRecord(FormatULM, ev.Rec)
		if derr != nil {
			return st, true, derr
		}
		st.Recs = append(st.Recs, rec)
	}
	return st, true, nil
}

// SeedState installs drained summary windows and an aggregate
// contribution at the gateway — the seeding half of a rebalancing
// move, sent to the sensor's new owner after Handoff drained its old
// one.
func (c *Client) SeedState(sensor string, summaries []SummarySeries, agg string) error {
	if len(summaries) == 0 && agg == "" {
		return nil
	}
	_, err := c.roundTrip(wireRequest{Op: "seed_state", Summaries: summaries, Agg: agg,
		Request: Request{Sensor: sensor}})
	return err
}

// Coverage fetches the gateway archive's per-segment time spans for
// sensor ("" = whole archive) — the comparison unit anti-entropy uses
// to find and close gaps between a primary's and a replica's history.
func (c *Client) Coverage(sensor string) ([]histstore.Span, error) {
	resp, err := c.roundTrip(wireRequest{Op: "coverage", Request: Request{Sensor: sensor}})
	if err != nil {
		return nil, err
	}
	return resp.Coverage, nil
}

// HistoryRequest describes a historical query against a gateway's
// persistent archive.
type HistoryRequest struct {
	// Sensor restricts to one sensor topic; "" queries all sensors.
	Sensor string
	// Events restricts to the named event types; empty means all.
	Events []string
	// From/To bound the record DATE field (inclusive from, exclusive
	// to; zero = unbounded).
	From, To time.Time
	// BatchMax caps records per response frame (0 selects the server
	// default).
	BatchMax int
	// Format is the event payload format (FormatULM by default).
	Format string
}

func (hr HistoryRequest) wire(principal string) wireRequest {
	wr := wireRequest{
		Op: "history", Format: hr.Format, BatchMax: hr.BatchMax,
		Request: Request{Principal: principal, Sensor: hr.Sensor, Events: hr.Events},
	}
	if !hr.From.IsZero() {
		wr.From = ulm.FormatDate(hr.From)
	}
	if !hr.To.IsZero() {
		wr.To = ulm.FormatDate(hr.To)
	}
	return wr
}

// HistoryStream runs a historical query, delivering matching records
// in archive order as per-sensor batches on the calling goroutine —
// the bounded-memory form for large ranges. The batch slice is only
// valid during the callback. It returns how many records the server's
// stream carried. fn returning an error abandons the stream.
func (c *Client) HistoryStream(hr HistoryRequest, fn func(sensor string, recs []ulm.Record) error) (int, error) {
	conn, br, ver, err := c.dialNegotiate(hr.Format)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if ver >= 2 {
		return c.historyStreamV2(conn, br, hr, fn)
	}
	if c.Timeout > 0 {
		// The deadline covers the dial and each frame gap, not the
		// whole stream: it is pushed forward as frames arrive.
		conn.SetDeadline(time.Now().Add(c.Timeout)) //nolint:errcheck
	}
	if err := json.NewEncoder(conn).Encode(hr.wire(c.Principal)); err != nil {
		return 0, err
	}
	dec := json.NewDecoder(br)
	var batch []ulm.Record
	n := 0
	for {
		if c.Timeout > 0 {
			conn.SetReadDeadline(time.Now().Add(c.Timeout)) //nolint:errcheck
		}
		var resp wireResponse
		if err := dec.Decode(&resp); err != nil {
			return n, fmt.Errorf("gateway: history stream: %w", err)
		}
		if resp.Error != "" {
			return n, fmt.Errorf("%s", resp.Error)
		}
		if resp.Eof {
			return resp.N, nil
		}
		// Deliver per-sensor runs of the frame, like subscribe streams.
		runSensor := ""
		batch = batch[:0]
		flush := func() error {
			if len(batch) == 0 {
				return nil
			}
			err := fn(runSensor, batch)
			batch = batch[:0]
			return err
		}
		for _, ev := range resp.Recs {
			rec, err := decodeRecord(hr.Format, ev.Rec)
			if err != nil {
				return n, fmt.Errorf("gateway: history stream: %w", err)
			}
			if ev.Sensor != runSensor {
				if err := flush(); err != nil {
					return n, err
				}
				runSensor = ev.Sensor
			}
			batch = append(batch, rec)
			n++
		}
		if err := flush(); err != nil {
			return n, err
		}
	}
}

// History runs a historical query and returns the matching records,
// sorted by timestamp (stable). For ranges too large to hold in
// memory, use HistoryStream.
func (c *Client) History(hr HistoryRequest) ([]TopicRecord, error) {
	var out []TopicRecord
	_, err := c.HistoryStream(hr, func(sensor string, recs []ulm.Record) error {
		for i := range recs {
			out = append(out, TopicRecord{Sensor: sensor, Rec: recs[i].Clone()})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Rec.Date.Before(out[j].Rec.Date) })
	return out, nil
}

// Publisher streams events to a remote gateway over one persistent
// connection, optionally coalescing records into batched frames. It is
// safe for concurrent use.
type Publisher struct {
	mu     sync.Mutex
	conn   net.Conn
	enc    *json.Encoder
	format string

	// Batch mode (NewBatchPublisher): records accumulate in buf and go
	// out as one frame per maxRecs records or maxWait of delay.
	maxRecs  int
	maxWait  time.Duration
	buf      []wireEvent
	bufBytes int
	timer    *time.Timer
	err      error
	closed   bool

	// Wire v2 state (ver >= 2): records encode straight into binary
	// frames — wbuf accumulates sealed frames, run* the open per-sensor
	// run still being appended to, bufRecs the records across both.
	ver       int
	wbuf      []byte
	runSensor string
	runBuf    []byte
	runCount  int
	runHops   int
	bufRecs   int
	// dropped counts records lost to a failed write: a flush error
	// discards the whole buffered batch (records whose Publish already
	// returned nil), so the loss must be observable, not silent.
	dropped uint64

	// replica marks everything this publisher sends as replicated
	// copies (MarkReplica): JSON publish frames carry "replica":true,
	// v2 batch frames the replica flag bit.
	replica bool
}

// NewPublisher opens an event-publishing connection to the gateway.
// Events travel in the given payload format (FormatULM by default),
// one frame per record.
func (c *Client) NewPublisher(format string) (*Publisher, error) {
	return c.NewBatchPublisher(format, 1, 0)
}

// NewBatchPublisher opens a publishing connection that coalesces up to
// maxRecs records or maxWait of delay into one batched wire frame,
// amortizing the per-record JSON and syscall cost. maxRecs <= 1
// degenerates to single-record frames; maxWait <= 0 means a partial
// batch waits until the next Publish or Flush. Batches are capped by
// record count and by encoded bytes so a full frame stays within the
// server's line-length limit.
func (c *Client) NewBatchPublisher(format string, maxRecs int, maxWait time.Duration) (*Publisher, error) {
	if format == "" {
		format = FormatULM
	}
	if maxRecs > maxBatchRecords {
		maxRecs = maxBatchRecords
	}
	conn, _, ver, err := c.dialNegotiate(format)
	if err != nil {
		return nil, err
	}
	return &Publisher{conn: conn, enc: json.NewEncoder(conn), format: format, maxRecs: maxRecs, maxWait: maxWait, ver: ver}, nil
}

// Publish sends one sensor record; errors indicate a bad payload or a
// dead connection. In batch mode the record may be buffered; a write
// error surfaces on the Publish/Flush/Close that performs the write
// and sticks to the publisher afterwards.
func (p *Publisher) Publish(sensor string, rec ulm.Record) error {
	if p.ver >= 2 {
		return p.publishV2(sensor, &rec)
	}
	payload, err := encodeRecord(p.format, rec)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	if p.closed {
		return fmt.Errorf("gateway: publisher closed")
	}
	if p.maxRecs <= 1 {
		err := p.enc.Encode(wireRequest{Op: "publish", Format: p.format, Rec: payload, Replica: p.replica, Request: Request{Sensor: sensor}})
		if err != nil {
			p.err = err
			p.dropped++
		}
		return err
	}
	p.buf = append(p.buf, wireEvent{Sensor: sensor, Rec: payload})
	p.bufBytes += len(sensor) + len(payload)
	if len(p.buf) >= p.maxRecs || p.bufBytes >= maxBatchBytes {
		return p.flushLocked()
	}
	if p.timer == nil && p.maxWait > 0 {
		p.timer = time.AfterFunc(p.maxWait, func() { p.Flush() }) //nolint:errcheck
	}
	return nil
}

// PublishBatch sends a batch of one sensor's records, preserving their
// order. On a batching publisher the records join the buffered frame
// (flushed at the record/byte caps as usual); on a single-frame
// publisher (maxRecs <= 1) each record goes out as its own
// wire-compatible frame. An unencodable record aborts the call before
// any of the batch is buffered; a write error surfaces like Publish's.
//
// written reports how many of this batch's records were carried by
// frames whose write succeeded during the call (len(recs) on a nil
// error, where buffered-not-yet-flushed records count as accepted) —
// the signal a retrying caller needs to avoid re-sending records that
// already reached the wire. Records lost with a failed frame are
// counted in Dropped, never silently.
func (p *Publisher) PublishBatch(sensor string, recs []ulm.Record) (written int, err error) {
	if len(recs) == 0 {
		return 0, nil
	}
	if p.ver >= 2 {
		return p.publishBatchV2(sensor, recs)
	}
	payloads := make([]string, len(recs))
	for i := range recs {
		payload, err := encodeRecord(p.format, recs[i])
		if err != nil {
			return 0, err
		}
		payloads[i] = payload
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return 0, p.err
	}
	if p.closed {
		return 0, fmt.Errorf("gateway: publisher closed")
	}
	if p.maxRecs <= 1 {
		for _, payload := range payloads {
			err := p.enc.Encode(wireRequest{Op: "publish", Format: p.format, Rec: payload, Replica: p.replica, Request: Request{Sensor: sensor}})
			if err != nil {
				p.err = err
				p.dropped++
				return written, err
			}
			written++
		}
		return written, nil
	}
	for i, payload := range payloads {
		p.buf = append(p.buf, wireEvent{Sensor: sensor, Rec: payload})
		p.bufBytes += len(sensor) + len(payload)
		if len(p.buf) >= p.maxRecs || p.bufBytes >= maxBatchBytes {
			if err := p.flushLocked(); err != nil {
				return written, err
			}
			// The flushed frame carried this batch's records up to and
			// including the i-th.
			written = i + 1
		}
	}
	if len(p.buf) > 0 && p.timer == nil && p.maxWait > 0 {
		p.timer = time.AfterFunc(p.maxWait, func() { p.Flush() }) //nolint:errcheck
	}
	return len(recs), nil
}

// Flush sends any buffered batch immediately.
func (p *Publisher) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushLocked()
}

func (p *Publisher) flushLocked() error {
	if p.ver >= 2 {
		return p.flushV2Locked()
	}
	if p.timer != nil {
		p.timer.Stop()
		p.timer = nil
	}
	if p.err != nil {
		return p.err
	}
	if len(p.buf) == 0 {
		return nil
	}
	err := p.enc.Encode(wireRequest{Op: "publish", Format: p.format, Recs: p.buf, Replica: p.replica})
	if err != nil {
		p.err = err
		p.dropped += uint64(len(p.buf))
	}
	p.buf = nil
	p.bufBytes = 0
	return err
}

// Dropped returns how many records this publisher lost to failed
// writes — buffered batch records whose Publish had already returned
// nil when the flush later failed, plus failed single-record frames.
func (p *Publisher) Dropped() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

// Close flushes any buffered batch and releases the connection.
func (p *Publisher) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	ferr := p.flushLocked()
	p.closed = true
	if err := p.conn.Close(); err != nil {
		return err
	}
	return ferr
}

// StreamOptions tunes a streaming subscription.
type StreamOptions struct {
	// Format is the event payload format (FormatULM by default).
	Format string
	// BatchMax asks the server to coalesce up to this many records per
	// frame (0 or 1 = single-record frames).
	BatchMax int
	// BatchWait bounds how long the server holds a partial batch.
	BatchWait time.Duration
}

// Stream is an open streaming subscription. Records arrive on a
// dedicated goroutine; Done is closed when the stream ends (server
// gone, Close called), after which Err reports why.
type Stream struct {
	conn net.Conn

	// version is the negotiated wire protocol (0/1 = JSON); ctl, when
	// non-nil, sends a control request in the stream's framing.
	version int
	ctl     func(wireRequest) error

	drops      atomic.Uint64 // cumulative remote slow-consumer drops
	decodeErrs atomic.Uint64 // frames whose payload failed local decode

	done      chan struct{}
	closed    atomic.Bool
	closeOnce sync.Once

	// ctlMu serializes outbound control writes (SetBatchMax) so
	// concurrent retunes cannot interleave frames. It is never held
	// across anything but the write itself, and is distinct from mu:
	// the reader goroutine and Err() must stay responsive while a
	// control write is in flight to a stalled peer.
	ctlMu sync.Mutex

	mu  sync.Mutex
	err error
}

// Done is closed when the stream terminates.
func (s *Stream) Done() <-chan struct{} { return s.done }

// Err reports why the stream ended (nil before Done is closed, or for
// a local Close).
func (s *Stream) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// RemoteDrops returns the server's cumulative slow-consumer drop
// counter for this subscription, as piggybacked on event frames: the
// records the server delivered but this stream never received.
func (s *Stream) RemoteDrops() uint64 { return s.drops.Load() }

// DecodeErrors returns how many received payloads failed to decode
// locally (counted, never silently skipped).
func (s *Stream) DecodeErrors() uint64 { return s.decodeErrs.Load() }

// Close terminates the stream.
func (s *Stream) Close() {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		s.conn.Close()
	})
}

// SetBatchMax retunes the server's coalescing window for this stream
// mid-flight: subsequent frames carry up to n records (n < 1 selects
// single-record frames). This is the per-batch flow-control knob — a
// consumer that falls behind widens its frames, one that wants latency
// shrinks them, without resubscribing.
func (s *Stream) SetBatchMax(n int) error {
	if n < 1 {
		n = 1
	}
	// ctl and conn are immutable after the stream is constructed, so
	// the request mutex (s.mu, which guards err and is taken by the
	// reader goroutine on every stream end) is not needed here. Holding
	// it across the network write would let a stalled peer pin the lock
	// and block Err()/readFrameLoop indefinitely; ctlMu serializes only
	// concurrent control writes against each other.
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	if s.ctl != nil {
		return s.ctl(wireRequest{Op: "batch_max", BatchMax: n}) //jamm:lock-ok ctlMu exists only to serialize this write; no reader-path lock is held
	}
	return json.NewEncoder(s.conn).Encode(wireRequest{Op: "batch_max", BatchMax: n})
}

// SubscribeStream opens a streaming subscription carrying each record
// together with the sensor (bus topic) it was published under — the
// form bus-to-bus bridges need to mirror topics. fn runs on the
// stream's reader goroutine. It is an adapter over SubscribeBatchStream
// (one record per callback).
func (c *Client) SubscribeStream(req Request, opts StreamOptions, fn func(sensor string, rec ulm.Record)) (*Stream, error) {
	return c.SubscribeBatchStream(req, opts, func(sensor string, recs []ulm.Record) {
		for i := range recs {
			fn(sensor, recs[i])
		}
	})
}

// SubscribeBatchStream opens a streaming subscription delivering whole
// batches: fn receives each run of consecutive same-sensor records of
// a received wire frame as one slice, on the stream's reader
// goroutine. The slice is only valid for the duration of the call;
// copy it to retain records. This is the ingest form batch consumers
// (bridges republishing into a local bus, batch archivers) ride.
func (c *Client) SubscribeBatchStream(req Request, opts StreamOptions, fn func(sensor string, recs []ulm.Record)) (*Stream, error) {
	conn, br, ver, err := c.dialNegotiate(opts.Format)
	if err != nil {
		return nil, err
	}
	if ver >= 2 {
		return c.subscribeBatchStreamV2(conn, br, req, opts, fn)
	}
	req.Principal = c.Principal
	wr := wireRequest{
		Op: "subscribe", Format: opts.Format,
		BatchMax: opts.BatchMax, BatchWaitMS: opts.BatchWait.Milliseconds(),
		Request: req,
	}
	if err := json.NewEncoder(conn).Encode(wr); err != nil {
		conn.Close()
		return nil, err
	}
	dec := json.NewDecoder(br)
	var first wireResponse
	if c.Timeout > 0 {
		conn.SetReadDeadline(time.Now().Add(c.Timeout)) //nolint:errcheck
	}
	if err := dec.Decode(&first); err != nil {
		conn.Close()
		return nil, err
	}
	if !first.OK {
		conn.Close()
		return nil, fmt.Errorf("%s", first.Error)
	}
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck
	st := &Stream{conn: conn, done: make(chan struct{})}
	go st.readLoop(dec, opts.Format, fn)
	return st, nil
}

func (s *Stream) readLoop(dec *json.Decoder, format string, fn func(sensor string, recs []ulm.Record)) {
	defer close(s.done)
	defer s.Close()
	var batch []ulm.Record
	for {
		var resp wireResponse
		if err := dec.Decode(&resp); err != nil {
			// A read error caused by our own Close is a clean local
			// shutdown, not a stream failure.
			if !s.closed.Load() {
				s.mu.Lock()
				s.err = err
				s.mu.Unlock()
			}
			return
		}
		if resp.Drops > s.drops.Load() {
			s.drops.Store(resp.Drops)
		}
		// Decode the frame into per-sensor batches: consecutive records
		// of one sensor form one callback. Undecodable payloads are
		// counted per record; the rest of the frame still delivers.
		runSensor := ""
		batch = batch[:0]
		flush := func() {
			if len(batch) > 0 {
				fn(runSensor, batch)
				batch = batch[:0]
			}
		}
		for _, ev := range resp.Recs {
			rec, err := decodeRecord(format, ev.Rec)
			if err != nil {
				s.decodeErrs.Add(1)
				continue
			}
			if ev.Sensor != runSensor {
				flush()
				runSensor = ev.Sensor
			}
			batch = append(batch, rec)
		}
		flush()
		if resp.Rec != "" {
			rec, err := decodeRecord(format, resp.Rec)
			if err != nil {
				s.decodeErrs.Add(1)
				continue
			}
			runSensor = resp.Sensor
			batch = append(batch, rec)
			flush()
		}
	}
}

// Subscribe opens a streaming subscription in the given payload format;
// fn runs on a dedicated goroutine per received record. The returned
// stop function closes the stream.
func (c *Client) Subscribe(req Request, format string, fn func(ulm.Record)) (stop func(), err error) {
	st, err := c.SubscribeStream(req, StreamOptions{Format: format}, func(_ string, rec ulm.Record) { fn(rec) })
	if err != nil {
		return nil, err
	}
	return st.Close, nil
}
