package gateway

import (
	"bufio"
	"crypto/tls"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"jamm/internal/auth"
	"jamm/internal/histstore"
	"jamm/internal/transport"
	"jamm/internal/ulm"
)

// The wire protocol. One TCP (optionally TLS) connection carries
// requests one way and answers or events the other, in one of two
// framings:
//
//   - JSON lines (version 1): every message is one JSON object on a
//     line — a wireRequest from the client, a wireResponse from the
//     server. Event payloads travel inside the JSON as strings in the
//     requested format: "ulm" (ASCII, default), "xml" (the ULM-to-XML
//     gateway filter of §7.0), or "binary" (base64 of the compact
//     encoding for consumers that cannot afford ASCII parsing, §3.0).
//   - Binary frames (version 2): the length-prefixed, CRC-checked
//     frames of frame.go. Record batches — the publish, subscribe and
//     history hot paths — travel as batch frames of ULM-binary records;
//     everything else (requests, acks, errors, drop counters, eof
//     markers) is the same JSON object inside a control frame.
//
// In both framings the control path keeps JSON's debuggability — every
// byte of a control message is the one encoding/json would write — but
// not its reflection: requests and answers are appended and scanned by
// one codec (wire_control.go), which hands to encoding/json only what it
// does not cover (a listing, coverage spans, a handoff's state, a
// publish line's records, anything malformed).
//
// Every connection starts as JSON lines. A client that wants frames
// sends {"op":"hello","max_version":2} first; the server answers
// {"ok":true,"version":V} with the highest mutually supported version
// and, when V ≥ 2, both sides switch framing for the rest of the
// connection. Anything else a client sends first is an ordinary
// request, so JSON lines remain the zero-handshake compat path; a
// pre-v2 server answers hello with an unknown-op error, which the
// client reads as version 1 and degrades transparently. The handshake
// is half-duplex: the client MUST NOT send past its hello until the
// answer arrives, because the server's line reader may otherwise have
// buffered bytes the frame reader would never see. Our client obeys; a
// violator only desynchronizes its own connection, which the bounded
// bad-message streak then closes. The request/answer ops (ping, query,
// summary, list, handoff, seed_state, coverage) stay JSON lines — there
// is no record batch in them for binary framing to carry — and a
// connection answers any number of them, one after the other. Our Client
// keeps such connections between its read-only calls and sends no hello
// on them; handoff and seed_state, which change the gateway and must
// not be sent twice, dial per call. Only publish, subscribe and history
// negotiate, and a payload format binary frames cannot carry (XML) pins
// them to JSON lines.
//
// The ops are the same in both framings:
//
//   - publish is fire-and-forget: a remote sensor manager streams
//     events on a persistent connection, no acks, and is never written
//     to. In JSON lines {"op":"publish","sensor":s,"rec":p} carries one
//     record and {"op":"publish","format":f,"recs":[{"sensor":s,
//     "rec":p},...]} many (the Publisher coalesces up to N records per
//     frame, fewer when the connection is idle); in binary framing every
//     run of one sensor's records is one batch frame. Records that
//     cannot be decoded are counted, never silently discarded.
//   - subscribe turns the connection into a one-way event stream after
//     an {"ok":true} ack. "batch_max" asks the server to coalesce
//     delivery into frames of up to that many records: what arrives
//     while the subscription's writer is busy leaves together in its
//     next write and a partial frame is sent as soon as the writer is
//     idle ("batch_wait_ms" is accepted and ignored). A
//     {"op":"batch_max","batch_max":N} control message on the
//     subscription connection resizes the window mid-stream — flow
//     control the client adjusts to its own consumption rate without
//     resubscribing.
//   - history queries the gateway's persistent archive (a histstore
//     attached with SetHistory): {"op":"history","from":d,"to":d,...}
//     streams matching records back as event frames, terminated by
//     {"ok":true,"eof":true,"n":N}.
//   - ping, query, summary, list, handoff, seed_state and coverage are
//     one request, one answer.
//
// In the code the framing is a wireCodec (wire_codec.go) and nothing
// else knows which one a connection speaks. The codec owns reading the
// next inbound message — a control object or a batch frame — and
// classing what cannot be read (a line or frame that was consumed whole
// and can be skipped; a length with no resync point); writing a control
// message; and building and writing event frames, with what is
// genuinely per-framing about them. JSON lines send {"rec":...}
// single-record frames at a window of 1, mix sensors in one
// {"recs":[...]} frame and piggyback the subscription's cumulative
// slow-consumer drop counter ("drops") on every frame, so a mirror
// downstream can see loss it never received; event lines are appended
// and scanned, never marshalled (wire_json.go), and like binary frames
// everything a subscription has queued leaves in one write. Binary
// framing sends one frame per run of one sensor, forwards a relayed
// frame's bytes untouched, puts everything a subscription has queued on
// the socket with one gathered write (timed as the telemetry "wire" stage),
// splices stored archive frames into history answers undecoded, and
// reports drops on change in a control frame so relayed bytes need no
// rewrite. The connection loop below owns the rest, once: negotiation,
// op dispatch, publish ingest, the bounded bad-message streak, the
// subscribe pump (queue, control reader, retune, drain accounting) and
// the history server. wire_client.go does the same for Stream,
// HistoryStream and Publisher.
//
// What is not the wire's at all lives below it, shared with every other
// server of the site: listening, accepting, tracking and closing
// connections, the first-read deadline, the dial and the TLS peer's
// principal are internal/transport; the subscription's bounded queue is
// internal/boundq (queue.go).

// Format names for event payloads.
const (
	FormatULM    = "ulm"
	FormatXML    = "xml"
	FormatBinary = "binary"
)

// wireVersionMax is the highest protocol version this build speaks.
const wireVersionMax = 2

// wireEvent is one event inside a batched frame: the sensor (bus
// topic) it was published under plus the encoded payload. It is the
// schema — what a request line unmarshals into, what a handoff answer
// marshals from; the event path writes and reads the same bytes without
// it (wire_json.go).
type wireEvent struct {
	Sensor string `json:"sensor,omitempty"`
	Rec    string `json:"rec"`
}

type wireRequest struct {
	Op     string `json:"op"` // hello, subscribe, publish, query, summary, list, ping, history, batch_max
	Format string `json:"format,omitempty"`
	// MaxVersion is the highest wire protocol version the client speaks,
	// on an op=hello handshake line.
	MaxVersion int    `json:"max_version,omitempty"`
	Event      string `json:"event,omitempty"`
	Rec        string `json:"rec,omitempty"` // publish: a single event payload
	// Recs is the batched publish frame; each record names its own
	// sensor (falling back to the request sensor when empty).
	Recs []wireEvent `json:"recs,omitempty"`
	// BatchMax asks a subscription for batched event frames of up to
	// this many records; BatchWaitMS is parsed and ignored — a partial
	// batch leaves as soon as the writer is idle. On an op=batch_max
	// control line (sent mid-stream on a subscription connection)
	// BatchMax is the new coalescing window.
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
	// Summaries and Agg carry drained summary slots and the aggregate
	// slot counts on an op=seed_state request — the second half of a
	// rebalancing handoff, seeding the new owner with the state the old
	// owner drained instead of rebuilding it.
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
	// Summaries its summary slots and Agg its in-window aggregate slot
	// counts, so the new owner continues the old owner's answers instead
	// of rebuilding them.
	Meta      *Meta           `json:"meta,omitempty"`
	Summaries []SummarySeries `json:"summaries,omitempty"`
	Agg       string          `json:"agg,omitempty"`
	// Coverage answers an op=coverage request: the gateway archive's
	// per-segment time spans for the requested sensor.
	Coverage []histstore.Span `json:"coverage,omitempty"`

	// events is where an answer's events are left — scanned, not
	// unmarshalled into Rec and Recs — for the reader to decode as one
	// batch: the reader's own (a Stream's, a HistoryStream's), or the
	// codec's.
	events *inboundEvents
	// payload is a query answer's rec as the server rendered it, in a
	// buffer of the connection's: Rec without a string of its own.
	payload []byte
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
	// BadFrames counts malformed v2 binary frames (failed CRC, bad
	// payload parse, undecodable record bodies) — the binary analogue
	// of BadLines.
	BadFrames uint64
	// HandshakeTimeouts counts connections dropped because the peer
	// connected and then sent nothing within the negotiation window.
	HandshakeTimeouts uint64
	// Accepts counts connections accepted and Requests the request/answer
	// and history requests answered on them: their ratio is how well the
	// server's clients reuse connections (/metrics splits Requests by op).
	Accepts  uint64
	Requests uint64
}

// Drops returns the total loss counter the server answers pings with.
func (w WireStats) Drops() uint64 {
	return w.BadRecords + w.BadLines + w.SubDrops + w.BadFrames
}

// wireSubChanDepth is the per-subscription buffer (in records) between
// the gateway and a subscriber connection; a variable so tests can
// force drops.
var wireSubChanDepth = 256

// maxBatchRecords caps a batch size in either direction, bounding
// per-connection frame memory.
const maxBatchRecords = 4096

// maxBatchBytes bounds a publish batch by encoded payload bytes so a
// full frame stays far below the server's 4MB line limit even with
// fat records (XML, base64 binary).
const maxBatchBytes = 1 << 20

// maxLineBytes is the server's JSON line limit: an over-long line (an
// uncapped or oversized batch frame) kills the connection and
// everything buffered behind it, counted.
const maxLineBytes = 4 * 1024 * 1024

// maxConsecutiveBadLines bounds how much garbage a connection may send
// before the server gives up on it. Publish streams never read their
// connection, so the per-line error responses must stay far below the
// socket buffers; past this many bad messages in a row the peer is not
// speaking the protocol at all.
const maxConsecutiveBadLines = 64

// TCPServer exposes a Gateway over the wire protocol. The embedded
// transport shell owns the listener and the connections (Addr,
// StopAccepting, Close); serveConn is what runs on each.
type TCPServer struct {
	*transport.Server
	gw *Gateway

	// hist is the persistent history plane the op=history verb serves;
	// nil until SetHistory attaches one.
	hist atomic.Pointer[histstore.Store]

	// maxVersion caps what the server will negotiate on op=hello;
	// SetMaxVersion(1) pins the server to JSON lines.
	maxVersion atomic.Int32

	badRecords        atomic.Uint64
	badLines          atomic.Uint64
	subDrops          atomic.Uint64
	badFrames         atomic.Uint64
	handshakeTimeouts atomic.Uint64
	// requests counts answered requests per answeredOps entry; the last
	// slot takes every op the list does not name.
	requests [len(answeredOps) + 1]atomic.Uint64

	mu sync.Mutex
	// subs holds every open wire subscription, for DrainSubscribers.
	subs map[*Subscription]struct{}
}

// ServeTCP serves gw on addr ("127.0.0.1:0" for ephemeral). A non-nil
// tlsCfg enables TLS; an authenticated peer certificate subject
// overrides the request principal, so remote identity is the
// certificate, not a client claim.
func ServeTCP(gw *Gateway, addr string, tlsCfg *tls.Config) (*TCPServer, error) {
	t := &TCPServer{gw: gw, subs: make(map[*Subscription]struct{})}
	t.maxVersion.Store(wireVersionMax)
	// A connection accepted before t.Server is set waits for it: a ping
	// answers with WireStats, which reads it.
	served := make(chan struct{})
	var err error
	if t.Server, err = transport.Serve(addr, tlsCfg, func(conn net.Conn) { <-served; t.serveConn(conn) }); err != nil {
		return nil, err
	}
	close(served)
	return t, nil
}

// answeredOps are the ops a connection answers and goes on, the labels
// of jamm_wire_requests_total; any other op counts as "unknown".
var answeredOps = [...]string{"ping", "query", "summary", "list", "handoff", "seed_state", "coverage", "history"}

// countRequest counts one answered request of op.
func (t *TCPServer) countRequest(op string) {
	i := 0
	for i < len(answeredOps) && answeredOps[i] != op {
		i++
	}
	t.requests[i].Add(1)
}

// WireStats returns a snapshot of the server's wire counters.
func (t *TCPServer) WireStats() WireStats {
	ws := WireStats{
		BadRecords:        t.badRecords.Load(),
		BadLines:          t.badLines.Load(),
		SubDrops:          t.subDrops.Load(),
		BadFrames:         t.badFrames.Load(),
		HandshakeTimeouts: t.handshakeTimeouts.Load(),
		Accepts:           t.Accepts(),
	}
	for i := range t.requests {
		ws.Requests += t.requests[i].Load()
	}
	return ws
}

// SetMaxVersion caps the wire protocol version the server negotiates
// on op=hello handshakes: 1 pins the server to JSON lines (hello is
// still answered, with version 1), wireVersionMax (the default) allows
// binary frames. Existing connections are unaffected.
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

// serverConn is one accepted connection: its framing and its garbage
// accounting.
type serverConn struct {
	t    *TCPServer
	conn net.Conn
	cdc  wireCodec
	// bad is the framing's garbage counter: badLines or badFrames.
	bad *atomic.Uint64
	// First-occurrence logging per connection: one line when a peer
	// first sends garbage, not one per message.
	loggedBad, loggedBadRecord bool
	badStreak, badTotal        int
	// oneWay marks a connection nobody answers garbage on: a publish
	// stream (the peer never reads) or a subscription (the write side
	// belongs to the event pump).
	oneWay bool
	// in decodes the payloads of JSON-lines publish requests.
	in inboundEvents
	// resp is the answer being written and payload the buffer a query
	// answer's record is rendered in: answering allocates nothing.
	resp    wireResponse
	payload []byte
}

// serveConn is the connection loop of both framings.
func (t *TCPServer) serveConn(conn net.Conn) {
	c := &serverConn{t: t, conn: conn, cdc: newLineCodec(conn, conn, maxLineBytes), bad: &t.badLines}
	// The first read — the version-negotiation window — is bounded: a
	// peer that connects and sends nothing must not hold this goroutine
	// forever. Once the peer has said anything (hello, any op, garbage)
	// the connection is idle-tolerant.
	awaitingFirst := true
	transport.AwaitFirst(conn)
	var req wireRequest
	for {
		req = wireRequest{}
		f, err := c.cdc.readRequest(&req)
		if awaitingFirst {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.handshakeTimeouts.Add(1)
				log.Printf("gateway: wire: dropping %s: nothing received within the %s negotiation window", conn.RemoteAddr(), transport.FirstReadTimeout)
				return
			}
			awaitingFirst = false
			transport.GotFirst(conn)
		}
		if err != nil {
			if !c.readFault(err) {
				return
			}
			continue
		}
		if f != nil {
			// A batch frame is a publish, fire-and-forget like all of
			// them. The CRC vouched for transport integrity; a payload
			// that is nonsense all the same (or whose record bodies are)
			// counts like any other bad message.
			c.oneWay = true
			if err := t.gw.PublishFrame(f); err != nil {
				if !c.noteBad(err, false) {
					return
				}
				continue
			}
			c.badStreak = 0
			continue
		}
		c.badStreak = 0
		req.Principal = transport.PeerPrincipal(conn, req.Principal)
		switch {
		case req.Op == "hello" && c.cdc.version() == 1:
			// Version negotiation: answer with the highest mutually
			// supported version. Anything ≥ 2 switches the connection to
			// binary framing; 1 keeps JSON lines — the zero-handshake
			// compat behavior, explicitly negotiated.
			ver := min(req.MaxVersion, int(t.maxVersion.Load()))
			if ver < 1 {
				ver = 1
			}
			if !c.reply(wireResponse{OK: true, Version: ver}) {
				return
			}
			if ver >= 2 {
				c.cdc, c.bad = newFrameCodec(conn, conn), &t.badFrames
			}
		case req.Op == "subscribe":
			c.serveSubscribe(req)
			return // the subscription owns the connection
		case req.Op == "history":
			if !c.serveHistory(req) {
				return
			}
			t.countRequest(req.Op)
		case req.Op == "publish":
			// Fire-and-forget: a remote sensor manager streams events on
			// a persistent connection, no acks — the event path must not
			// pay a round trip per record.
			c.oneWay = true
			c.publish(req)
		default:
			// Counted before the answer is written, so a client holding
			// its answer never reads a counter that lacks it.
			resp := c.handle(req)
			t.countRequest(req.Op)
			if !c.reply(resp) {
				return
			}
		}
	}
}

// reply writes resp to the peer and reports whether that worked.
func (c *serverConn) reply(resp wireResponse) bool {
	c.resp = resp
	return c.cdc.writeResponse(&c.resp) == nil
}

// readFault handles a failed read — here and on a subscription's
// control stream — and reports whether the connection goes on. A bad
// message that was consumed whole is counted and skipped; a stream
// that cannot be resynchronized (an implausible frame length, an
// over-long line and everything buffered behind it) is counted and
// closed; anything else is ordinary transport teardown.
func (c *serverConn) readFault(err error) bool {
	if bad, ok := err.(*badMessage); ok {
		return c.noteBad(bad.err, bad.answer)
	}
	if errors.Is(err, errFrameTooBig) || errors.Is(err, bufio.ErrTooLong) {
		c.bad.Add(1)
		log.Printf("gateway: wire: closing %s: %v (desynchronized, oversized or hostile stream)", c.conn.RemoteAddr(), err)
	}
	return false
}

// noteBad counts one bad message the stream survived and reports
// whether the connection goes on. One malformed message must not kill a
// persistent publisher stream — every event in flight behind it stays
// alive — but a peer that is all garbage is cut off after a bounded
// streak. answer says the framing owes the peer an error response;
// those stop once the connection is one-way and after a bounded total,
// so unread responses can never back up into the socket buffers and
// wedge the stream.
func (c *serverConn) noteBad(err error, answer bool) bool {
	c.bad.Add(1)
	if !c.loggedBad {
		c.loggedBad = true
		log.Printf("gateway: wire: bad message from %s: %v (counting further ones silently)", c.conn.RemoteAddr(), err)
	}
	c.badStreak++
	c.badTotal++
	if c.badStreak >= maxConsecutiveBadLines {
		log.Printf("gateway: wire: closing %s after %d consecutive bad messages", c.conn.RemoteAddr(), c.badStreak)
		return false
	}
	if answer && !c.oneWay && c.badTotal < maxConsecutiveBadLines {
		return c.reply(wireResponse{Error: "bad request: " + err.Error()})
	}
	return true
}

// publish feeds an op=publish request — single-record or batched —
// into the gateway, counting undecodable records. The request's
// payloads are decoded as one batch and ingested as whole per-sensor
// batches (PublishBatch per run of consecutive same-sensor records), so
// a coalesced publisher pays one gateway fan-out per run instead of one
// per record.
func (c *serverConn) publish(req wireRequest) {
	gw := c.t.gw
	c.in.reset()
	if len(req.Recs) == 0 {
		c.in.addEvent(req.Sensor, req.Rec)
	}
	for _, ev := range req.Recs {
		sensor := ev.Sensor
		if sensor == "" {
			sensor = req.Sensor
		}
		c.in.addEvent(sensor, ev.Rec)
	}
	noteBad := func(err error) error {
		c.t.badRecords.Add(1)
		if !c.loggedBadRecord {
			c.loggedBadRecord = true
			log.Printf("gateway: wire: undecodable %s record from %s: %v (counting further ones silently)", req.Format, c.conn.RemoteAddr(), err)
		}
		return nil
	}
	c.in.runs(req.Format, noteBad, func(sensor string, recs []ulm.Record) error { //nolint:errcheck // neither callback fails
		switch {
		case req.Replica:
			gw.PublishReplicaBatch(sensor, recs)
		case len(req.Recs) == 0:
			gw.Publish(sensor, recs[0])
		default:
			gw.PublishBatch(sensor, recs)
		}
		return nil
	})
}

// handle answers one of the request/answer ops.
func (c *serverConn) handle(req wireRequest) wireResponse {
	t := c.t
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
			if err := checkFormat(req.Format); err != nil {
				return wireResponse{Error: err.Error()}
			}
			c.payload = appendPayload(c.payload[:0], req.Format, &rec)
			resp.payload = c.payload
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
		// Refuse before draining: a handoff nobody can read must leave
		// the sensor's state where it is.
		if err := checkFormat(req.Format); err != nil {
			return wireResponse{Error: err.Error()}
		}
		st, ok := t.gw.Handoff(req.Sensor)
		if !ok {
			return wireResponse{OK: true}
		}
		resp := wireResponse{OK: true, Found: true, Sensor: req.Sensor, Meta: &st.Meta,
			Summaries: st.Summaries, Agg: st.Agg}
		for i := range st.Recs {
			payload := string(appendPayload(nil, req.Format, &st.Recs[i]))
			resp.Recs = append(resp.Recs, wireEvent{Sensor: req.Sensor, Rec: payload})
		}
		return resp
	case "seed_state":
		// The receiving half of a rebalancing move: install the drained
		// summary windows and aggregate contribution for the sensor this
		// gateway is about to own, or refuse all of it when any part is
		// invalid. Control-plane verb, control-plane authorization, like
		// handoff.
		if err := t.gw.authorize(req.Principal, req.Sensor, auth.ActionControl); err != nil {
			return wireResponse{Error: err.Error()}
		}
		if err := t.gw.SeedState(req.Sensor, req.Summaries, req.Agg); err != nil {
			return wireResponse{Error: err.Error()}
		}
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

// clampBatchMax bounds a client-requested coalescing window; unset
// selects def.
func clampBatchMax(n, def int) int {
	if n < 1 {
		return def
	}
	return min(n, maxBatchRecords)
}

// serveHistory streams a time-range archive query back as event
// frames, terminated by an eof message carrying the record count. A
// framing that can splice stored frames gets the archive's frames
// whose segment falls entirely inside the query (and which need no
// per-record filtering) without a single record body decoded — history
// replay at disk read speed; everything else decodes, filters and
// re-encodes. Flow control is the frame size (the request's batch_max,
// clamped) plus TCP backpressure: the replay reads segments only as
// fast as the client drains frames. It reports whether the connection
// is still usable for further requests.
func (c *serverConn) serveHistory(req wireRequest) bool {
	t := c.t
	refuse := func(msg string) bool {
		return c.reply(wireResponse{Error: msg})
	}
	hist := t.hist.Load()
	if hist == nil {
		return refuse("gateway: history not enabled")
	}
	if err := t.gw.authorize(req.Principal, req.Sensor, auth.ActionQuery); err != nil {
		return refuse(err.Error())
	}
	if err := c.cdc.checkFormat(req.Format); err != nil {
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
	batchMax := clampBatchMax(req.BatchMax, 256)
	n := 0
	cooked := func(sensor string, recs []ulm.Record) error {
		m, err := c.cdc.writeBatch(req.Format, sensor, recs)
		n += m
		return err
	}
	if sp, ok := c.cdc.(frameSplicer); ok {
		err = hist.ReplayFrames(q, batchMax, func(sensor string, count int, recBytes []byte) error {
			m, err := sp.writeStored(sensor, count, recBytes, batchMax)
			n += m
			return err
		}, cooked)
	} else {
		err = hist.Replay(q, batchMax, cooked)
	}
	if err != nil {
		// Either the client went away (the connection is dead anyway)
		// or the archive failed mid-stream: report and let the client
		// distinguish a terminal error from a clean eof.
		return refuse("gateway: history: " + err.Error())
	}
	return c.reply(wireResponse{OK: true, Eof: true, N: n})
}

// serveSubscribe is the subscribe pump: it opens a queued subscription
// and writes what arrives out through the framing's event writer until
// the subscriber goes away.
func (c *serverConn) serveSubscribe(req wireRequest) {
	t := c.t
	if err := c.cdc.checkFormat(req.Format); err != nil {
		c.reply(wireResponse{Error: err.Error()})
		return
	}
	// batchMax is the coalescing window — per batch, not per
	// subscription: the client may resize it mid-stream with an
	// op=batch_max control message, so a consumer that falls behind can
	// widen its frames (fewer, larger writes) and shrink them back for
	// low latency, without resubscribing.
	var batchMax atomic.Int64
	batchMax.Store(int64(clampBatchMax(req.BatchMax, 1)))
	// Deliveries flow through a bounded queue so the gateway's publish
	// path is never blocked by a slow consumer connection; what the
	// queue refuses is counted per record, per subscription and
	// server-wide.
	_, frames := c.cdc.(frameSplicer)
	sub, err := t.gw.subscribeQueued(req.Request, wireSubChanDepth, frames, func(n int) { t.subDrops.Add(uint64(n)) })
	if err != nil {
		c.reply(wireResponse{Error: err.Error()})
		return
	}
	defer sub.Cancel()
	// Registered, DrainSubscribers can tell when every in-flight record
	// — queued or dequeued into a partial frame — has been written out.
	t.mu.Lock()
	t.subs[sub] = struct{}{}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.subs, sub)
		t.mu.Unlock()
	}()
	if !c.reply(wireResponse{OK: true}) {
		return
	}
	// From here on the write side is the pump's. The subscriber's side
	// is read for control messages until it goes away, which ends the
	// pump. Reading rides the connection's codec so pipelined bytes
	// already buffered behind the subscribe request are not lost, and
	// garbage is counted and bounded like anywhere else — a subscriber
	// streaming it loses the connection (and its subscription resources)
	// instead of holding them forever.
	c.oneWay = true
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ctl wireRequest
		for {
			ctl = wireRequest{}
			f, err := c.cdc.readRequest(&ctl)
			switch {
			case err != nil:
				if !c.readFault(err) {
					return
				}
			case f != nil:
				if !c.noteBad(errors.New("gateway: batch frame on a subscription's control stream"), false) {
					return
				}
			default:
				c.badStreak = 0
				if ctl.Op == "batch_max" {
					batchMax.Store(int64(clampBatchMax(ctl.BatchMax, 1)))
				}
			}
		}
	}()
	w := c.cdc.events(req.Format, sub)
	relay, _ := w.(frameRelay) // nil when the framing subscribed cooked
	var burst []frameItem
	for {
		select {
		case <-sub.q.Ready():
		case <-done:
			return
		}
		// Everything queued by now — one upstream flush, or all that
		// arrived while the last write was under way — goes out together,
		// the partial frame too: under load the next burst fills frames.
		burst = sub.q.PopAll(burst)
		for i := range burst {
			if it := &burst[i]; it.f != nil {
				// A raw relayed frame is forwarded untouched — the
				// zero-copy hot path — behind the cooked partial.
				// batch_max never re-batches these; re-framing is what
				// binary framing avoids.
				relay.relay(it)
			} else {
				// The window is re-read per delivered batch so a retune
				// takes effect on the next frames.
				w.add(it.tb.Sensor, it.tb.Recs, int(batchMax.Load()))
				it.recycle()
			}
		}
		if w.commit() != nil {
			return
		}
		sub.q.Settle()
	}
}

// DrainSubscribers waits until every open subscription's in-flight
// records — queued, or dequeued into a frame not yet written — have
// been written out, or until timeout. It reports whether the drain
// completed. A drained shutdown is StopAccepting, stopping every other
// publisher of the gateway, DrainSubscribers, then Close: a publish has
// reached the subscription queues by the time it returns, so once the
// publishers have stopped there is nothing upstream of the queues left
// to wait for.
func (t *TCPServer) DrainSubscribers(timeout time.Duration) bool {
	idle := func() bool {
		t.mu.Lock()
		defer t.mu.Unlock()
		for sub := range t.subs {
			if sub.ChanBacklog() > 0 {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if idle() {
			return true
		}
	}
	return idle()
}
