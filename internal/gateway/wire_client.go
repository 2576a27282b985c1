package gateway

import (
	"bufio"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jamm/internal/histstore"
	"jamm/internal/transport"
	"jamm/internal/ulm"
)

// ErrV2Unsupported reports a ProtoV2-pinned operation against a server
// that only speaks JSON lines.
var ErrV2Unsupported = errors.New("gateway: server does not support wire protocol v2")

// Proto selects a client's wire protocol policy.
type Proto int

const (
	// ProtoAuto negotiates binary v2 where the op and format allow it,
	// falling back to JSON-per-line when the server cannot.
	ProtoAuto Proto = iota
	// ProtoJSON never negotiates: JSON-per-line, wire-compatible with
	// every server version.
	ProtoJSON
	// ProtoV2 requires binary v2; hot-path operations against a server
	// that cannot speak it fail with ErrV2Unsupported rather than
	// silently degrading.
	ProtoV2
)

// ParseProto parses a wire protocol policy name ("auto", "json", "v2").
func ParseProto(s string) (Proto, error) {
	switch s {
	case "auto":
		return ProtoAuto, nil
	case "json":
		return ProtoJSON, nil
	case "v2":
		return ProtoV2, nil
	}
	return 0, fmt.Errorf("gateway: unknown wire protocol %q (want auto, json, or v2)", s)
}

// Client talks to one gateway server.
//
// The read-only request/answer calls — Ping, Drops, Query, Summary, List
// and Coverage — ride kept connections: each takes an idle JSON-lines
// connection (or dials when none is idle), runs its one request → answer
// exchange under the per-call Timeout, and puts the connection back. At
// most clientIdleConns stay open between calls; a connection whose
// answer did not arrive whole is closed, never kept. When a kept
// connection turns out to be stale — it fails, other than by timing out,
// before the first byte of an answer — the request is sent once more on
// a fresh dial, which Redials counts: these calls are idempotent.
// Handoff and SeedState are not, so they dial per call and are never
// re-sent. Publishers, streams and history calls own a connection each.
//
// Whoever makes a Client closes it: Close drops the idle connections. A
// Client is safe for concurrent use, its zero value with an Addr set
// works, and it must not be copied once used.
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

	mu     sync.Mutex
	idle   []*clientConn // kept request/answer connections, most recent last
	closed bool          // Close was called: nothing is kept any more

	redials atomic.Uint64
}

// clientIdleConns caps the request/answer connections a Client keeps
// open between calls. Callers past it dial and hang up, as every call
// once did.
const clientIdleConns = 2

// clientConn is one request/answer connection and its codec. It counts
// the bytes read off it: a failed exchange that read none never got an
// answer.
type clientConn struct {
	net.Conn
	cdc  *lineCodec
	read int64
}

func (cc *clientConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.read += int64(n)
	return n, err
}

// NewClient returns a client for the gateway at addr.
func NewClient(principal, addr string) *Client {
	return &Client{Addr: addr, Principal: principal, Timeout: 5 * time.Second}
}

// Close closes the idle request/answer connections; calls still under
// way close theirs as they finish. The client stays usable — it dials
// per call from here on. Close is idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle, c.closed = nil, true
	c.mu.Unlock()
	for _, cc := range idle {
		cc.Close() //nolint:errcheck // read-only connections, nothing buffered
	}
	return nil
}

// Redials returns how many requests were sent a second time because the
// kept connection they first went out on had gone stale (the server
// restarted, or hung up on an idle peer).
func (c *Client) Redials() uint64 { return c.redials.Load() }

// dialCodec dials and, when the client's policy and the payload format
// allow binary framing, performs the version handshake. It returns the
// connection and the codec of the framing both sides now speak, which
// reads through the handshake's buffered reader (it may hold bytes past
// the hello response). That reader is only big enough for the
// handshake line: publishers never read again and JSON streams buffer
// in their codec.
func (c *Client) dialCodec(format string) (net.Conn, wireCodec, error) {
	conn, err := transport.Dial(c.Addr, c.Timeout, c.TLS)
	if err != nil {
		return nil, nil, err
	}
	br := bufio.NewReaderSize(conn, 512)
	if c.Protocol == ProtoJSON || !V2Format(format) {
		if c.Protocol == ProtoV2 {
			conn.Close()
			return nil, nil, fmt.Errorf("gateway: format %q cannot ride wire v2", format)
		}
		return conn, newLineCodec(conn, br, 0), nil
	}
	if c.Timeout > 0 {
		conn.SetDeadline(time.Now().Add(c.Timeout)) //nolint:errcheck
	}
	hello, _ := marshalRequest(make([]byte, 0, 64), &wireRequest{Op: "hello", MaxVersion: wireVersionMax})
	if _, err := conn.Write(append(hello, '\n')); err != nil {
		conn.Close()
		return nil, nil, err
	}
	line, err := br.ReadBytes('\n')
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("gateway: hello: %w", err)
	}
	conn.SetDeadline(time.Time{}) //nolint:errcheck
	// A pre-v2 server answers hello with an unknown-op error and keeps
	// the connection usable: that IS the fallback signal — anything but
	// an explicit ok/version ≥ 2 means JSON lines from here on.
	var in inboundEvents
	var resp wireResponse
	if in.readResponse(line, &resp) == nil && resp.OK && resp.Version > 1 {
		return conn, newFrameCodec(conn, br), nil
	}
	if c.Protocol == ProtoV2 {
		conn.Close()
		return nil, nil, ErrV2Unsupported
	}
	return conn, newLineCodec(conn, br, 0), nil
}

// takeIdle returns the most recently used idle connection, if any.
func (c *Client) takeIdle() (cc *clientConn) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		cc, c.idle = c.idle[n-1], c.idle[:n-1]
	}
	c.mu.Unlock()
	return cc
}

// exchange runs one request → answer on cc under the per-call deadline.
// An error means the answer did not arrive whole, and cc is closed; with
// the answer in hand cc joins the idle list if keep is set and there is
// room, and is closed otherwise. The answer's events lie in cc's codec,
// which the next call on cc reuses: a caller that wants them passes
// decode, which runs on an answer that arrived whole before cc is let
// go, and whose error is the call's.
func (c *Client) exchange(cc *clientConn, req *wireRequest, keep bool, decode func(*inboundEvents) error) (resp wireResponse, err error) {
	var deadline time.Time
	if c.Timeout > 0 {
		deadline = time.Now().Add(c.Timeout)
	}
	cc.SetDeadline(deadline) //nolint:errcheck
	req.Principal = c.Principal
	if err = cc.cdc.writeRequest(req); err == nil {
		_, err = cc.cdc.readResponse(&resp)
	}
	var derr error
	if err == nil && decode != nil {
		derr = decode(resp.events)
	}
	resp.events = nil
	c.mu.Lock()
	keep = keep && err == nil && !c.closed && len(c.idle) < clientIdleConns
	if keep {
		c.idle = append(c.idle, cc)
	}
	c.mu.Unlock()
	if !keep {
		cc.Close() //nolint:errcheck // a request/answer connection has nothing buffered
	}
	if err == nil {
		err = derr
	}
	return resp, err
}

// dialTrip is one request/answer call on a fresh connection, which is
// kept afterwards if keep is set.
func (c *Client) dialTrip(req *wireRequest, keep bool, decode func(*inboundEvents) error) (wireResponse, error) {
	conn, err := transport.Dial(c.Addr, c.Timeout, c.TLS)
	if err != nil {
		return wireResponse{}, err
	}
	cc := &clientConn{Conn: conn}
	cc.cdc = newLineCodec(cc, cc, 0)
	return answer(c.exchange(cc, req, keep, decode))
}

// answer turns a refusal that arrived whole into the call's error.
func answer(resp wireResponse, err error) (wireResponse, error) {
	if err != nil {
		return wireResponse{}, err
	}
	if !resp.OK {
		return resp, errors.New(resp.Error)
	}
	return resp, nil
}

// roundTrip is one idempotent request/answer call, on a kept connection
// when there is one; decode is exchange's.
func (c *Client) roundTrip(req wireRequest, decode func(*inboundEvents) error) (wireResponse, error) {
	if cc := c.takeIdle(); cc != nil {
		before := cc.read
		resp, err := c.exchange(cc, &req, true, decode)
		if err == nil || cc.read != before || timedOut(err) {
			return answer(resp, err)
		}
		// Stale: the server let go of the connection while it sat idle,
		// and nothing of an answer arrived. The request goes out again,
		// once, on a connection of its own.
		c.redials.Add(1)
	}
	return c.dialTrip(&req, true, decode)
}

// timedOut reports whether err is a deadline that passed.
func timedOut(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Ping checks server liveness.
func (c *Client) Ping() error {
	_, err := c.roundTrip(wireRequest{Op: "ping"}, nil)
	return err
}

// Drops pings the server and returns its cumulative wire-drop counter
// (undecodable publish records + unparseable lines + slow-subscriber
// drops) — the observability hook for "no silent loss on the wire".
func (c *Client) Drops() (uint64, error) {
	resp, err := c.roundTrip(wireRequest{Op: "ping"}, nil)
	if err != nil {
		return 0, err
	}
	return resp.Drops, nil
}

// Query fetches the most recent event of the named type. The record is
// decoded from the answer as it was read, into a string arena and a
// field slab of its own.
func (c *Client) Query(sensor, event string) (ulm.Record, bool, error) {
	var rec ulm.Record
	n := 0
	resp, err := c.roundTrip(wireRequest{Op: "query", Event: event, Request: Request{Sensor: sensor}}, func(in *inboundEvents) (err error) {
		n, err = in.runs(FormatULM, func(err error) error { return err }, func(_ string, recs []ulm.Record) error {
			rec = recs[0]
			return nil
		})
		return err
	})
	switch {
	case err != nil:
		return ulm.Record{}, false, err
	case !resp.Found:
		return ulm.Record{}, false, nil
	case n != 1:
		return ulm.Record{}, false, errors.New("gateway: query answer without its record")
	}
	return rec, true, nil
}

// Summary fetches windowed statistics for a summarized series.
func (c *Client) Summary(sensor, event, field string) ([]SummaryPoint, error) {
	resp, err := c.roundTrip(wireRequest{Op: "summary", Event: event, Request: Request{Sensor: sensor, Field: field}}, nil)
	if err != nil {
		return nil, err
	}
	return resp.Summary, nil
}

// List fetches the gateway's sensor listing.
func (c *Client) List() ([]SensorInfo, error) {
	resp, err := c.roundTrip(wireRequest{Op: "list"}, nil)
	if err != nil {
		return nil, err
	}
	return resp.Sensors, nil
}

// Handoff drains one sensor's state from the gateway for a rebalancing
// move: the sensor's metadata, last-event cache, summary windows and
// aggregate contribution come back and the remote gateway unregisters
// it (withdrawing its directory advertisement). found is false when
// the sensor was not live there. A handoff changes the gateway, so it
// goes out on a connection of its own and is never sent twice.
func (c *Client) Handoff(sensor string) (st HandoffState, found bool, err error) {
	resp, err := c.dialTrip(&wireRequest{Op: "handoff", Request: Request{Sensor: sensor}}, false, nil)
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
		rec, derr := ulm.Parse(ev.Rec)
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
// one. Like Handoff it dials per call and is never re-sent.
func (c *Client) SeedState(sensor string, summaries []SummarySeries, agg string) error {
	if len(summaries) == 0 && agg == "" {
		return nil
	}
	_, err := c.dialTrip(&wireRequest{Op: "seed_state", Summaries: summaries, Agg: agg,
		Request: Request{Sensor: sensor}}, false, nil)
	return err
}

// Coverage fetches the gateway archive's per-segment time spans for
// sensor ("" = whole archive) — the comparison unit anti-entropy uses
// to find and close gaps between a primary's and a replica's history.
func (c *Client) Coverage(sensor string) ([]histstore.Span, error) {
	resp, err := c.roundTrip(wireRequest{Op: "coverage", Request: Request{Sensor: sensor}}, nil)
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
// valid during the callback, and its records share storage
// (ulm.DecodeBinaryBatch, ulm.TextBatch): keep rec.Compact() or
// Clone(), not the record. It returns how many records the server's
// stream carried. fn returning an error abandons the stream.
func (c *Client) HistoryStream(hr HistoryRequest, fn func(sensor string, recs []ulm.Record) error) (int, error) {
	conn, cdc, err := c.dialCodec(hr.Format)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	var in inboundEvents
	return c.history(conn, cdc, &in, hr, fn)
}

// history is HistoryStream on an open connection; in decodes the events
// of a JSON-lines answer.
func (c *Client) history(conn net.Conn, cdc wireCodec, in *inboundEvents, hr HistoryRequest, fn func(sensor string, recs []ulm.Record) error) (int, error) {
	if c.Timeout > 0 {
		// The deadline covers the dial and each frame gap, not the
		// whole stream: it is pushed forward as frames arrive.
		conn.SetDeadline(time.Now().Add(c.Timeout)) //nolint:errcheck
	}
	req := hr.wire(c.Principal)
	if err := cdc.writeRequest(&req); err != nil {
		return 0, err
	}
	fatal := func(err error) error { return fmt.Errorf("gateway: history stream: %w", err) }
	var resp wireResponse
	var recs []ulm.Record
	n := 0
	for {
		if c.Timeout > 0 {
			conn.SetReadDeadline(time.Now().Add(c.Timeout)) //nolint:errcheck
		}
		resp = wireResponse{events: in}
		f, err := cdc.readResponse(&resp)
		switch {
		case err != nil:
			return n, fatal(err)
		case f != nil:
			if recs, err = f.Records(recs[:0]); err != nil {
				return n, fatal(err)
			}
			n += len(recs)
			if err := fn(f.Sensor, recs); err != nil {
				return n, err
			}
		case resp.Error != "":
			return n, errors.New(resp.Error)
		case resp.Eof:
			return resp.N, nil
		default:
			m, err := in.runs(hr.Format, fatal, fn)
			n += m
			if err != nil {
				return n, err
			}
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
	ver    int
	format string

	// Records accumulate in batch — the framing's frame builder — and
	// go out as one write per maxRecs records or maxBatchBytes of payload;
	// bufRecs and bufBytes count what it holds.
	batch    pubBatch
	maxRecs  int
	bufRecs  int
	bufBytes int
	// kick wakes the flusher goroutine, which sends what a publish left
	// buffered once nobody is waiting to publish more (waiting counts
	// callers queued for mu). Nil when the caller flushes; idle is closed
	// once the flusher has gone.
	kick    chan struct{}
	idle    chan struct{}
	waiting atomic.Int32
	err     error
	closed  bool

	closeOnce sync.Once
	closeErr  error

	// dropped counts records lost to a failed write: a flush error
	// discards the whole buffered batch (records whose Publish already
	// returned nil), so the loss must be observable, not silent.
	dropped uint64
}

// NewPublisher opens an event-publishing connection to the gateway.
// Events travel in the given payload format (FormatULM by default),
// one frame per record.
func (c *Client) NewPublisher(format string) (*Publisher, error) {
	return c.NewBatchPublisher(format, 1, 0)
}

// FlushWhenIdle is the maxWait of a publisher that sends a partial batch
// as soon as its callers leave the connection idle.
const FlushWhenIdle = time.Nanosecond

// NewBatchPublisher opens a publishing connection that coalesces up to
// maxRecs records into one batched wire frame, amortizing the
// per-record JSON and syscall cost. maxRecs <= 1 degenerates to
// single-record frames. maxWait > 0 (FlushWhenIdle; the magnitude is
// ignored) sends a partial batch as soon as nobody is publishing, so
// frames fill under load and nothing waits at rest; maxWait <= 0 means
// it waits until the next Publish or Flush. Batches are capped by
// record count and by encoded bytes so a full frame stays within the
// server's line-length limit.
func (c *Client) NewBatchPublisher(format string, maxRecs int, maxWait time.Duration) (*Publisher, error) {
	if format == "" {
		format = FormatULM
	}
	maxRecs = min(maxRecs, maxBatchRecords)
	conn, cdc, err := c.dialCodec(format)
	if err != nil {
		return nil, err
	}
	if err := cdc.checkFormat(format); err != nil {
		conn.Close()
		return nil, err
	}
	return newPublisher(conn, cdc, format, maxRecs, maxWait), nil
}

func newPublisher(conn net.Conn, cdc wireCodec, format string, maxRecs int, maxWait time.Duration) *Publisher {
	p := &Publisher{conn: conn, ver: cdc.version(), format: format, batch: cdc.newBatch(format, maxRecs <= 1), maxRecs: maxRecs}
	if maxWait > 0 && maxRecs > 1 {
		p.kick, p.idle = make(chan struct{}, 1), make(chan struct{})
		go p.flushIdle()
	}
	return p
}

// flushIdle is the flusher. A kick that finds callers queued for the
// lock leaves the batch to them: the last one out kicks again.
func (p *Publisher) flushIdle() {
	defer close(p.idle)
	for range p.kick {
		p.mu.Lock()
		if p.waiting.Load() == 0 {
			p.flushLocked() //nolint:errcheck // sticks to the publisher, counted in Dropped
		}
		p.mu.Unlock()
	}
}

// Publish sends one sensor record; an error indicates a dead
// connection. In batch mode the record may be buffered; a write
// error surfaces on the Publish/Flush/Close that performs the write
// and sticks to the publisher afterwards.
func (p *Publisher) Publish(sensor string, rec ulm.Record) error {
	one := [1]ulm.Record{rec}
	_, err := p.PublishBatch(sensor, one[:])
	return err
}

// PublishBatch sends a batch of one sensor's records, preserving their
// order. On a batching publisher the records join the buffered frame
// (flushed at the record/byte caps as usual); on a single-frame
// publisher (maxRecs <= 1) each record goes out as its own
// wire-compatible frame. A write error surfaces like Publish's.
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
	defer p.lock().Unlock()
	if err := p.usableLocked(); err != nil {
		return 0, err
	}
	for i := range recs {
		n, err := p.batch.add(sensor, recs[i])
		if err != nil {
			return written, err
		}
		p.bufRecs++
		p.bufBytes += n
		if p.bufRecs >= p.maxRecs || p.bufBytes >= maxBatchBytes {
			if err := p.flushLocked(); err != nil {
				return written, err
			}
			// The flushed frame carried this batch's records up to and
			// including the i-th.
			written = i + 1
		}
	}
	p.kickLocked()
	return len(recs), nil
}

// PublishFrame forwards a pre-encoded record-batch frame. On a binary
// connection the frame's bytes join the write buffer untouched — the
// zero-copy relay path a router or replication link rides so a frame
// sealed once at the edge never pays the codec again; a replica-mode
// publisher flags the copy in place. On a JSON connection the frame
// decodes and republishes as an ordinary batch. written counts like
// PublishBatch's: records carried by successful writes, with buffered
// records counting as accepted.
func (p *Publisher) PublishFrame(f *Frame) (written int, err error) {
	fb, ok := p.batch.(frameBatch)
	if !ok {
		recs, derr := f.Records(nil)
		if derr != nil {
			return 0, derr
		}
		return p.PublishBatch(f.Sensor, recs)
	}
	defer p.lock().Unlock()
	if err := p.usableLocked(); err != nil {
		return 0, err
	}
	n := fb.splice(f)
	p.bufBytes += n
	p.bufRecs += f.Count
	if p.bufRecs >= p.maxRecs || p.bufBytes >= maxBatchBytes {
		if err := p.flushLocked(); err != nil {
			return 0, err
		}
		return f.Count, nil
	}
	p.kickLocked()
	return f.Count, nil
}

// lock takes mu for a publish, counted as waiting until it has it.
func (p *Publisher) lock() *sync.Mutex {
	p.waiting.Add(1)
	p.mu.Lock()
	p.waiting.Add(-1)
	return &p.mu
}

func (p *Publisher) usableLocked() error {
	if p.err != nil {
		return p.err
	}
	if p.closed {
		return errors.New("gateway: publisher closed")
	}
	return nil
}

// kickLocked wakes the flusher, if there is one, for the partial batch a
// publish left behind. Close closes kick under the same lock.
func (p *Publisher) kickLocked() {
	if p.kick != nil && p.bufRecs > 0 {
		select {
		case p.kick <- struct{}{}:
		default:
		}
	}
}

// Flush sends any buffered batch immediately.
func (p *Publisher) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushLocked()
}

func (p *Publisher) flushLocked() error {
	if p.err != nil {
		return p.err
	}
	err := p.batch.flush()
	if err != nil {
		p.err = err
		p.dropped += uint64(p.bufRecs)
	}
	p.bufRecs, p.bufBytes = 0, 0
	return err
}

// MarkReplica switches the publisher into replica mode: every record
// it sends from now on is flagged as a replicated copy — ingested by
// the receiving gateway without firing registration hooks and never
// re-forwarded to its replica set. Replication links (bridge
// package) call this once, right after dialing.
func (p *Publisher) MarkReplica() {
	p.mu.Lock()
	p.batch.markReplica()
	p.mu.Unlock()
}

// Dropped returns how many records this publisher lost to failed
// writes — buffered batch records whose Publish had already returned
// nil when the flush later failed, plus failed single-record frames.
func (p *Publisher) Dropped() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

// Version reports the wire protocol version the publisher negotiated
// (1 = JSON lines).
func (p *Publisher) Version() int { return p.ver }

// Close flushes any buffered batch, stops the flusher and releases the
// connection. Only the first call does; the others return its result.
func (p *Publisher) Close() error {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closeErr = p.flushLocked()
		p.closed = true
		if err := p.conn.Close(); err != nil {
			p.closeErr = err
		}
		if p.kick != nil {
			close(p.kick)
		}
		p.mu.Unlock()
		if p.kick != nil {
			<-p.idle
		}
	})
	return p.closeErr
}

// StreamOptions tunes a streaming subscription.
type StreamOptions struct {
	// Format is the event payload format (FormatULM by default).
	Format string
	// BatchMax asks the server to coalesce up to this many records per
	// frame (0 or 1 = single-record frames).
	BatchMax int
	// BatchWait is advisory: it travels as batch_wait_ms, which a server
	// that sends a partial batch once its writer is idle ignores.
	BatchWait time.Duration
}

// Stream is an open streaming subscription. Records arrive on a
// dedicated goroutine; Done is closed when the stream ends (server
// gone, Close called), after which Err reports why.
type Stream struct {
	conn net.Conn
	cdc  wireCodec
	// in decodes the events of a JSON-lines stream; the reader
	// goroutine's.
	in inboundEvents

	drops      atomic.Uint64 // cumulative remote slow-consumer drops
	decodeErrs atomic.Uint64 // messages or payloads that failed local decode

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
// counter for this subscription, as the server reports it: the records
// the server delivered but this stream never received.
func (s *Stream) RemoteDrops() uint64 { return s.drops.Load() }

// DecodeErrors returns how many received frames or payloads failed to
// decode locally (counted, never silently skipped).
func (s *Stream) DecodeErrors() uint64 { return s.decodeErrs.Load() }

// Version reports the wire protocol version the stream negotiated
// (1 = JSON lines).
func (s *Stream) Version() int { return s.cdc.version() }

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
	// The codec's write side and conn are untouched by the reader, so the
	// request mutex (s.mu, which guards err and is taken by the reader
	// goroutine on every stream end) is not needed here. Holding it
	// across the network write would let a stalled peer pin the lock and
	// block Err() and the read loop indefinitely; ctlMu serializes only
	// concurrent control writes against each other.
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	return s.cdc.writeRequest(&wireRequest{Op: "batch_max", BatchMax: max(n, 1)}) //jamm:lock-ok ctlMu exists only to serialize this write; no reader-path lock is held
}

// Subscribe opens a streaming subscription in the given payload format;
// fn runs on a dedicated goroutine per received record. The returned
// stop function closes the stream.
func (c *Client) Subscribe(req Request, format string, fn func(ulm.Record)) (stop func(), err error) {
	st, err := c.SubscribeBatchStream(req, StreamOptions{Format: format}, func(_ string, recs []ulm.Record) {
		for i := range recs {
			fn(recs[i])
		}
	})
	if err != nil {
		return nil, err
	}
	return st.Close, nil
}

// SubscribeBatchStream opens a streaming subscription delivering whole
// batches: fn receives each run of consecutive same-sensor records of
// a received wire frame as one slice together with the sensor (bus
// topic) they were published under, on the stream's reader goroutine.
// The slice is only valid for the duration of the call, and its records
// share storage (ulm.DecodeBinaryBatch, ulm.TextBatch): keep
// rec.Compact() or Clone(), not the record. This is the ingest form batch consumers (bridges
// republishing into a local bus, batch archivers) ride.
func (c *Client) SubscribeBatchStream(req Request, opts StreamOptions, fn func(sensor string, recs []ulm.Record)) (*Stream, error) {
	return c.openStream(req, opts, opts.Format, nil, fn)
}

// SubscribeFrameStream opens a v2-only subscription delivering whole
// binary frames without decoding their record bodies — the relay form:
// a bridge in pure pass-through position forwards each frame's bytes
// into the downstream gateway untouched. fn runs on the stream's
// reader goroutine; the frame is borrowed (the reader releases its
// buffer before the next frame), so callees that keep it must Retain —
// or Clone, for a copy they may rewrite. Returns
// ErrV2Unsupported when the server (or the client's Protocol pin)
// cannot speak v2 — the caller's signal to fall back to a decoded
// stream.
func (c *Client) SubscribeFrameStream(req Request, opts StreamOptions, fn func(f *Frame)) (*Stream, error) {
	if !PassThrough(req) {
		// Filtering forces a record decode somewhere, which is exactly
		// what this API promises not to do.
		return nil, fmt.Errorf("gateway: frame streams cannot filter (mode %v, %d events)", req.Mode, len(req.Events))
	}
	return c.openStream(req, opts, "", fn, nil)
}

// openStream dials in the framing format allows, subscribes, and starts
// the stream's reader. Frames go to onFrame when it is set — which also
// refuses a connection that cannot carry them — and decode into onBatch
// otherwise.
func (c *Client) openStream(req Request, opts StreamOptions, format string, onFrame func(*Frame), onBatch func(string, []ulm.Record)) (*Stream, error) {
	conn, cdc, err := c.dialCodec(format)
	if err != nil {
		return nil, err
	}
	if _, raw := cdc.(frameSplicer); onFrame != nil && !raw {
		conn.Close()
		return nil, ErrV2Unsupported
	}
	req.Principal = c.Principal
	err = cdc.writeRequest(&wireRequest{
		Op: "subscribe", Format: cdc.eventFormat(format),
		BatchMax: opts.BatchMax, BatchWaitMS: opts.BatchWait.Milliseconds(),
		Request: req,
	})
	var ack wireResponse
	if err == nil {
		if c.Timeout > 0 {
			conn.SetReadDeadline(time.Now().Add(c.Timeout)) //nolint:errcheck
		}
		var f *Frame
		if f, err = cdc.readResponse(&ack); err == nil && f != nil {
			err = errors.New("gateway: bad subscribe ack frame")
		}
	}
	if err == nil && !ack.OK {
		err = errors.New(ack.Error)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck
	st := &Stream{conn: conn, cdc: cdc, done: make(chan struct{})}
	go st.readLoop(cdc.eventFormat(format), onFrame, onBatch)
	return st, nil
}

// readLoop is the stream's reader: batch frames and event messages go
// to the callback, control messages update the drop counter or end the
// stream.
func (s *Stream) readLoop(format string, onFrame func(*Frame), onBatch func(string, []ulm.Record)) {
	defer close(s.done)
	defer s.Close()
	fail := func(err error) {
		// A read error caused by our own Close is a clean local
		// shutdown, not a stream failure.
		if !s.closed.Load() {
			s.mu.Lock()
			s.err = err
			s.mu.Unlock()
		}
	}
	// Undecodable frames and payloads are counted, never fatal: the rest
	// of the message still delivers.
	skip := func(error) error { s.decodeErrs.Add(1); return nil }
	deliver := func(sensor string, recs []ulm.Record) error { onBatch(sensor, recs); return nil }
	var resp wireResponse
	var recs []ulm.Record
	for {
		resp = wireResponse{events: &s.in}
		f, err := s.cdc.readResponse(&resp)
		switch {
		case err != nil:
			if _, skip := err.(*badMessage); skip {
				s.decodeErrs.Add(1)
				continue
			}
			fail(err)
			return
		case f != nil && onFrame != nil:
			onFrame(f)
		case f != nil:
			if recs, err = f.Records(recs[:0]); err != nil {
				s.decodeErrs.Add(1)
				continue
			}
			onBatch(f.Sensor, recs)
		default:
			if resp.Drops > s.drops.Load() {
				s.drops.Store(resp.Drops)
			}
			if resp.Error != "" {
				fail(errors.New(resp.Error))
				return
			}
			s.in.runs(format, skip, deliver) //nolint:errcheck // neither callback fails
		}
	}
}
