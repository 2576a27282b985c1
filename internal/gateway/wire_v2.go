package gateway

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"net"
	"sync/atomic"
	"time"

	"jamm/internal/auth"
	"jamm/internal/histstore"
	"jamm/internal/telemetry"
	"jamm/internal/ulm"
)

// Wire protocol v2: binary framing behind an explicit version
// handshake. A client that wants v2 sends one JSON line —
// {"op":"hello","max_version":2} — as its first request; the server
// answers {"ok":true,"version":V} with the highest mutually supported
// version and, when V ≥ 2, both sides switch to the length-prefixed
// CRC-checked frames of frame.go for the rest of the connection.
// Anything else a client sends first is an ordinary v1 request, so
// JSON-per-line remains the zero-handshake compat path; a pre-v2
// server answers hello with an unknown-op error, which the client
// reads as version 1 and degrades transparently.
//
// The handshake is deliberately half-duplex: the client MUST NOT send
// past its hello until the response arrives, because the server's line
// scanner may otherwise have buffered bytes that the frame reader
// would never see. Our client obeys; a violator only desynchronizes
// its own connection, which the bounded bad-frame streak then closes.
//
// One connection, one protocol: the cold one-shot ops (ping, query,
// summary, list) dial per call and stay JSON — negotiation would cost
// a round trip on paths where JSON was never the bottleneck. Only the
// hot paths (publish, subscribe, history) negotiate.

// wireVersionMax is the highest protocol version this build speaks.
const wireVersionMax = 2

// wireHandshakeTimeout bounds the server's first read on a new
// connection — a peer that connects and sends nothing must not hold a
// server goroutine (and its connection slot) forever. A variable so
// tests can shrink it.
var wireHandshakeTimeout = 30 * time.Second

// ErrV2Unsupported reports a ProtoV2-pinned operation against a server
// that only speaks JSON-per-line.
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

// V2Format reports whether a payload format can ride v2 framing. V2
// batch frames always carry ULM-binary record bodies, so the format
// only matters as a compat signal: XML subscribers keep the JSON path,
// where the format-specific encode (and its drop accounting) lives.
func V2Format(format string) bool {
	return format == "" || format == FormatULM || format == FormatBinary
}

// frameReader reads whole v2 frames from a buffered stream, reusing
// one buffer: the returned slice is valid until the next call. Errors
// split into three classes the callers handle differently — errBadFrame
// (CRC failure on a plausible length: the frame's bytes were consumed,
// the stream is still in sync, skipping is safe), errFrameTooBig (the
// length word itself is implausible: no resync point exists), and
// transport errors (EOF, timeouts).
type frameReader struct {
	br  *bufio.Reader
	buf []byte
	// hdr and frame live here, not in next's and the read loops' stack
	// frames, because both escape (through io.ReadFull and the frame
	// callbacks) and would otherwise be allocated per frame. sensors
	// interns the sensor names seen on this connection, so a frame
	// allocates its Sensor string only the first time the name appears.
	hdr     [wireFrameHdr]byte
	frame   Frame
	sensors map[string]string
}

// maxInternedSensors bounds a reader's sensor-name table; a connection
// naming more sensors than this starts the table over.
const maxInternedSensors = 4096

// newFrameReader wraps r in a frame reader with a 64 KiB read buffer
// (bufio.NewReaderSize reuses r when it already is one that large).
func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, 64*1024)}
}

func (fr *frameReader) next() ([]byte, error) {
	hdr := &fr.hdr
	if _, err := io.ReadFull(fr.br, hdr[:]); err != nil {
		return nil, err
	}
	plen := binary.LittleEndian.Uint32(hdr[:4])
	if plen < framePrelude || plen > maxWireFrameBytes {
		return nil, errFrameTooBig
	}
	need := wireFrameHdr + int(plen)
	if cap(fr.buf) < need {
		fr.buf = make([]byte, need)
	}
	buf := fr.buf[:need]
	copy(buf, hdr[:])
	if _, err := io.ReadFull(fr.br, buf[wireFrameHdr:]); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(buf[wireFrameHdr:]) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, errBadFrame
	}
	return buf, nil
}

// batchFrame parses buf — the batch frame next just returned — into
// the reader's one Frame, which like buf is valid until the next call.
func (fr *frameReader) batchFrame(buf []byte) (*Frame, error) {
	sensor, count, recOff, err := splitBatchFrame(buf)
	if err != nil {
		return nil, err
	}
	name, ok := fr.sensors[string(sensor)]
	if !ok {
		if fr.sensors == nil || len(fr.sensors) >= maxInternedSensors {
			fr.sensors = make(map[string]string)
		}
		name = string(sensor)
		fr.sensors[name] = name
	}
	fr.frame = Frame{Sensor: name, Count: count, buf: buf, recOff: recOff}
	return &fr.frame, nil
}

// writeFrameResp marshals resp as one JSON control frame (reusing
// *scratch) and writes it, reporting whether the write succeeded.
func writeFrameResp(conn net.Conn, scratch *[]byte, resp wireResponse) bool {
	data, err := json.Marshal(resp)
	if err != nil {
		return false
	}
	*scratch = appendJSONFrame((*scratch)[:0], data)
	_, werr := conn.Write(*scratch)
	return werr == nil
}

// serveConnV2 runs a connection after a successful v2 handshake: batch
// frames are ingested through the gateway's frame plane (zero-copy
// when nothing local needs the records), JSON control frames carry the
// request ops. Malformed frames are counted and survived exactly like
// JSON garbage — skip on a verifiable bad frame, bounded-streak
// disconnect, immediate disconnect only when the stream cannot be
// resynchronized — and never kill the server.
func (t *TCPServer) serveConnV2(conn net.Conn) {
	fr := newFrameReader(conn)
	var scratch []byte
	var loggedBadFrame, loggedBadRecord bool
	badStreak := 0
	noteBadFrame := func(err error) bool {
		t.badFrames.Add(1)
		if !loggedBadFrame {
			loggedBadFrame = true
			log.Printf("gateway: wire: bad v2 frame from %s: %v (counting further ones silently)", conn.RemoteAddr(), err)
		}
		badStreak++
		if badStreak >= maxConsecutiveBadLines {
			log.Printf("gateway: wire: closing %s after %d consecutive bad frames", conn.RemoteAddr(), badStreak)
			return false
		}
		return true
	}
	for {
		buf, err := fr.next()
		if err != nil {
			switch {
			case errors.Is(err, errBadFrame):
				if !noteBadFrame(err) {
					return
				}
				continue
			case errors.Is(err, errFrameTooBig):
				t.badFrames.Add(1)
				log.Printf("gateway: wire: closing %s: implausible v2 frame length (desynchronized or hostile stream)", conn.RemoteAddr())
				return
			default:
				return // clean EOF or ordinary transport teardown
			}
		}
		switch buf[wireFrameHdr] {
		case frameOpBatch:
			f, perr := fr.batchFrame(buf)
			if perr == nil {
				perr = t.gw.PublishFrame(f)
			}
			if perr != nil {
				// The CRC vouched for transport integrity but the payload
				// is nonsense (or its record bodies are): same treatment
				// as a bad line, fire-and-forget like all publishes.
				if !noteBadFrame(perr) {
					return
				}
				continue
			}
			badStreak = 0
		case frameOpJSON:
			var req wireRequest
			if jerr := json.Unmarshal(buf[wireFrameHdr+framePrelude:], &req); jerr != nil {
				if !noteBadFrame(jerr) {
					return
				}
				continue
			}
			badStreak = 0
			req.Principal = peerPrincipal(conn, req.Principal)
			switch req.Op {
			case "subscribe":
				t.serveSubscribeV2(conn, fr, req)
				return // the subscription owns the connection
			case "history":
				if !t.serveHistoryV2(conn, &scratch, req) {
					return
				}
			case "publish":
				// JSON-payload publish inside a v2 connection stays valid
				// (a client may mix formats); the binary hot path is the
				// batch frame above.
				t.handlePublish(conn, req, &loggedBadRecord)
			default:
				if !writeFrameResp(conn, &scratch, t.handle(req)) {
					return
				}
			}
		default:
			if !noteBadFrame(fmt.Errorf("gateway: unknown frame op %d", buf[wireFrameHdr])) {
				return
			}
		}
	}
}

// serveSubscribeV2 streams a subscription as binary frames. A
// pass-through request (no filters) rides the gateway's frame plane:
// raw frames relayed from upstream are forwarded byte-identical — the
// zero-copy relay position — while locally published records arrive
// cooked and are encoded here, coalesced up to the request's batch_max.
// Filtered requests fall back to the record plane and are always
// encoded here. Drops are reported on change as JSON control frames
// rather than piggybacked per frame, so relayed frames need no rewrite.
func (t *TCPServer) serveSubscribeV2(conn net.Conn, fr *frameReader, req wireRequest) {
	var scratch []byte
	var batchMax atomic.Int64
	batchMax.Store(int64(clampBatchMax(req.BatchMax)))
	batchWait := time.Duration(req.BatchWaitMS) * time.Millisecond
	if batchWait <= 0 {
		batchWait = defaultBatchWait
	}
	if batchWait > maxBatchWait {
		batchWait = maxBatchWait
	}
	onDrop := func(n int) { t.subDrops.Add(uint64(n)) }
	var (
		sub     *Subscription
		frameCh <-chan frameItem
		cookCh  <-chan TopicBatch
		err     error
	)
	if PassThrough(req.Request) {
		sub, frameCh, err = t.gw.SubscribeFrames(req.Request, wireSubChanDepth, onDrop)
	} else {
		sub, cookCh, err = t.gw.SubscribeBatchChan(req.Request, wireSubChanDepth, onDrop)
	}
	if err != nil {
		writeFrameResp(conn, &scratch, wireResponse{Error: err.Error()})
		return
	}
	defer sub.Cancel()
	ss := &subConn{sub: sub}
	if frameCh != nil {
		ss.chLen = func() int { return len(frameCh) }
	} else {
		ss.chLen = func() int { return len(cookCh) }
	}
	t.mu.Lock()
	t.subConns[ss] = struct{}{}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.subConns, ss)
		t.mu.Unlock()
	}()
	if !writeFrameResp(conn, &scratch, wireResponse{OK: true}) {
		return
	}
	// Read the subscriber's side for control frames (batch_max retune)
	// until it goes away, which unblocks the writer loop. Bad control
	// frames are counted and skipped under the same bounded streak as
	// serveConnV2 — a subscriber streaming garbage loses the connection
	// (and its subscription resources) instead of holding them forever.
	done := make(chan struct{})
	go func() {
		defer close(done)
		badStreak := 0
		noteBad := func() bool {
			t.badFrames.Add(1)
			badStreak++
			if badStreak >= maxConsecutiveBadLines {
				log.Printf("gateway: wire: closing subscriber %s after %d consecutive bad control frames", conn.RemoteAddr(), badStreak)
				return false
			}
			return true
		}
		for {
			buf, rerr := fr.next()
			if rerr != nil {
				if errors.Is(rerr, errBadFrame) {
					if !noteBad() {
						return
					}
					continue
				}
				return
			}
			if buf[wireFrameHdr] != frameOpJSON {
				if !noteBad() {
					return
				}
				continue
			}
			var creq wireRequest
			if json.Unmarshal(buf[wireFrameHdr+framePrelude:], &creq) != nil {
				if !noteBad() {
					return
				}
				continue
			}
			badStreak = 0
			if creq.Op == "batch_max" {
				batchMax.Store(int64(clampBatchMax(creq.BatchMax)))
			}
		}
	}()
	var (
		out       []byte
		cur       []ulm.Record
		curSensor string
		lastDrops uint64
		timer     *time.Timer
		timerC    <-chan time.Time
	)
	stopTimer := func() {
		if timer != nil {
			timer.Stop()
			timer, timerC = nil, nil
		}
	}
	defer stopTimer()
	emitDrops := func() bool {
		if d := sub.WireDrops(); d != lastDrops {
			lastDrops = d
			return writeFrameResp(conn, &scratch, wireResponse{OK: true, Drops: d})
		}
		return true
	}
	flush := func() bool {
		stopTimer()
		if len(cur) == 0 {
			return true
		}
		out = appendBatchFrame(out[:0], batchHops(cur), curSensor, cur)
		// Telemetry wire stage: the trace attribute (if any) must be
		// read before cur is reset; the write itself is what the stage
		// histogram times.
		tr := t.gw.tracer.Load()
		var tid uint64
		var thop int
		traced := false
		if tr != nil {
			tid, thop, traced = telemetry.RecordTrace(cur)
		}
		cur = cur[:0]
		ss.pending.Store(0)
		var w0 time.Time
		if tr != nil {
			w0 = time.Now()
		}
		if _, werr := conn.Write(out); werr != nil {
			return false
		}
		if tr != nil {
			d := time.Since(w0)
			tr.Observe("wire", d)
			if traced {
				tr.Event(tid, thop, curSensor, "wire", d)
			}
		}
		return emitDrops()
	}
	appendRecs := func(sensor string, recs []ulm.Record) bool {
		if sensor != curSensor && len(cur) > 0 {
			if !flush() {
				return false
			}
		}
		curSensor = sensor
		bm := int(batchMax.Load())
		for i := range recs {
			cur = append(cur, recs[i])
			ss.pending.Store(int64(len(cur)))
			if len(cur) >= bm {
				if !flush() {
					return false
				}
			}
		}
		return true
	}
	for {
		if frameCh != nil {
			select {
			case it := <-frameCh:
				if it.f != nil {
					// Raw relayed frame: flush the cooked partial first to
					// preserve delivery order, then forward the bytes
					// untouched — the zero-copy hot path. batch_max never
					// re-batches these; re-framing is what v2 avoids.
					if !flush() {
						return
					}
					tr := t.gw.tracer.Load()
					var w0 time.Time
					if tr != nil {
						w0 = time.Now()
					}
					if _, werr := conn.Write(it.f.Bytes()); werr != nil {
						return
					}
					if tr != nil {
						d := time.Since(w0)
						tr.Observe("wire", d)
						if tid, thop, ok := it.f.Trace(); ok {
							tr.Event(tid, thop, it.f.Sensor, "wire", d)
						}
					}
					if !emitDrops() {
						return
					}
					continue
				}
				if !appendRecs(it.tb.Sensor, it.tb.Recs) {
					return
				}
			case <-timerC:
				timer, timerC = nil, nil
				if !flush() {
					return
				}
				continue
			case <-done:
				return
			}
		} else {
			select {
			case tb := <-cookCh:
				if !appendRecs(tb.Sensor, tb.Recs) {
					return
				}
			case <-timerC:
				timer, timerC = nil, nil
				if !flush() {
					return
				}
				continue
			case <-done:
				return
			}
		}
		if len(cur) > 0 && timerC == nil {
			timer = time.NewTimer(batchWait)
			timerC = timer.C
		}
	}
}

// serveHistoryV2 streams an archive query as binary frames. Stored
// archive frames whose segment falls entirely inside the query (and
// which need no per-record filtering) are spliced onto the wire
// without decoding a single record body — history replay at disk read
// speed; everything else decodes, filters, and re-encodes. Terminated
// by a JSON eof frame carrying the record count. Reports whether the
// connection remains usable.
func (t *TCPServer) serveHistoryV2(conn net.Conn, scratch *[]byte, req wireRequest) bool {
	refuse := func(msg string) bool {
		return writeFrameResp(conn, scratch, wireResponse{Error: msg})
	}
	hist := t.hist.Load()
	if hist == nil {
		return refuse("gateway: history not enabled")
	}
	if err := t.gw.authorize(req.Principal, req.Sensor, auth.ActionQuery); err != nil {
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
	var out []byte
	err = hist.ReplayFrames(q, batchMax,
		func(sensor string, count int, recBytes []byte) error {
			if len(recBytes)+len(sensor)+32 > maxWireFrameBytes {
				// A disk frame bigger than the wire allows (the archive's
				// frame cap is larger): decode and re-frame in chunks —
				// rare, but never an invalid frame on the wire.
				return writeChunkedBatch(conn, &out, sensor, count, recBytes, batchMax, &n)
			}
			// The archive frame body is already v2's batch payload shape:
			// splice the stored record bytes straight behind a fresh
			// prelude and checksum.
			out = appendRawBatchFrame(out[:0], 0, sensor, count, recBytes)
			n += count
			_, werr := conn.Write(out)
			return werr
		},
		func(sensor string, recs []ulm.Record) error {
			out = appendBatchFrame(out[:0], 0, sensor, recs)
			n += len(recs)
			_, werr := conn.Write(out)
			return werr
		})
	if err != nil {
		return refuse("gateway: history: " + err.Error())
	}
	return writeFrameResp(conn, scratch, wireResponse{OK: true, Eof: true, N: n})
}

// writeChunkedBatch decodes an oversized stored frame and re-frames
// its records in batchMax-sized wire frames, one chunk in memory at a
// time.
func writeChunkedBatch(conn net.Conn, out *[]byte, sensor string, count int, recBytes []byte, batchMax int, n *int) error {
	var recs []ulm.Record
	for count > 0 {
		chunk := min(batchMax, count)
		var err error
		if recs, recBytes, err = ulm.DecodeBinaryBatch(recs[:0], recBytes, chunk, 0); err != nil {
			return err
		}
		count -= chunk
		*out = appendBatchFrame((*out)[:0], batchHops(recs), sensor, recs)
		*n += chunk
		if _, werr := conn.Write(*out); werr != nil {
			return werr
		}
	}
	return nil
}

// dialNegotiate dials and, when the client's policy and the payload
// format allow v2, performs the version handshake. It returns the
// connection, the buffered reader that MUST be used for all further
// reads (it may hold bytes past the handshake response), and the
// negotiated version (1 = JSON-per-line). The reader is only big
// enough for the handshake line — publishers never read again, JSON
// streams buffer in their decoder — so the 64 KiB frame buffer exists
// only on connections that negotiated v2 and stream frames back
// (newFrameReader wraps it).
func (c *Client) dialNegotiate(format string) (net.Conn, *bufio.Reader, int, error) {
	conn, err := c.dial()
	if err != nil {
		return nil, nil, 0, err
	}
	br := bufio.NewReaderSize(conn, 512)
	if c.Protocol == ProtoJSON || !V2Format(format) {
		if c.Protocol == ProtoV2 {
			conn.Close()
			return nil, nil, 0, fmt.Errorf("gateway: format %q cannot ride wire v2", format)
		}
		return conn, br, 1, nil
	}
	if c.Timeout > 0 {
		conn.SetDeadline(time.Now().Add(c.Timeout)) //nolint:errcheck
	}
	if err := json.NewEncoder(conn).Encode(wireRequest{Op: "hello", MaxVersion: wireVersionMax}); err != nil {
		conn.Close()
		return nil, nil, 0, err
	}
	line, err := br.ReadBytes('\n')
	if err != nil {
		conn.Close()
		return nil, nil, 0, fmt.Errorf("gateway: hello: %w", err)
	}
	ver := 1
	var resp wireResponse
	// A pre-v2 server answers hello with an unknown-op error and keeps
	// the connection usable: that IS the fallback signal — anything but
	// an explicit ok/version ≥ 2 means JSON-per-line from here on.
	if json.Unmarshal(line, &resp) == nil && resp.OK && resp.Version > 1 {
		ver = resp.Version
	}
	if ver < 2 && c.Protocol == ProtoV2 {
		conn.Close()
		return nil, nil, 0, ErrV2Unsupported
	}
	conn.SetDeadline(time.Time{}) //nolint:errcheck
	return conn, br, ver, nil
}

// openSubscribeV2 sends a subscribe request as a JSON control frame
// and reads the ack, returning the stream and its frame reader.
func (c *Client) openSubscribeV2(conn net.Conn, br *bufio.Reader, wr wireRequest) (*Stream, *frameReader, error) {
	data, err := json.Marshal(wr)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	if _, err := conn.Write(appendJSONFrame(nil, data)); err != nil {
		conn.Close()
		return nil, nil, err
	}
	fr := newFrameReader(br)
	if c.Timeout > 0 {
		conn.SetReadDeadline(time.Now().Add(c.Timeout)) //nolint:errcheck
	}
	first, err := fr.next()
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	var ack wireResponse
	if first[wireFrameHdr] != frameOpJSON || json.Unmarshal(first[wireFrameHdr+framePrelude:], &ack) != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("gateway: bad subscribe ack frame")
	}
	if !ack.OK {
		conn.Close()
		return nil, nil, fmt.Errorf("%s", ack.Error)
	}
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck
	st := &Stream{conn: conn, done: make(chan struct{}), version: wireVersionMax}
	st.ctl = func(req wireRequest) error {
		data, err := json.Marshal(req)
		if err != nil {
			return err
		}
		_, err = conn.Write(appendJSONFrame(nil, data))
		return err
	}
	return st, fr, nil
}

// subscribeBatchStreamV2 adapts the frame stream to the batch-callback
// contract: each received batch frame decodes (once, client-side) into
// its records. Undecodable frames are counted, never fatal.
func (c *Client) subscribeBatchStreamV2(conn net.Conn, br *bufio.Reader, req Request, opts StreamOptions, fn func(sensor string, recs []ulm.Record)) (*Stream, error) {
	req.Principal = c.Principal
	wr := wireRequest{
		Op:       "subscribe",
		BatchMax: opts.BatchMax, BatchWaitMS: opts.BatchWait.Milliseconds(),
		Request: req,
	}
	st, fr, err := c.openSubscribeV2(conn, br, wr)
	if err != nil {
		return nil, err
	}
	var recs []ulm.Record
	go st.readFrameLoop(fr, func(f *Frame) {
		var derr error
		recs, derr = f.Records(recs[:0])
		if derr != nil {
			st.decodeErrs.Add(1)
			return
		}
		fn(f.Sensor, recs)
	})
	return st, nil
}

// SubscribeFrameStream opens a v2-only subscription delivering whole
// binary frames without decoding their record bodies — the relay form:
// a bridge in pure pass-through position forwards each frame's bytes
// into the downstream gateway untouched. fn runs on the stream's
// reader goroutine; the frame is borrowed (its buffer is reused for
// the next frame), so callees that retain it must Clone. Returns
// ErrV2Unsupported when the server (or the client's Protocol pin)
// cannot speak v2 — the caller's signal to fall back to a decoded
// stream.
func (c *Client) SubscribeFrameStream(req Request, opts StreamOptions, fn func(f *Frame)) (*Stream, error) {
	if !PassThrough(req) {
		// Mirrors Gateway.SubscribeFrames: filtering forces a record
		// decode somewhere, which is exactly what this API promises not
		// to do.
		return nil, fmt.Errorf("gateway: frame streams cannot filter (mode %v, %d events)", req.Mode, len(req.Events))
	}
	conn, br, ver, err := c.dialNegotiate("")
	if err != nil {
		return nil, err
	}
	if ver < 2 {
		conn.Close()
		return nil, ErrV2Unsupported
	}
	req.Principal = c.Principal
	wr := wireRequest{
		Op:       "subscribe",
		BatchMax: opts.BatchMax, BatchWaitMS: opts.BatchWait.Milliseconds(),
		Request: req,
	}
	st, fr, err := c.openSubscribeV2(conn, br, wr)
	if err != nil {
		return nil, err
	}
	go st.readFrameLoop(fr, fn)
	return st, nil
}

// readFrameLoop is the v2 stream reader: batch frames go to fn, JSON
// control frames update the drop counter or terminate the stream.
func (s *Stream) readFrameLoop(fr *frameReader, fn func(f *Frame)) {
	defer close(s.done)
	defer s.Close()
	for {
		buf, err := fr.next()
		if err != nil {
			if errors.Is(err, errBadFrame) {
				s.decodeErrs.Add(1)
				continue
			}
			if !s.closed.Load() {
				s.mu.Lock()
				s.err = err
				s.mu.Unlock()
			}
			return
		}
		switch buf[wireFrameHdr] {
		case frameOpBatch:
			f, perr := fr.batchFrame(buf)
			if perr != nil {
				s.decodeErrs.Add(1)
				continue
			}
			fn(f)
		case frameOpJSON:
			var resp wireResponse
			if json.Unmarshal(buf[wireFrameHdr+framePrelude:], &resp) != nil {
				s.decodeErrs.Add(1)
				continue
			}
			if resp.Drops > s.drops.Load() {
				s.drops.Store(resp.Drops)
			}
			if resp.Error != "" {
				if !s.closed.Load() {
					s.mu.Lock()
					s.err = errors.New(resp.Error)
					s.mu.Unlock()
				}
				return
			}
		default:
			s.decodeErrs.Add(1)
		}
	}
}

// historyStreamV2 runs a history query over v2 framing: stored frames
// arrive as batch frames (decoded client-side), terminated by a JSON
// eof frame.
func (c *Client) historyStreamV2(conn net.Conn, br *bufio.Reader, hr HistoryRequest, fn func(sensor string, recs []ulm.Record) error) (int, error) {
	data, err := json.Marshal(hr.wire(c.Principal))
	if err != nil {
		return 0, err
	}
	if _, err := conn.Write(appendJSONFrame(nil, data)); err != nil {
		return 0, err
	}
	fr := newFrameReader(br)
	var recs []ulm.Record
	n := 0
	for {
		if c.Timeout > 0 {
			conn.SetReadDeadline(time.Now().Add(c.Timeout)) //nolint:errcheck
		}
		buf, err := fr.next()
		if err != nil {
			return n, fmt.Errorf("gateway: history stream: %w", err)
		}
		switch buf[wireFrameHdr] {
		case frameOpBatch:
			f, perr := fr.batchFrame(buf)
			if perr != nil {
				return n, fmt.Errorf("gateway: history stream: %w", perr)
			}
			if recs, perr = f.Records(recs[:0]); perr != nil {
				return n, fmt.Errorf("gateway: history stream: %w", perr)
			}
			n += len(recs)
			if err := fn(f.Sensor, recs); err != nil {
				return n, err
			}
		case frameOpJSON:
			var resp wireResponse
			if jerr := json.Unmarshal(buf[wireFrameHdr+framePrelude:], &resp); jerr != nil {
				return n, fmt.Errorf("gateway: history stream: %w", jerr)
			}
			if resp.Error != "" {
				return n, fmt.Errorf("%s", resp.Error)
			}
			if resp.Eof {
				return resp.N, nil
			}
		default:
			return n, fmt.Errorf("gateway: history stream: unknown frame op %d", buf[wireFrameHdr])
		}
	}
}

// ---- Publisher v2 ----
//
// A v2 publisher encodes each record into ULM binary exactly once, at
// Publish time, appending to the current per-sensor run; runs seal
// into finished frames in the same buffer and one Flush writes them
// all with one syscall. No JSON, no base64, no intermediate strings.

// armTimerLocked starts the batch-wait flush timer if configured.
func (p *Publisher) armTimerLocked() {
	if p.timer == nil && p.maxWait > 0 {
		p.timer = time.AfterFunc(p.maxWait, func() { p.Flush() }) //nolint:errcheck
	}
}

// bufferV2Locked appends one record to the current run, sealing the
// previous run on a sensor change.
func (p *Publisher) bufferV2Locked(sensor string, rec *ulm.Record) {
	if p.runCount > 0 && sensor != p.runSensor {
		p.sealRunLocked()
	}
	p.runSensor = sensor
	pre := len(p.runBuf)
	p.runBuf = ulm.AppendBinary(p.runBuf, rec)
	p.bufBytes += len(p.runBuf) - pre
	if h := recHops(*rec); h > p.runHops {
		p.runHops = h
	}
	p.runCount++
	p.bufRecs++
}

// sealRunLocked turns the open run into a finished frame in wbuf.
func (p *Publisher) sealRunLocked() {
	start := len(p.wbuf)
	p.wbuf = appendRawBatchFrame(p.wbuf, p.runHops, p.runSensor, p.runCount, p.runBuf)
	if p.replica {
		markFrameReplica(p.wbuf, start)
	}
	p.runBuf = p.runBuf[:0]
	p.runCount = 0
	p.runHops = 0
}

func (p *Publisher) publishV2(sensor string, rec *ulm.Record) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	if p.closed {
		return fmt.Errorf("gateway: publisher closed")
	}
	p.bufferV2Locked(sensor, rec)
	if p.bufRecs >= p.maxRecs || p.bufBytes >= maxBatchBytes {
		return p.flushV2Locked()
	}
	p.armTimerLocked()
	return nil
}

func (p *Publisher) publishBatchV2(sensor string, recs []ulm.Record) (written int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return 0, p.err
	}
	if p.closed {
		return 0, fmt.Errorf("gateway: publisher closed")
	}
	for i := range recs {
		p.bufferV2Locked(sensor, &recs[i])
		if p.bufRecs >= p.maxRecs || p.bufBytes >= maxBatchBytes {
			if ferr := p.flushV2Locked(); ferr != nil {
				return written, ferr
			}
			written = i + 1
		}
	}
	if p.bufRecs > 0 {
		p.armTimerLocked()
	}
	return len(recs), nil
}

func (p *Publisher) flushV2Locked() error {
	if p.timer != nil {
		p.timer.Stop()
		p.timer = nil
	}
	if p.err != nil {
		return p.err
	}
	if p.runCount > 0 {
		p.sealRunLocked()
	}
	if len(p.wbuf) == 0 {
		return nil
	}
	_, err := p.conn.Write(p.wbuf)
	if err != nil {
		p.err = err
		p.dropped += uint64(p.bufRecs)
	}
	p.wbuf = p.wbuf[:0]
	p.bufRecs = 0
	p.bufBytes = 0
	return err
}

// MarkReplica switches the publisher into replica mode: every record
// it sends from now on is flagged as a replicated copy — ingested by
// the receiving gateway without firing registration hooks and never
// re-forwarded to its replica set. Replication links (bridge
// package) call this once, right after dialing.
func (p *Publisher) MarkReplica() {
	p.mu.Lock()
	p.replica = true
	p.mu.Unlock()
}

// PublishFrame forwards a pre-encoded record-batch frame. On a v2
// connection the frame's bytes join the write buffer untouched (the
// open run is sealed first to preserve order) — the zero-copy relay
// path a router or replication link rides so a frame sealed once at
// the edge never pays the codec again; a replica-mode publisher
// flags the copy in place. On a JSON connection the frame decodes and
// republishes as an ordinary batch. written counts like
// PublishBatch's: records carried by successful writes, with buffered
// records counting as accepted.
func (p *Publisher) PublishFrame(f *Frame) (written int, err error) {
	if p.ver < 2 {
		recs, derr := f.Records(nil)
		if derr != nil {
			return 0, derr
		}
		return p.PublishBatch(f.Sensor, recs)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return 0, p.err
	}
	if p.closed {
		return 0, fmt.Errorf("gateway: publisher closed")
	}
	if p.runCount > 0 {
		p.sealRunLocked()
	}
	start := len(p.wbuf)
	p.wbuf = append(p.wbuf, f.Bytes()...)
	if p.replica && !f.Replica() {
		markFrameReplica(p.wbuf, start)
	}
	p.bufRecs += f.Count
	p.bufBytes += len(f.Bytes())
	if p.bufRecs >= p.maxRecs || p.bufBytes >= maxBatchBytes {
		if ferr := p.flushV2Locked(); ferr != nil {
			return 0, ferr
		}
		return f.Count, nil
	}
	p.armTimerLocked()
	return f.Count, nil
}

// Version reports the wire protocol version the publisher negotiated
// (1 = JSON-per-line).
func (p *Publisher) Version() int {
	if p.ver >= 2 {
		return p.ver
	}
	return 1
}

// Version reports the wire protocol version the stream negotiated
// (1 = JSON-per-line).
func (s *Stream) Version() int {
	if s.version >= 2 {
		return s.version
	}
	return 1
}
