package gateway

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"time"

	"jamm/internal/telemetry"
	"jamm/internal/ulm"
)

// V2Format reports whether a payload format can ride v2 framing. V2
// batch frames always carry ULM-binary record bodies, so the format
// only matters as a compat signal: XML subscribers keep the JSON path,
// where the format-specific encode lives.
func V2Format(format string) bool {
	return format == "" || format == FormatULM || format == FormatBinary
}

// frameReader reads whole v2 frames from a buffered stream, each into
// a pooled, reference-counted buffer (see frameBuf) sized for it: the
// returned slice — and the Frame batchFrame makes of it — is the
// reader's until the next call, which releases it, so a connection
// waiting for its next frame pins no frame memory. Errors split into
// three classes the callers handle differently — errBadFrame
// (CRC failure on a plausible length: the frame's bytes were consumed,
// the stream is still in sync, skipping is safe), errFrameTooBig (the
// length word itself is implausible: no resync point exists), and
// transport errors (EOF, timeouts).
type frameReader struct {
	br *bufio.Reader
	// hdr and frame live here, not in next's and the read loops' stack
	// frames, because both escape (through io.ReadFull and the frame
	// callbacks) and would otherwise be allocated per frame. frame holds
	// the reader's reference to the current message's buffer. sensors
	// interns the sensor names seen on this connection, so a frame
	// allocates its Sensor string only the first time the name appears.
	hdr     [wireFrameHdr]byte
	frame   Frame
	sensors sensorNames
}

// sensorNames interns the sensor names a connection's reader has seen:
// a message allocates its sensor string only the first time the name
// appears.
type sensorNames map[string]string

// maxInternedSensors bounds a reader's sensor-name table; a connection
// naming more sensors than this starts the table over.
const maxInternedSensors = 4096

func (t *sensorNames) intern(name []byte) string {
	s, ok := (*t)[string(name)]
	if !ok {
		if *t == nil || len(*t) >= maxInternedSensors {
			*t = make(sensorNames)
		}
		s = string(name)
		(*t)[s] = s
	}
	return s
}

// newFrameReader wraps r in a frame reader with a 64 KiB read buffer
// (bufio.NewReaderSize reuses r when it already is one that large).
func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, 64*1024)}
}

func (fr *frameReader) next() ([]byte, error) {
	fr.frame.Release()
	hdr := &fr.hdr
	if _, err := io.ReadFull(fr.br, hdr[:]); err != nil {
		return nil, err
	}
	plen := binary.LittleEndian.Uint32(hdr[:4])
	if plen < framePrelude || plen > maxWireFrameBytes {
		return nil, errFrameTooBig
	}
	need := wireFrameHdr + int(plen)
	mem := getFrameBuf(need)
	buf := mem.data[:need]
	fr.frame = Frame{buf: buf, mem: mem}
	copy(buf, hdr[:])
	_, err := io.ReadFull(fr.br, buf[wireFrameHdr:])
	if err == nil && crc32.ChecksumIEEE(buf[wireFrameHdr:]) != binary.LittleEndian.Uint32(hdr[4:]) {
		err = errBadFrame
	}
	if err != nil {
		fr.frame.Release()
		return nil, err
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
	fr.frame.Sensor, fr.frame.Count, fr.frame.recOff = fr.sensors.intern(sensor), count, recOff
	return &fr.frame, nil
}

// frameCodec is the binary framing: record batches as batch frames,
// everything else as JSON objects in control frames.
type frameCodec struct {
	conn net.Conn
	r    io.Reader
	// fr is built on the first read: publishers never read, and the
	// 64 KiB frame buffer should exist only where frames stream back.
	fr *frameReader
	// in reads the control frames: a server's requests, and a client's
	// answers when their reader brings no events of its own.
	in inboundEvents
	// out is the write side's frame buffer.
	out []byte
}

// newFrameCodec frames conn as binary frames, reading from r (conn
// itself, or a buffered reader already holding bytes of it).
func newFrameCodec(conn net.Conn, r io.Reader) *frameCodec {
	return &frameCodec{conn: conn, r: r}
}

func (c *frameCodec) version() int { return wireVersionMax }

// next reads the next frame: a batch frame comes back as f, a control
// frame as its JSON object.
func (c *frameCodec) next() (ctl []byte, f *Frame, err error) {
	if c.fr == nil {
		c.fr = newFrameReader(c.r)
	}
	buf, err := c.fr.next()
	if errors.Is(err, errBadFrame) {
		return nil, nil, &badMessage{err: err}
	}
	if err != nil {
		return nil, nil, err
	}
	switch buf[wireFrameHdr] {
	case frameOpBatch:
		f, err := c.fr.batchFrame(buf)
		if err != nil {
			return nil, nil, &badMessage{err: err}
		}
		return nil, f, nil
	case frameOpJSON:
		return buf[wireFrameHdr+framePrelude:], nil, nil
	}
	return nil, nil, &badMessage{err: fmt.Errorf("gateway: unknown frame op %d", buf[wireFrameHdr])}
}

func (c *frameCodec) readRequest(req *wireRequest) (*Frame, error) {
	ctl, f, err := c.next()
	if f != nil || err != nil {
		return f, err
	}
	if err := c.in.readRequest(ctl, req); err != nil {
		return nil, &badMessage{err: err}
	}
	return nil, nil
}

func (c *frameCodec) readResponse(resp *wireResponse) (*Frame, error) {
	ctl, f, err := c.next()
	if f != nil || err != nil {
		return f, err
	}
	if resp.events == nil {
		resp.events = &c.in
	}
	if err := resp.events.readResponse(ctl, resp); err != nil {
		return nil, &badMessage{err: err}
	}
	return nil, nil
}

func (c *frameCodec) writeRequest(req *wireRequest) error {
	out, _ := beginFrame(c.out[:0], frameOpJSON, 0)
	out, err := marshalRequest(out, req)
	if c.out = out; err != nil {
		return err
	}
	return c.send()
}

func (c *frameCodec) writeResponse(resp *wireResponse) error {
	out, _ := beginFrame(c.out[:0], frameOpJSON, 0)
	c.out = marshalResponse(out, resp)
	return c.send()
}

// send finishes the control frame begun in out and writes it.
func (c *frameCodec) send() error {
	c.out = finishFrame(c.out, 0)
	_, err := c.conn.Write(c.out)
	return err
}

// Batch frames carry ULM-binary records whatever format was asked for.
func (c *frameCodec) checkFormat(string) error { return nil }

func (c *frameCodec) eventFormat(string) string { return "" }

func (c *frameCodec) writeBatch(_, sensor string, recs []ulm.Record) (int, error) {
	c.out = appendBatchFrame(c.out[:0], 0, sensor, recs)
	_, err := c.conn.Write(c.out)
	return len(recs), err
}

func (c *frameCodec) writeStored(sensor string, count int, recBytes []byte, batchMax int) (int, error) {
	if len(recBytes)+len(sensor)+32 > maxWireFrameBytes {
		// A disk frame bigger than the wire allows (the archive's frame
		// cap is larger): decode and re-frame in chunks — rare, but never
		// an invalid frame on the wire.
		n := 0
		err := writeChunkedBatch(c.conn, &c.out, sensor, count, recBytes, batchMax, &n)
		return n, err
	}
	// The archive frame body is already the batch payload shape: splice
	// the stored record bytes straight behind a fresh prelude and
	// checksum.
	c.out = appendRawBatchFrame(c.out[:0], 0, sensor, count, recBytes)
	_, err := c.conn.Write(c.out)
	return count, err
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

// frameEvents writes a subscription's events as batch frames, one per
// run of one sensor's records. Relayed frames pass through as the bytes
// they arrived in; locally published records arrive cooked and are
// encoded here, once per connection. Nothing goes out as it is added:
// sealed and relayed frames collect, in order, into a burst that commit
// puts on the socket with one gathered write.
type frameEvents struct {
	c         *frameCodec
	sub       *Subscription
	cur       []ulm.Record
	sensor    string
	lastDrops uint64
	// bufs lists the burst's frames for the gathered write, which
	// consumes wv, its copy of the slice header. Cooked frames lie in
	// out, relayed ones in the buffers held holds; flat is where a burst
	// is joined for a connection that cannot gather.
	bufs, wv  net.Buffers
	out, flat []byte
	held      []*Frame
	traced    []wireTrace
}

// wireTrace is what the "wire" trace event of a sampled frame needs.
type wireTrace struct {
	sensor string
	tid    uint64
	hop    int
}

func (c *frameCodec) events(_ string, sub *Subscription) eventWriter {
	return &frameEvents{c: c, sub: sub}
}

func (w *frameEvents) add(sensor string, recs []ulm.Record, bm int) {
	if sensor != w.sensor {
		w.seal()
	}
	w.sensor = sensor
	for i := range recs {
		w.cur = append(w.cur, recs[i])
		if len(w.cur) >= bm {
			w.seal()
		}
	}
}

// seal finishes the open frame into the burst. Should out have to grow
// for it, the frames sealed before stay where bufs found them.
func (w *frameEvents) seal() {
	if len(w.cur) == 0 {
		return
	}
	start := len(w.out)
	w.out = appendBatchFrame(w.out, batchHops(w.cur), w.sensor, w.cur)
	w.bufs = append(w.bufs, w.out[start:])
	// The trace attribute (if any) must be read before cur is reset.
	if w.sub.g.tracer.Load() != nil {
		if tid, hop, ok := telemetry.RecordTrace(w.cur); ok {
			w.traced = append(w.traced, wireTrace{w.sensor, tid, hop})
		}
	}
	w.cur = w.cur[:0]
}

// relay moves a queued item's relayed frame, reference and all, into
// the burst behind the cooked partial, which is sealed first to preserve
// delivery order.
func (w *frameEvents) relay(it *frameItem) {
	w.seal()
	f := it.f
	it.f = nil
	w.bufs = append(w.bufs, f.Bytes())
	w.held = append(w.held, f)
	if w.sub.g.tracer.Load() != nil {
		if tid, hop, ok := f.Trace(); ok {
			w.traced = append(w.traced, wireTrace{f.Sensor, tid, hop})
		}
	}
}

// commit seals the open frame and writes the burst out — one writev on
// a TCP connection, one joined write on anything else (TLS) — and
// releases its relayed frames. The socket write is what the telemetry
// "wire" stage times, for every frame of the burst: each waited for it.
// Drops follow on change as a control frame rather than piggybacked per
// frame, so relayed frames need no rewrite.
func (w *frameEvents) commit() error {
	w.seal()
	n := len(w.bufs)
	if n == 0 {
		return nil
	}
	tr := w.sub.g.tracer.Load()
	var w0 time.Time
	if tr != nil {
		w0 = time.Now()
	}
	var err error
	if _, gathers := w.c.conn.(*net.TCPConn); gathers || n == 1 {
		w.wv = w.bufs
		_, err = w.wv.WriteTo(w.c.conn)
	} else {
		w.flat = w.flat[:0]
		for _, b := range w.bufs {
			w.flat = append(w.flat, b...)
		}
		_, err = w.c.conn.Write(w.flat)
	}
	if err == nil && tr != nil {
		d := time.Since(w0)
		for range n {
			tr.Observe("wire", d)
		}
		for _, t := range w.traced {
			tr.Event(t.tid, t.hop, t.sensor, "wire", d)
		}
	}
	for _, f := range w.held {
		f.Release()
	}
	clear(w.bufs)
	clear(w.held)
	w.bufs, w.held, w.traced, w.out = w.bufs[:0], w.held[:0], w.traced[:0], w.out[:0]
	if err != nil {
		return err
	}
	if d := w.sub.WireDrops(); d != w.lastDrops {
		w.lastDrops = d
		return w.c.writeResponse(&wireResponse{OK: true, Drops: d})
	}
	return nil
}

// framePubBatch encodes each of a Publisher's records into ULM binary
// exactly once, at Publish time, appending to the current per-sensor
// run; runs seal into finished frames in the same buffer and one flush
// writes them all with one syscall. No JSON, no base64, no intermediate
// strings.
type framePubBatch struct {
	conn net.Conn
	// wbuf accumulates sealed frames, run* the open per-sensor run still
	// being appended to.
	wbuf      []byte
	runSensor string
	runBuf    []byte
	runCount  int
	runHops   int
	replica   bool
}

func (c *frameCodec) newBatch(string, bool) pubBatch { return &framePubBatch{conn: c.conn} }

func (b *framePubBatch) add(sensor string, rec ulm.Record) (int, error) {
	if b.runCount > 0 && sensor != b.runSensor {
		b.seal()
	}
	b.runSensor = sensor
	pre := len(b.runBuf)
	b.runBuf = ulm.AppendBinary(b.runBuf, &rec)
	b.runHops = max(b.runHops, recHops(rec))
	b.runCount++
	return len(b.runBuf) - pre, nil
}

// seal turns the open run, if any, into a finished frame in wbuf.
func (b *framePubBatch) seal() {
	if b.runCount == 0 {
		return
	}
	start := len(b.wbuf)
	b.wbuf = appendRawBatchFrame(b.wbuf, b.runHops, b.runSensor, b.runCount, b.runBuf)
	if b.replica {
		markFrameReplica(b.wbuf, start)
	}
	b.runBuf = b.runBuf[:0]
	b.runCount = 0
	b.runHops = 0
}

// splice joins a pre-encoded frame's bytes to the write buffer
// untouched (the open run is sealed first to preserve order); a replica
// batch flags the copy in place.
func (b *framePubBatch) splice(f *Frame) int {
	b.seal()
	start := len(b.wbuf)
	b.wbuf = append(b.wbuf, f.Bytes()...)
	if b.replica && !f.Replica() {
		markFrameReplica(b.wbuf, start)
	}
	return len(f.Bytes())
}

func (b *framePubBatch) markReplica() { b.replica = true }

func (b *framePubBatch) flush() error {
	b.seal()
	if len(b.wbuf) == 0 {
		return nil
	}
	_, err := b.conn.Write(b.wbuf)
	b.wbuf = b.wbuf[:0]
	return err
}
