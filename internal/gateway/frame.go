package gateway

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"jamm/internal/bus"
	"jamm/internal/ulm"
)

// Wire protocol v2 framing. After a successful version handshake (a
// JSON {"op":"hello"} line answered with the negotiated version — see
// wire.go) the connection stops being newline-delimited JSON and
// carries length-prefixed, CRC-checked binary frames in both
// directions:
//
//	u32  payload length (little endian)
//	u32  CRC32 (IEEE) of the payload
//	payload:
//	    [0]    op — frameOpBatch or frameOpJSON
//	    [1]    hops — bridge hop count for the whole frame
//	    [2]    base — the hops value at encode time (never rewritten)
//	    [3]    flags — bit 0: replica copy (see frameFlagReplica)
//	    op=batch: uvarint sensor length, sensor bytes,
//	              uvarint record count, count × ULM binary records
//	    op=json:  one JSON object (wireRequest client→server,
//	              wireResponse server→client)
//
// This is histstore's on-disk frame (u32 len + CRC32 + sensor + ULM
// binary batch) promoted to the wire, with a 4-byte op/hops prelude so
// control traffic and relay loop-suppression ride the same framing.
// Record batches — the publish, subscribe, and history hot paths —
// travel as op=batch frames; everything else (requests, acks, errors,
// drop counters, eof markers) is JSON-in-a-frame, so the cold path
// keeps JSON's debuggability while the hot path never touches it.
//
// The hops byte lives in the frame header so a bridge in pure-relay
// position can enforce MaxHops and forward the frame without decoding
// a single record body: bump the byte, recompute the CRC (one pass,
// no allocation), write the bytes. The base byte records what the hops
// byte said at encode time, so when a frame is finally decoded into
// records, exactly the relay hops accumulated since encode (hops −
// base) are added to each record's own JAMM.HOPS field — loop
// suppression survives mixed binary/JSON chains without a shallow
// record ever inheriting a deeper batchmate's absolute count.

// Frame ops.
const (
	frameOpBatch = 1
	frameOpJSON  = 2
)

// Frame flag bits (payload byte 3). Pre-replication builds wrote the
// byte as zero and never read it, so the bit is wire-compatible in
// both directions.
const (
	// frameFlagReplica marks a frame carrying a replicated copy of
	// records already ingested at the sensor's primary gateway. A
	// replica-flagged ingest updates producer state and feeds local
	// consumers but fires no registration hooks (the replica must not
	// fight the primary's directory advertisement) and is never
	// re-forwarded to the replica set (no replication loops).
	frameFlagReplica = 1
)

const (
	// wireFrameHdr is the fixed frame prefix: u32 length + u32 CRC.
	wireFrameHdr = 8
	// framePrelude is the payload's fixed head: op, hops, 2 reserved.
	framePrelude = 4
	// maxWireFrameBytes bounds a v2 frame payload on read; anything
	// larger is corruption or abuse, not a real batch (a full 4096
	//-record batch of fat records stays far below this).
	maxWireFrameBytes = 8 << 20
	// maxFrameHops caps the header hop counter (one byte on the wire).
	maxFrameHops = math.MaxUint8
)

// errBadFrame marks a frame that failed its CRC or payload parse: the
// declared length was plausible, so the connection can skip it and
// stay in sync.
var errBadFrame = errors.New("gateway: bad wire frame")

// errFrameTooBig marks an implausible frame length — the stream is
// desynchronized or hostile and cannot be resynchronized.
var errFrameTooBig = errors.New("gateway: oversized wire frame")

// Frame is one decoded v2 record-batch frame: the header fields plus
// the raw bytes, kept so relays can forward the frame without touching
// the record bodies. It is a handle on a reference-counted buffer, held
// in one of three ways:
//
//   - Borrowed: a Frame handed to a callback (a stream's onFrame,
//     PublishFrame, Forward) is valid until the call returns; the reader
//     then drops its reference and the buffer goes back to its pool.
//   - Retained: f.Retain() returns a new handle owning one reference to
//     the same bytes, to Release exactly once. This is how subscriber
//     queues, replica links and the last-frame stash keep a frame: one
//     buffer per hop, no copy, unchanged however long it is held.
//   - Private copy: f.Clone(). It need not be released.
//
// Only a sole owner writes. Relays mutate a frame before they share it
// (Bridge.relay patches the reader's own frame, the replica flag is
// patched in a Publisher's copy), and the mutators enforce it: on a
// frame with other holders they move this handle to a private copy
// first.
//
// The framealias analyzer (`go run ./cmd/jammlint ./...`) flags a Frame
// parameter — or its Bytes() alias — stored, sent, or goroutine-captured
// without Retain() or Clone(), and a Retain() whose handle is thrown
// away (deliberate exceptions carry //jamm:frame-ok <why>).
type Frame struct {
	// Sensor is the bus topic every record of the frame was published
	// under.
	Sensor string
	// Count is the record count declared by the frame header.
	Count int

	buf    []byte    // full frame: 8-byte header + payload
	recOff int       // offset of the first record byte within buf
	mem    *frameBuf // the counted buffer buf lies in
	pooled bool      // the handle is Retain's, from frameHandles
}

// frameBuf is the reference-counted buffer under one or more Frame
// handles. Readers take theirs from pools of power-of-two size classes,
// 64 B to 64 KiB, so a held frame pins at most twice its length; the
// last Release puts it back. A frame above the largest class is
// allocated exactly and left to the collector on release, like a
// private copy: an 8 MiB frame pins 8 MiB only while somebody holds it.
// sync.Pools are emptied by the collector, so idle buffers do not grow
// the live heap.
type frameBuf struct {
	refs atomic.Int32
	pool *sync.Pool // where the last release puts it; nil: nowhere
	data []byte
}

var (
	// framePools[c] holds buffers of 64<<c bytes: 64 B to 64 KiB.
	framePools   [11]sync.Pool
	frameHandles = sync.Pool{New: func() any { return new(Frame) }}
	// framesRetained counts Retain handles not yet released.
	framesRetained atomic.Int64
)

// FramesRetained reports how many handles Retain has given out in this
// process and nobody has released yet: what queues, replica links and
// stashes hold right now. A value that only grows is a leak.
func FramesRetained() int { return int(framesRetained.Load()) }

// getFrameBuf returns a buffer of at least n bytes holding one
// reference, the caller's.
func getFrameBuf(n int) *frameBuf {
	var m *frameBuf
	if c := max(bits.Len(uint(n-1)), 6) - 6; c >= len(framePools) {
		m = &frameBuf{data: make([]byte, n)}
	} else if m, _ = framePools[c].Get().(*frameBuf); m == nil {
		m = &frameBuf{pool: &framePools[c], data: make([]byte, 64<<c)}
	}
	m.refs.Store(1)
	return m
}

// release drops one reference. The last one spoils the frame's CRC
// word, so bytes sent after their release fail the next hop's check.
func (m *frameBuf) release() {
	if m.refs.Add(-1) != 0 {
		return
	}
	if len(m.data) >= wireFrameHdr {
		binary.LittleEndian.PutUint32(m.data[4:], ^binary.LittleEndian.Uint32(m.data[4:]))
	}
	if m.pool != nil {
		m.pool.Put(m)
	}
}

// Retain returns a new handle on the frame's bytes, valid until its
// Release whatever happens to f: a borrowed frame kept without a copy.
func (f *Frame) Retain() *Frame {
	f.mem.refs.Add(1)
	framesRetained.Add(1)
	h := frameHandles.Get().(*Frame)
	*h = *f
	h.pooled = true
	return h
}

// Release gives up the handle's reference; the handle must not be used
// again. A nil frame has nothing to release.
func (f *Frame) Release() {
	if f == nil || f.mem == nil {
		return
	}
	m, pooled := f.mem, f.pooled
	*f = Frame{}
	if pooled {
		framesRetained.Add(-1)
		frameHandles.Put(f)
	}
	m.release()
}

// Len and Hold, with Release, make a *Frame a bus.Sealed: the encoded
// batch the bus hands to subscribers that take frames, which Hold it to
// keep it past their callback.
func (f *Frame) Len() int { return f.Count }

// Hold is Retain, as bus.Sealed spells it.
func (f *Frame) Hold() bus.Sealed { return f.Retain() }

// unshare makes the handle the sole holder of its bytes before a
// mutator writes, by copying them if anyone else holds them.
func (f *Frame) unshare() {
	if f.mem.refs.Load() == 1 {
		return
	}
	shared := f.mem
	f.mem = privateFrameBuf(f.buf)
	f.buf = f.mem.data
	shared.release()
}

// privateFrameBuf returns an unpooled buffer holding a copy of b and
// one reference.
func privateFrameBuf(b []byte) *frameBuf {
	m := &frameBuf{data: append([]byte(nil), b...)}
	m.refs.Store(1)
	return m
}

// Bytes returns the full wire encoding (header + payload). The slice
// aliases the frame's buffer — do not modify.
func (f *Frame) Bytes() []byte { return f.buf }

// Hops returns the frame's bridge hop count.
func (f *Frame) Hops() int { return int(f.buf[wireFrameHdr+1]) }

// baseHops returns the frame's hop count as of encode time; relays
// bump Hops but never this, so Hops−baseHops is the number of relay
// hops the frame took as raw bytes.
func (f *Frame) baseHops() int { return int(f.buf[wireFrameHdr+2]) }

// SetHops patches the frame's hop counter in place and recomputes the
// payload CRC — the relay mutation: one byte store plus one checksum
// pass, never a record decode. Like every mutator it writes only bytes
// no other handle shares.
func (f *Frame) SetHops(h int) {
	if h < 0 {
		h = 0
	}
	if h > maxFrameHops {
		h = maxFrameHops
	}
	f.unshare()
	f.buf[wireFrameHdr+1] = byte(h)
	binary.LittleEndian.PutUint32(f.buf[4:], crc32.ChecksumIEEE(f.buf[wireFrameHdr:]))
}

// traceNeedle is the ULM-binary encoding of a telemetry.TraceField
// field head: uvarint key length (10), the key bytes, uvarint value
// length (19 — the attribute value is fixed-width hex, so its encoded
// length never changes). Searching the frame's record bytes for this
// needle locates the trace value without decoding any record, the
// same trick the header hops byte plays for loop suppression. The
// literals mirror telemetry.TraceField/len(telemetry.FormatTrace(0,0))
// without importing telemetry here (gateway already imports it
// elsewhere, but frame.go stays self-describing like hopField does
// for bridge.HopField).
const traceNeedle = "\x0aJAMM.TRACE\x13"

var traceNeedleBytes = []byte(traceNeedle)

// traceHex reports whether every byte of s is a lowercase hex digit.
func traceHex(s []byte) bool {
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// findTrace returns the offset of the 19-byte trace value within
// f.buf, or -1. A needle match is confirmed by shape (16 hex, '-',
// 2 hex) so the astronomically unlikely false positive — the needle
// bytes appearing inside some other field's value — is rejected
// rather than corrupted.
func (f *Frame) findTrace() int {
	rest := f.buf[f.recOff:]
	base := f.recOff
	for {
		i := bytes.Index(rest, traceNeedleBytes)
		if i < 0 {
			return -1
		}
		v := rest[i+len(traceNeedle):]
		if len(v) >= 19 && v[16] == '-' && traceHex(v[:16]) && traceHex(v[17:19]) {
			return base + i + len(traceNeedle)
		}
		rest = rest[i+1:]
		base += i + 1
	}
}

// Trace returns the trace id and hop carried by the frame's sampled
// record, if any, without decoding record bodies.
func (f *Frame) Trace() (id uint64, hop int, ok bool) {
	off := f.findTrace()
	if off < 0 {
		return 0, 0, false
	}
	v := f.buf[off : off+19]
	for _, c := range v[:16] {
		d := uint64(c - '0')
		if c >= 'a' {
			d = uint64(c-'a') + 10
		}
		id = id<<4 | d
	}
	hop = int(hexNib(v[17]))<<4 | int(hexNib(v[18]))
	return id, hop, true
}

func hexNib(c byte) byte {
	if c >= 'a' {
		return c - 'a' + 10
	}
	return c - '0'
}

// BumpTrace increments the hop portion of an in-frame trace attribute
// in place and recomputes the payload CRC — the hops-byte relay trick
// extended into the record bytes, possible because the attribute value
// is fixed-width. Frames without a trace attribute (the common case;
// tracing is sampled) return false without touching the CRC, so
// untraced relays pay only the needle scan.
func (f *Frame) BumpTrace() bool {
	off := f.findTrace()
	if off < 0 {
		return false
	}
	hop := int(hexNib(f.buf[off+17]))<<4 | int(hexNib(f.buf[off+18]))
	if hop >= maxFrameHops {
		return false
	}
	hop++
	f.unshare()
	const hexDigits = "0123456789abcdef"
	f.buf[off+17] = hexDigits[hop>>4]
	f.buf[off+18] = hexDigits[hop&0xf]
	binary.LittleEndian.PutUint32(f.buf[4:], crc32.ChecksumIEEE(f.buf[wireFrameHdr:]))
	return true
}

// Replica reports whether the frame carries a replicated copy (the
// replication link set the replica flag bit).
func (f *Frame) Replica() bool { return f.buf[wireFrameHdr+3]&frameFlagReplica != 0 }

// SetReplica patches the frame's replica flag in place and recomputes
// the payload CRC — the same one-byte-store-plus-checksum mutation as
// SetHops, so replication links can mark a relayed frame without
// decoding it.
func (f *Frame) SetReplica(on bool) {
	f.unshare()
	if on {
		f.buf[wireFrameHdr+3] |= frameFlagReplica
	} else {
		f.buf[wireFrameHdr+3] &^= frameFlagReplica
	}
	binary.LittleEndian.PutUint32(f.buf[4:], crc32.ChecksumIEEE(f.buf[wireFrameHdr:]))
}

// Clone returns a private copy of the frame, backed by its own buffer:
// for tests and tools. The delivery plane keeps frames with Retain.
func (f *Frame) Clone() *Frame {
	m := privateFrameBuf(f.buf)
	return &Frame{Sensor: f.Sensor, Count: f.Count, buf: m.data, recOff: f.recOff, mem: m}
}

// Records decodes the frame's record bodies, appending to dst. The
// relay hops the frame accumulated as raw bytes — header hops minus
// the encode-time base — are added to each record's own JAMM.HOPS
// field, so records leaving the zero-copy plane carry exactly their
// individual count plus the hops they actually took, never a deeper
// batchmate's total.
//
// The records alias nothing in the frame's buffer, which may be released
// at once. They do share one string arena and one field slab (see
// ulm.DecodeBinaryBatch): anything that keeps a record longer than its
// batch keeps rec.Compact() instead.
func (f *Frame) Records(dst []ulm.Record) ([]ulm.Record, error) {
	delta := f.Hops() - f.baseHops()
	spare := 0
	if delta > 0 {
		spare = 1 // room for addHops to append the hop field in place
	}
	n := len(dst)
	dst, rest, err := ulm.DecodeBinaryBatch(dst, f.buf[f.recOff:], f.Count, spare)
	if err != nil {
		return dst, fmt.Errorf("gateway: frame: %w", err)
	}
	if len(rest) != 0 {
		return dst[:n], fmt.Errorf("gateway: %d trailing bytes in frame", len(rest))
	}
	if delta > 0 {
		for i := n; i < len(dst); i++ {
			addHops(&dst[i], delta)
		}
	}
	return dst, nil
}

// addHops adds d relay hops to rec's hop field, saturating at the wire
// ceiling. Records decoded from a frame own their field slots (and one
// spare, see Records), so the mutation is safe and stays in place.
func addHops(rec *ulm.Record, d int) {
	n := recHops(*rec) + d
	if n > maxFrameHops {
		n = maxFrameHops
	}
	rec.Set(hopField, itoaSmall(n))
}

// hopField mirrors bridge.HopField without importing the bridge
// package (which imports gateway).
const hopField = "JAMM.HOPS"

// recHops reads a record's hop field (0 when absent or malformed).
func recHops(rec ulm.Record) int {
	raw, ok := rec.Get(hopField)
	if !ok {
		return 0
	}
	n := 0
	for i := 0; i < len(raw); i++ {
		if raw[i] < '0' || raw[i] > '9' {
			return 0
		}
		n = n*10 + int(raw[i]-'0')
		if n > maxFrameHops {
			return maxFrameHops
		}
	}
	return n
}

// itoaSmall renders a small non-negative integer without fmt.
func itoaSmall(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// batchHops returns the frame hop count for a batch being encoded: the
// maximum hop field across its records, so a relay checking only the
// header enforces MaxHops exactly for the deepest record and
// conservatively for the rest. The same value becomes the frame's base
// byte, so decode adds only hops accumulated after encode — the
// header's batch maximum never leaks into shallower records.
func batchHops(recs []ulm.Record) int {
	h := 0
	for i := range recs {
		if n := recHops(recs[i]); n > h {
			h = n
		}
	}
	return h
}

// beginFrame appends the frame header and payload prelude for op/hops,
// returning dst and the frame's start offset for finishFrame. The hop
// count is written twice — as the live hops byte relays will bump and
// as the immutable encode-time base — so a later decode can recover
// the relay delta.
func beginFrame(dst []byte, op byte, hops int) ([]byte, int) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc, patched below
	if hops < 0 {
		hops = 0
	}
	if hops > maxFrameHops {
		hops = maxFrameHops
	}
	dst = append(dst, op, byte(hops), byte(hops), 0)
	return dst, start
}

// finishFrame patches the length and CRC of the frame begun at start.
func finishFrame(dst []byte, start int) []byte {
	payload := dst[start+wireFrameHdr:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// appendBatchFrame appends one encoded record-batch frame to dst.
func appendBatchFrame(dst []byte, hops int, sensor string, recs []ulm.Record) []byte {
	dst, start := beginFrame(dst, frameOpBatch, hops)
	dst = binary.AppendUvarint(dst, uint64(len(sensor)))
	dst = append(dst, sensor...)
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	for i := range recs {
		dst = ulm.AppendBinary(dst, &recs[i])
	}
	return finishFrame(dst, start)
}

// appendRawBatchFrame appends a record-batch frame whose record bodies
// are already ULM-binary encoded — the splice path history replay uses
// to serve stored archive frames without decoding them: prepend the
// v2 prelude and sensor head, copy the stored record bytes, checksum.
func appendRawBatchFrame(dst []byte, hops int, sensor string, count int, recBytes []byte) []byte {
	dst, start := beginFrame(dst, frameOpBatch, hops)
	dst = binary.AppendUvarint(dst, uint64(len(sensor)))
	dst = append(dst, sensor...)
	dst = binary.AppendUvarint(dst, uint64(count))
	dst = append(dst, recBytes...)
	return finishFrame(dst, start)
}

// markFrameReplica sets the replica flag on the complete frame
// beginning at start in dst and recomputes its CRC, using the frame's
// declared length so trailing frames in the same buffer stay intact.
func markFrameReplica(dst []byte, start int) {
	plen := int(binary.LittleEndian.Uint32(dst[start:]))
	dst[start+wireFrameHdr+3] |= frameFlagReplica
	payload := dst[start+wireFrameHdr : start+wireFrameHdr+plen]
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
}

// splitBatchFrame locates the parts of a full batch frame: the sensor
// name's bytes, the declared record count, and the offset of the first
// record byte within buf.
func splitBatchFrame(buf []byte) (sensor []byte, count, recOff int, err error) {
	payload := buf[wireFrameHdr+framePrelude:]
	n, sz := binary.Uvarint(payload)
	if sz <= 0 || n > uint64(len(payload)-sz) {
		return nil, 0, 0, errBadFrame
	}
	sensor = payload[sz : sz+int(n)]
	payload = payload[sz+int(n):]
	c, sz2 := binary.Uvarint(payload)
	if sz2 <= 0 || c > uint64(len(payload)-sz2) {
		// Each record is ≥1 byte (its magic), so a count beyond the
		// remaining bytes is garbage that happened to checksum — reject
		// before anyone trusts Count for accounting.
		return nil, 0, 0, errBadFrame
	}
	return sensor, int(c), len(buf) - len(payload) + sz2, nil
}

// verifyFrame checks a full frame's declared length and CRC.
func verifyFrame(buf []byte) error {
	if len(buf) < wireFrameHdr+framePrelude {
		return errBadFrame
	}
	payload := buf[wireFrameHdr:]
	if binary.LittleEndian.Uint32(buf[:4]) != uint32(len(payload)) {
		return errBadFrame
	}
	if binary.LittleEndian.Uint32(buf[4:8]) != crc32.ChecksumIEEE(payload) {
		return errBadFrame
	}
	return nil
}
