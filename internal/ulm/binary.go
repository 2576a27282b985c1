package ulm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"
)

// Binary encoding of ULM records (paper §3.0: "a binary format option
// for high throughput event data that can not tolerate the parsing
// overhead of ASCII formats").
//
// Layout, all integers unsigned varints:
//
//	magic byte 0xBE
//	date:   microseconds since the Unix epoch
//	host, prog, lvl, event: length-prefixed strings (event may be empty)
//	nfields, then nfields × (key, value) length-prefixed strings
//
// The encoding is self-delimiting, so records can be streamed back to
// back on a connection.

const binaryMagic = 0xBE

// ErrBadMagic reports a binary stream that does not start with the ULM
// binary record marker.
var ErrBadMagic = errors.New("ulm: bad binary magic byte")

// AppendBinary appends the binary encoding of r to dst.
func AppendBinary(dst []byte, r *Record) []byte {
	dst = append(dst, binaryMagic)
	dst = binary.AppendUvarint(dst, uint64(r.Date.UnixMicro()))
	dst = appendString(dst, r.Host)
	dst = appendString(dst, r.Prog)
	dst = appendString(dst, r.Lvl)
	dst = appendString(dst, r.Event)
	dst = binary.AppendUvarint(dst, uint64(len(r.Fields)))
	for _, f := range r.Fields {
		dst = appendString(dst, f.Key)
		dst = appendString(dst, f.Value)
	}
	return dst
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (r *Record) MarshalBinary() ([]byte, error) {
	return AppendBinary(nil, r), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. It requires the
// buffer to contain exactly one record.
func (r *Record) UnmarshalBinary(data []byte) error {
	rest, err := DecodeBinary(data, r)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("ulm: %d trailing bytes after binary record", len(rest))
	}
	return nil
}

// strRef locates one string as bytes [off, off+n) of some buffer: the
// wire data while a record is scanned, a batch's arena afterwards.
type strRef struct{ off, n int }

// headStrings is the number of strings ahead of a record's fields:
// host, prog, lvl, event.
const headStrings = 4

// scanRecord validates the binary record at data[pos:] — the one set
// of checks the single-record and batch decoders share, so they cannot
// disagree about what is well formed — and appends to refs where each
// of its strings sits in data: host, prog, lvl, event, then key and
// value per field. It returns the record's date and the offset just
// past the record.
func scanRecord(data []byte, pos int, refs []strRef) (usec uint64, _ []strRef, next int, err error) {
	if pos >= len(data) || data[pos] != binaryMagic {
		return 0, refs, pos, ErrBadMagic
	}
	if usec, pos, err = scanUvarint(data, pos+1); err != nil {
		return 0, refs, pos, err
	}
	for i := 0; i < headStrings; i++ {
		if refs, pos, err = scanString(data, pos, refs); err != nil {
			return 0, refs, pos, err
		}
	}
	n, pos, err := scanUvarint(data, pos)
	if err != nil {
		return 0, refs, pos, err
	}
	if n > uint64(len(data)-pos) { // each field needs ≥2 bytes; cheap sanity bound
		return 0, refs, pos, fmt.Errorf("ulm: implausible field count %d", n)
	}
	for i := uint64(0); i < 2*n; i++ {
		if refs, pos, err = scanString(data, pos, refs); err != nil {
			return 0, refs, pos, err
		}
	}
	return usec, refs, pos, nil
}

func scanUvarint(data []byte, pos int) (uint64, int, error) {
	v, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return 0, pos, errors.New("ulm: truncated varint")
	}
	return v, pos + n, nil
}

func scanString(data []byte, pos int, refs []strRef) ([]strRef, int, error) {
	n, pos, err := scanUvarint(data, pos)
	if err != nil {
		return refs, pos, err
	}
	if n > uint64(len(data)-pos) {
		return refs, pos, errors.New("ulm: truncated string")
	}
	return append(refs, strRef{pos, int(n)}), pos + int(n), nil
}

// DecodeBinary decodes one record from the front of data, returning the
// remaining bytes (data itself when the record is malformed). It is the
// streaming form — one allocation per non-empty string; anything that
// holds a whole batch decodes it with DecodeBinaryBatch.
func DecodeBinary(data []byte, r *Record) ([]byte, error) {
	var buf [headStrings + 2*16]strRef // on the stack up to 16 fields
	usec, refs, next, err := scanRecord(data, 0, buf[:0])
	if err != nil {
		return data, err
	}
	str := func(i int) string { return string(data[refs[i].off : refs[i].off+refs[i].n]) }
	r.Date = time.UnixMicro(int64(usec)).UTC()
	r.Host, r.Prog, r.Lvl, r.Event = str(0), str(1), str(2), str(3)
	r.Fields = make([]Field, (len(refs)-headStrings)/2)
	for i := range r.Fields {
		r.Fields[i] = Field{str(headStrings + 2*i), str(headStrings + 2*i + 1)}
	}
	return data[next:], nil
}

// batchScratch is the working memory of a batch decode — binary
// (DecodeBinaryBatch) or text (TextBatch) alike. Pass 1 adds records:
// each is validated by its format's scanner and its strings go into
// arena, a string equal to the one in the same slot of the previous
// record stored once. Pass 2, records, materialises them all from two
// allocations.
type batchScratch struct {
	arena []byte     // the batch's distinct string bytes
	refs  []strRef   // per record, per string slot: where it sits in arena
	wire  []strRef   // the binary record being scanned: where each string sits in data
	recs  []recShape // per record
	// start and prev index refs: the slots of the record being added and
	// of the one before it. mark is the arena's length when the record
	// began, so a record that turns out malformed leaves nothing behind.
	start, prev, mark int
}

// recShape is what pass 2 needs of an added record besides its refs.
type recShape struct {
	date  time.Time
	slots int // strings in the record: headStrings + 2 × fields
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// maxPooledArena keeps one giant batch from pinning its working memory
// forever, in the pool or in a long-lived TextBatch.
const maxPooledArena = 1 << 20

func (s *batchScratch) reset() {
	if cap(s.arena) > maxPooledArena {
		*s = batchScratch{}
		return
	}
	s.arena, s.refs, s.wire, s.recs = s.arena[:0], s.refs[:0], s.wire[:0], s.recs[:0]
	s.start, s.prev, s.mark = 0, 0, 0
}

func (s *batchScratch) release() {
	if cap(s.arena) <= maxPooledArena {
		s.reset()
		batchPool.Put(s)
	}
}

// begin opens the next record, its first heads slots set aside to be
// filled in any order (setHead); put appends the slots behind them.
func (s *batchScratch) begin(heads int) {
	s.start, s.mark = len(s.refs), len(s.arena)
	for i := 0; i < heads; i++ {
		s.refs = append(s.refs, strRef{})
	}
}

// intern returns where b sits in the arena as slot j of the open
// record: with the same slot of the previous record when that holds the
// same bytes, appended otherwise.
func (s *batchScratch) intern(j int, b []byte) strRef {
	if k := s.prev + j; k < s.start {
		if p := s.refs[k]; bytes.Equal(s.arena[p.off:p.off+p.n], b) {
			return p
		}
	}
	s.arena = append(s.arena, b...)
	return strRef{len(s.arena) - len(b), len(b)}
}

func (s *batchScratch) put(b []byte) {
	s.refs = append(s.refs, s.intern(len(s.refs)-s.start, b))
}

func (s *batchScratch) setHead(i int, b []byte) {
	s.refs[s.start+i] = s.intern(i, b)
}

// end closes the open record; abort drops it.
func (s *batchScratch) end(date time.Time) {
	s.recs = append(s.recs, recShape{date, len(s.refs) - s.start})
	s.prev = s.start
}

func (s *batchScratch) abort() {
	s.refs, s.arena = s.refs[:s.start], s.arena[:s.mark]
}

// records is pass 2: it appends every added record to dst, all of them
// materialised from one string arena and one field slab, each record's
// Fields a cap-clipped slice of the slab with spare unused slots behind
// it.
func (s *batchScratch) records(dst []Record, spare int) []Record {
	count := len(s.recs)
	arena := string(s.arena)
	str := func(r strRef) string { return arena[r.off : r.off+r.n] }
	var slab []Field
	if n := (len(s.refs)-headStrings*count)/2 + spare*count; n > 0 {
		slab = make([]Field, n)
	}
	dst = slices.Grow(dst, count)
	refs := s.refs
	for _, shape := range s.recs {
		r := refs[:shape.slots]
		refs = refs[shape.slots:]
		nf := (shape.slots - headStrings) / 2
		fields := slab[: nf : nf+spare]
		slab = slab[nf+spare:]
		for f := range fields {
			fields[f] = Field{str(r[headStrings+2*f]), str(r[headStrings+2*f+1])}
		}
		dst = append(dst, Record{
			Date: shape.date,
			Host: str(r[0]), Prog: str(r[1]), Lvl: str(r[2]), Event: str(r[3]),
			Fields: fields,
		})
	}
	return dst
}

// DecodeBinaryBatch decodes count back-to-back records from the front
// of data, appending them to dst, and returns the remaining bytes. It
// accepts exactly the input on which count successive DecodeBinary
// calls succeed and yields the same records; a malformed batch appends
// nothing and returns data itself.
//
// The whole batch is materialised from two allocations however many
// records it holds: one string arena and one field slab. A string
// equal to the one in the same slot of the previous record — HOST,
// PROG, LVL, NL.EVNT, every key, every unchanged value — is stored in
// the arena once. Each record's Fields is a cap-clipped slice of the
// slab with spare unused slots behind it, so appending up to spare
// fields to a record neither reallocates nor touches its neighbour,
// and appending more reallocates. The records alias nothing in data,
// but they do share the arena and the slab: retaining one record
// retains both, so anything that keeps a record longer than its batch
// keeps record.Compact() instead.
func DecodeBinaryBatch(dst []Record, data []byte, count, spare int) ([]Record, []byte, error) {
	s := batchPool.Get().(*batchScratch)
	defer s.release()
	pos := 0
	for i := 0; i < count; i++ {
		var err error
		if pos, err = s.addBinary(data, pos); err != nil {
			return dst, data, fmt.Errorf("ulm: batch record %d/%d: %w", i, count, err)
		}
	}
	return s.records(dst, spare), data[pos:], nil
}

// addBinary adds the binary record at data[pos:] and returns the offset
// just past it.
func (s *batchScratch) addBinary(data []byte, pos int) (int, error) {
	usec, wire, next, err := scanRecord(data, pos, s.wire[:0])
	s.wire = wire
	if err != nil {
		return pos, err
	}
	s.begin(0)
	for _, w := range wire {
		s.put(data[w.off : w.off+w.n])
	}
	s.end(time.UnixMicro(int64(usec)).UTC())
	return next, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// BinaryWriter streams binary records to an io.Writer.
type BinaryWriter struct {
	w   io.Writer
	buf []byte
}

// NewBinaryWriter returns a BinaryWriter emitting to w.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{w: w}
}

// Write encodes and writes one record.
func (bw *BinaryWriter) Write(r *Record) error {
	bw.buf = AppendBinary(bw.buf[:0], r)
	_, err := bw.w.Write(bw.buf)
	return err
}

// BinaryReader streams binary records from an io.Reader.
type BinaryReader struct {
	r   io.Reader
	buf []byte
	pos int
	end int
}

// NewBinaryReader returns a BinaryReader consuming from r.
func NewBinaryReader(r io.Reader) *BinaryReader {
	return &BinaryReader{r: r, buf: make([]byte, 0, 4096)}
}

// Read decodes the next record, returning io.EOF at a clean end of
// stream.
func (br *BinaryReader) Read(rec *Record) error {
	for {
		if br.pos < br.end {
			rest, err := DecodeBinary(br.buf[br.pos:br.end], rec)
			if err == nil {
				br.pos = br.end - len(rest)
				return nil
			}
			// Errors may just mean "need more bytes"; fall through
			// to refill, but a bad magic byte on a full buffer is fatal.
			if errors.Is(err, ErrBadMagic) {
				return err
			}
		}
		if err := br.fill(); err != nil {
			if err == io.EOF && br.pos < br.end {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
}

func (br *BinaryReader) fill() error {
	if br.pos > 0 {
		copy(br.buf[:cap(br.buf)], br.buf[br.pos:br.end])
		br.end -= br.pos
		br.pos = 0
	}
	if br.end == cap(br.buf) {
		nb := make([]byte, cap(br.buf)*2)
		copy(nb, br.buf[:br.end])
		br.buf = nb
	}
	n, err := br.r.Read(br.buf[br.end:cap(br.buf)])
	br.buf = br.buf[:cap(br.buf)]
	br.end += n
	if n > 0 {
		return nil
	}
	return err
}
