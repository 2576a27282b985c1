package histstore

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"jamm/internal/ulm"
)

// On-disk layout. A store directory holds numbered segment files plus
// one index sidecar per sealed segment:
//
//	seg-00000001.log    frames (see below)
//	seg-00000001.idx    JSON sparse index, written when the segment seals
//	seg-00000002.log    ← active segment (no .idx until sealed)
//
// A segment file starts with an 8-byte magic and then carries frames
// back to back. One frame is one AppendBatch — a per-sensor run of
// records — written with a single Write call:
//
//	u32  payload length (little endian)
//	u32  CRC32 (IEEE) of the payload
//	payload:
//	    uvarint sensor length, sensor bytes
//	    uvarint record count
//	    count × ULM binary records (ulm.AppendBinary)
//
// Frames are self-checking, so a reopen after a crash can scan the
// un-sealed tail segment and truncate at the first torn or corrupt
// frame: a partially written frame fails its length or CRC check and
// everything before it is intact by construction (frames are written
// whole, in order).

const (
	segMagic  = "JAMMHST1"
	segSuffix = ".log"
	idxSuffix = ".idx"
	frameHdr  = 8 // u32 length + u32 crc
	// maxFrameBytes bounds a single frame on read: anything larger is
	// corruption (a torn length word), not a real batch.
	maxFrameBytes = 64 << 20
)

// segName renders the file name of segment seq.
func segName(seq uint64) string { return fmt.Sprintf("seg-%08d%s", seq, segSuffix) }

// segment is one archive segment's in-memory state: the sparse index
// (time bounds + sensor set) plus file bookkeeping. Sealed segments are
// immutable on disk; only the store's active segment grows.
type segment struct {
	seq   uint64
	path  string
	bytes int64 // committed bytes (header + whole frames)
	recs  int64
	minT  time.Time
	maxT  time.Time
	// sensors is the set of bus topics the segment carries — the index
	// key that lets a sensor-scoped query skip the whole file.
	sensors map[string]struct{}
	sealed  bool
	// firstAppend is when the segment received its first frame, for
	// age-based rolling. Zero for segments recovered from disk (their
	// age is judged by record time bounds instead).
	firstAppend time.Time
}

func (sg *segment) noteBatch(sensor string, recs []ulm.Record, frameLen int64) {
	sg.bytes += frameLen
	sg.recs += int64(len(recs))
	sg.sensors[sensor] = struct{}{}
	for i := range recs {
		d := recs[i].Date
		if sg.minT.IsZero() || d.Before(sg.minT) {
			sg.minT = d
		}
		if d.After(sg.maxT) {
			sg.maxT = d
		}
	}
}

// overlaps reports whether the segment's time bounds intersect the
// half-open query range [from, to). Zero bounds are unbounded.
func (sg *segment) overlaps(from, to time.Time) bool {
	if sg.recs == 0 {
		return false
	}
	if !from.IsZero() && sg.maxT.Before(from) {
		return false
	}
	if !to.IsZero() && !sg.minT.Before(to) {
		return false
	}
	return true
}

// carries reports whether the segment holds any records of sensor
// ("" = any sensor).
func (sg *segment) carries(sensor string) bool {
	if sensor == "" {
		return true
	}
	_, ok := sg.sensors[sensor]
	return ok
}

// sidecar is the persisted form of a sealed segment's sparse index.
type sidecar struct {
	Recs    int64    `json:"recs"`
	MinUS   int64    `json:"min_us"` // min record time, µs since epoch
	MaxUS   int64    `json:"max_us"`
	Sensors []string `json:"sensors"`
}

func (sg *segment) writeSidecar() error {
	sc := sidecar{Recs: sg.recs, Sensors: make([]string, 0, len(sg.sensors))}
	if !sg.minT.IsZero() {
		sc.MinUS = sg.minT.UnixMicro()
		sc.MaxUS = sg.maxT.UnixMicro()
	}
	for s := range sg.sensors {
		sc.Sensors = append(sc.Sensors, s)
	}
	sort.Strings(sc.Sensors)
	data, err := json.Marshal(sc)
	if err != nil {
		return err
	}
	return os.WriteFile(idxPath(sg.path), data, 0o644)
}

func idxPath(logPath string) string {
	return strings.TrimSuffix(logPath, segSuffix) + idxSuffix
}

func loadSidecar(logPath string) (*segment, error) {
	data, err := os.ReadFile(idxPath(logPath))
	if err != nil {
		return nil, err
	}
	var sc sidecar
	if err := json.Unmarshal(data, &sc); err != nil {
		return nil, err
	}
	fi, err := os.Stat(logPath)
	if err != nil {
		return nil, err
	}
	sg := &segment{path: logPath, bytes: fi.Size(), recs: sc.Recs, sealed: true,
		sensors: make(map[string]struct{}, len(sc.Sensors))}
	if sc.Recs > 0 {
		sg.minT = time.UnixMicro(sc.MinUS).UTC()
		sg.maxT = time.UnixMicro(sc.MaxUS).UTC()
	}
	for _, s := range sc.Sensors {
		sg.sensors[s] = struct{}{}
	}
	return sg, nil
}

// appendFrame appends one encoded frame (header + payload) for a
// per-sensor batch to buf — the single buffer AppendBatch hands to one
// Write call.
func appendFrame(buf []byte, sensor string, recs []ulm.Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc, patched below
	buf = binary.AppendUvarint(buf, uint64(len(sensor)))
	buf = append(buf, sensor...)
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	for i := range recs {
		buf = ulm.AppendBinary(buf, &recs[i])
	}
	payload := buf[start+frameHdr:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// frameHead decodes a frame payload's sensor and record count,
// returning the remaining record bytes. sensor aliases payload.
func frameHead(payload []byte) (sensor []byte, count uint64, rest []byte, err error) {
	n, sz := binary.Uvarint(payload)
	if sz <= 0 || n > uint64(len(payload)-sz) {
		return nil, 0, nil, fmt.Errorf("histstore: bad sensor length")
	}
	sensor = payload[sz : sz+int(n)]
	payload = payload[sz+int(n):]
	count, sz = binary.Uvarint(payload)
	if sz <= 0 {
		return nil, 0, nil, fmt.Errorf("histstore: bad record count")
	}
	return sensor, count, payload[sz:], nil
}

// decodeRecs decodes count ULM binary records from rest, appending to
// recs (reused across frames); readFrame has bounded count by the byte
// length. The records of one frame share one string arena and one
// field slab (ulm.DecodeBinaryBatch).
func decodeRecs(rest []byte, count uint64, recs []ulm.Record) ([]ulm.Record, error) {
	n := len(recs)
	recs, rest, err := ulm.DecodeBinaryBatch(recs, rest, int(count), 0)
	if err != nil {
		return recs, err
	}
	if len(rest) != 0 {
		return recs[:n], fmt.Errorf("histstore: %d trailing bytes in frame", len(rest))
	}
	return recs, nil
}

// frameScanner reads frames sequentially from one segment's byte
// stream, verifying lengths and checksums. It reports the byte offset
// after the last whole valid frame, so reopen can truncate a torn tail.
// A non-empty filter skips frames for other sensors on their stored
// sensor bytes (the CRC has already vouched for their integrity): a
// skipped frame is neither decoded nor named, so a scan allocates for
// the frames it returns, not for the ones it walks past.
type frameScanner struct {
	r     *bufio.Reader // from segReaders; release gives it back
	lim   io.LimitedReader
	valid int64 // offset after the last good frame
	// hdr takes the segment magic and then each frame's header: a local
	// array would escape through io.ReadFull once per frame.
	hdr    [frameHdr]byte
	buf    []byte
	recs   []ulm.Record // reused record scratch
	filter string
}

// segReaders holds the 64 KiB segment readers between scans.
var segReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64*1024) }}

// newFrameScanner wraps r, which must be positioned at the segment
// magic. limit bounds how many bytes may be read (the committed size
// for the active segment; the file size for sealed ones). The caller
// releases the scanner when it is done with it.
func newFrameScanner(r io.Reader, limit int64) (*frameScanner, error) {
	fs := &frameScanner{r: segReaders.Get().(*bufio.Reader), lim: io.LimitedReader{R: r, N: limit}, valid: int64(len(segMagic))}
	fs.r.Reset(&fs.lim)
	magic := fs.hdr[:len(segMagic)]
	if _, err := io.ReadFull(fs.r, magic); err != nil || string(magic) != segMagic {
		fs.release()
		return nil, fmt.Errorf("histstore: bad segment magic")
	}
	return fs, nil
}

// release returns the scanner's reader to the pool; the scanner, and
// anything it returned, must not be used afterwards.
func (fs *frameScanner) release() {
	fs.r.Reset(nil)
	segReaders.Put(fs.r)
	fs.r = nil
}

// readFrame reads and verifies the next whole frame, returning its
// sensor bytes, declared record count, and raw record bytes — WITHOUT
// decoding record bodies (the CRC vouches for their integrity; the
// declared count is sanity-bounded against the byte length). sensor and
// rest are reused by the following call; flen is the frame's on-disk
// size.
func (fs *frameScanner) readFrame() (sensor []byte, count uint64, rest []byte, flen int64, err error) {
	if _, rerr := io.ReadFull(fs.r, fs.hdr[:]); rerr != nil {
		if rerr == io.EOF {
			return nil, 0, nil, 0, io.EOF
		}
		return nil, 0, nil, 0, errTorn // partial header
	}
	length := binary.LittleEndian.Uint32(fs.hdr[:4])
	sum := binary.LittleEndian.Uint32(fs.hdr[4:])
	if length == 0 || length > maxFrameBytes {
		return nil, 0, nil, 0, errTorn // implausible length: torn or garbage
	}
	if cap(fs.buf) < int(length) {
		// Geometric, so a run of ever larger frames costs O(log) buffers.
		fs.buf = make([]byte, max(int(length), 2*cap(fs.buf)))
	}
	payload := fs.buf[:length]
	if _, rerr := io.ReadFull(fs.r, payload); rerr != nil {
		return nil, 0, nil, 0, errTorn // partial payload
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, nil, 0, errTorn
	}
	sensor, count, rest, herr := frameHead(payload)
	// Each binary record occupies at least one byte, so a count past the
	// byte length is nonsense even before any decode.
	if herr != nil || count > uint64(len(rest)) {
		return nil, 0, nil, 0, errTorn // CRC passed but payload nonsense: treat as torn
	}
	fs.valid += frameHdr + int64(length)
	return sensor, count, rest, frameHdr + int64(length), nil
}

// wanted reports whether the filter lets a frame of sensor through, and
// names it: the filter's own string when there is one, so only an
// unfiltered scan makes a string per frame.
func (fs *frameScanner) wanted(sensor []byte) (string, bool) {
	if fs.filter == "" {
		return string(sensor), true
	}
	return fs.filter, string(sensor) == fs.filter
}

// next returns the next whole frame's sensor and records (skipping
// frames excluded by the filter). The returned slice is reused by the
// following next call. It returns io.EOF at a clean end, and errTorn
// for a torn or corrupt tail (the caller decides whether that is
// recoverable — it is for the unsealed tail segment, an error for
// sealed ones).
func (fs *frameScanner) next() (sensor string, recs []ulm.Record, err error) {
	for {
		head, count, rest, flen, err := fs.readFrame()
		if err != nil {
			return "", nil, err
		}
		sensor, ok := fs.wanted(head)
		if !ok {
			continue
		}
		fs.recs, err = decodeRecs(rest, count, fs.recs[:0])
		if err != nil {
			fs.valid -= flen
			return "", nil, errTorn
		}
		return sensor, fs.recs, nil
	}
}

// nextRaw returns the next whole frame's sensor, declared record
// count, and raw ULM-binary record bytes without decoding a single
// record body — the form wire protocol v2 splices straight into its
// own frames. The returned bytes are reused by the following call.
func (fs *frameScanner) nextRaw() (sensor string, count int, raw []byte, err error) {
	for {
		head, c, rest, _, err := fs.readFrame()
		if err != nil {
			return "", 0, nil, err
		}
		if sensor, ok := fs.wanted(head); ok {
			return sensor, int(c), rest, nil
		}
	}
}

// listSegments returns the segment log files under dir, sorted by
// sequence number, together with the highest sequence seen.
func listSegments(dir string) (paths []string, maxSeq uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name, "seg-%d", &seq); err != nil {
			continue
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		paths = append(paths, filepath.Join(dir, name))
	}
	sort.Strings(paths)
	return paths, maxSeq, nil
}
