// Package histstore is the persistent history plane: a disk-backed,
// segmented, append-only archive of monitoring events. The paper's
// archiver agent (§2.2) files events "for historical analysis of system
// performance" — e.g. correlating the §6 Matisse frame-rate collapse
// with host and network events after the fact — and the GridMonitor
// line of work argues such archives only pay off when they sit behind a
// queryable, indexed service rather than a flat file that must be
// scanned. histstore is that service's storage engine:
//
//   - Ingest is batch-native: AppendBatch writes a whole per-sensor
//     record batch as one self-checking frame with one lock acquisition
//     and one write syscall, riding the []Record delivery plane end to
//     end (bus batch subscription → archiver → frame on disk).
//   - Storage is segmented: the active segment rolls at a byte/age
//     threshold and seals with a sparse index sidecar (min/max record
//     time + sensor set). A time-range + sensor query opens only the
//     segments whose index overlaps — query cost tracks the answer
//     size, not the archive size.
//   - Reopen after a crash scans the unsealed tail segment and
//     truncates a torn final frame, so partially written batches never
//     surface; everything fully written before the crash is queryable.
//   - Retention prunes whole segments by age or total bytes — O(1)
//     file deletes, never record-level rewrites.
//   - Replay streams a time range back out in per-sensor batches, the
//     historical→live handoff that feeds a bus.Bus or any batch
//     callback (nlv playback, §4.5).
package histstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jamm/internal/bus"
	"jamm/internal/ulm"
)

// errTorn marks a torn or corrupt frame encountered mid-scan.
var errTorn = errors.New("histstore: torn frame")

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("histstore: store closed")

// Options tunes a Store.
type Options struct {
	// MaxSegmentBytes rolls the active segment when it would exceed
	// this size (default 4 MiB; a frame larger than the threshold gets
	// a segment of its own).
	MaxSegmentBytes int64
	// MaxSegmentAge rolls the active segment this long after its first
	// append, so a quiet store still seals segments and retention can
	// reclaim them. 0 disables age rolling.
	MaxSegmentAge time.Duration
	// RetainAge prunes sealed segments whose newest record is older
	// than this. 0 keeps everything.
	RetainAge time.Duration
	// RetainBytes prunes the oldest sealed segments while the store's
	// total size exceeds this. 0 keeps everything.
	RetainBytes int64
	// Sync fsyncs the active segment after every appended batch.
	// Durability for the last few frames against host (not just
	// process) crashes, at a large throughput cost.
	Sync bool
	// Now supplies the clock for age-based rolling and retention; nil
	// means the wall clock. Virtual-time deployments pass their own.
	Now func() time.Time
}

// DefaultMaxSegmentBytes is the default segment roll threshold.
const DefaultMaxSegmentBytes = 4 << 20

// Query selects records from the store. Zero fields match everything.
type Query struct {
	// From/To bound the record DATE field (inclusive from, exclusive
	// to). The sparse index prunes whole segments by these bounds.
	From, To time.Time
	// Sensor restricts to records archived under this bus topic; "" is
	// all sensors. The sparse index prunes segments not carrying it.
	Sensor string
	// Events restricts to these event types (post-index, per record).
	Events []string
	// Lvls restricts to these severity levels (post-index, per record).
	Lvls []string
}

func (q Query) matches(r *ulm.Record) bool {
	if !q.From.IsZero() && r.Date.Before(q.From) {
		return false
	}
	if !q.To.IsZero() && !r.Date.Before(q.To) {
		return false
	}
	if len(q.Events) > 0 && !containsStr(q.Events, r.Event) {
		return false
	}
	if len(q.Lvls) > 0 && !containsStr(q.Lvls, r.Lvl) {
		return false
	}
	return true
}

func containsStr(list []string, v string) bool {
	for _, s := range list {
		if s == v {
			return true
		}
	}
	return false
}

// Entry is one archived record together with the sensor (bus topic) it
// was published under.
type Entry struct {
	Sensor string
	Rec    ulm.Record
}

// Stats snapshots a store's contents and traffic counters.
type Stats struct {
	// Segments counts segment files (sealed + active).
	Segments int
	// Records counts archived records across all segments.
	Records int64
	// Bytes is the store's total on-disk size.
	Bytes int64
	// AppendBatches counts AppendBatch calls — each one frame, one
	// write syscall.
	AppendBatches uint64
	// SegmentOpens counts segment files opened for reading by queries
	// and replays. A time-scoped query on a multi-segment store should
	// grow this only by the overlapping segment count — the index
	// contract the tests and benches assert.
	SegmentOpens uint64
	// TornBytes counts bytes truncated from unsealed tails at reopen
	// (partially written frames that never surface to queries).
	TornBytes int64
	// PrunedSegments counts whole segments removed by retention.
	PrunedSegments uint64
	// RawFrames counts frames ReplayFrames served raw — stored bytes
	// handed out without decoding a single record body (the disk-speed
	// history path wire protocol v2 rides).
	RawFrames uint64
}

// Store is a disk-backed segmented event archive. It is safe for
// concurrent use: appends serialize on one mutex (one acquisition per
// batch); queries and replays read sealed segments outside it.
type Store struct {
	dir  string
	opts Options
	now  func() time.Time

	mu      sync.Mutex
	sealed  []*segment // ascending seq
	active  *segment
	f       *os.File // active segment file
	buf     []byte   // reused frame-encoding buffer
	nextSeq uint64
	closed  bool
	werr    error // sticky write error after a failed repair

	appendBatches atomic.Uint64
	segmentOpens  atomic.Uint64
	tornBytes     atomic.Int64
	prunedSegs    atomic.Uint64
	rawFrames     atomic.Uint64
}

// Open opens (or creates) the archive in dir, recovering from a
// previous run: sealed segments load their index sidecars, unsealed
// ones are scanned — truncating a torn tail frame — and sealed. The
// next append starts a fresh segment.
func Open(dir string, opts Options) (*Store, error) {
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts, now: now}
	paths, maxSeq, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	s.nextSeq = maxSeq + 1
	for _, path := range paths {
		var seq uint64
		fmt.Sscanf(filepath.Base(path), "seg-%d", &seq) //nolint:errcheck
		sg, err := loadSidecar(path)
		if err == nil {
			sg.seq = seq
			s.sealed = append(s.sealed, sg)
			continue
		}
		// No (or unreadable) sidecar: this segment was active when the
		// process died. Scan it, truncate the torn tail, and seal it.
		sg, torn, err := recoverSegment(path)
		if err != nil {
			return nil, fmt.Errorf("histstore: recover %s: %w", path, err)
		}
		if torn > 0 {
			s.tornBytes.Add(torn)
		}
		if sg == nil {
			continue // not even a whole header: file removed
		}
		sg.seq = seq
		if err := sg.writeSidecar(); err != nil {
			return nil, err
		}
		s.sealed = append(s.sealed, sg)
	}
	sort.Slice(s.sealed, func(i, j int) bool { return s.sealed[i].seq < s.sealed[j].seq })
	return s, nil
}

// recoverSegment scans an unsealed segment, truncating everything after
// the last whole valid frame, and returns its rebuilt index.
func recoverSegment(path string) (*segment, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	sg := &segment{path: path, sealed: true, sensors: make(map[string]struct{})}
	fs, err := newFrameScanner(f, fi.Size())
	if err != nil {
		f.Close()
		if fi.Size() < int64(len(segMagic)) {
			// The header never landed: the whole file is a torn write.
			return nil, fi.Size(), os.Remove(path)
		}
		return nil, 0, err
	}
	defer fs.release()
	for {
		sensor, recs, err := fs.next()
		if err == io.EOF || err == errTorn {
			break
		}
		if err != nil {
			f.Close()
			return nil, 0, err
		}
		sg.noteBatch(sensor, recs, 0)
	}
	f.Close()
	torn := fi.Size() - fs.valid
	if torn > 0 {
		if err := os.Truncate(path, fs.valid); err != nil {
			return nil, 0, err
		}
	}
	sg.bytes = fs.valid
	return sg, torn, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the store's contents and counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{Segments: len(s.sealed)}
	for _, sg := range s.sealed {
		st.Records += sg.recs
		st.Bytes += sg.bytes
	}
	if s.active != nil {
		st.Segments++
		st.Records += s.active.recs
		st.Bytes += s.active.bytes
	}
	s.mu.Unlock()
	st.AppendBatches = s.appendBatches.Load()
	st.SegmentOpens = s.segmentOpens.Load()
	st.TornBytes = s.tornBytes.Load()
	st.PrunedSegments = s.prunedSegs.Load()
	st.RawFrames = s.rawFrames.Load()
	return st
}

// Append archives one record published under sensor.
func (s *Store) Append(sensor string, rec ulm.Record) error {
	one := [1]ulm.Record{rec}
	return s.AppendBatch(sensor, one[:])
}

// AppendBatch archives a batch of records published under sensor —
// the batch-native ingest path: the whole batch becomes one
// self-checking frame in the active segment, written with one lock
// acquisition and one write syscall. recs is borrowed, never retained.
// Rolling (by size or age) and retention pruning happen here, between
// batches, so no frame ever spans segments.
func (s *Store) AppendBatch(sensor string, recs []ulm.Record) error {
	if len(recs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.werr != nil {
		return s.werr
	}
	s.buf = appendFrame(s.buf[:0], sensor, recs)
	frameLen := int64(len(s.buf))
	if s.active != nil && s.shouldRollLocked(frameLen) {
		if err := s.sealActiveLocked(); err != nil {
			return err
		}
		s.pruneLocked()
	}
	if s.active == nil {
		if err := s.openActiveLocked(); err != nil {
			return err
		}
	}
	n, err := s.f.Write(s.buf)
	if err != nil || n != len(s.buf) {
		// A partial frame may be on disk. Cut it back — and rewind the
		// write offset, which the partial write advanced (the file is
		// not O_APPEND) and Truncate does not move — so the next append
		// cannot land after garbage or leave a zero-filled hole; if the
		// repair fails the store is wedged and says so on every call
		// rather than corrupting silently.
		terr := s.f.Truncate(s.active.bytes)
		if terr == nil {
			_, terr = s.f.Seek(s.active.bytes, io.SeekStart)
		}
		if terr != nil {
			s.werr = fmt.Errorf("histstore: write failed (%v) and repair failed (%v): store wedged", err, terr)
			return s.werr
		}
		if err == nil {
			err = io.ErrShortWrite
		}
		return err
	}
	if s.opts.Sync {
		if err := s.f.Sync(); err != nil {
			return err
		}
	}
	if s.active.firstAppend.IsZero() {
		s.active.firstAppend = s.now() //jamm:lock-ok clock accessor; injected for tests, never blocks
	}
	s.active.noteBatch(sensor, recs, frameLen)
	s.appendBatches.Add(1)
	return nil
}

func (s *Store) shouldRollLocked(frameLen int64) bool {
	if s.active.bytes > int64(len(segMagic)) && s.active.bytes+frameLen > s.opts.MaxSegmentBytes {
		return true
	}
	if s.opts.MaxSegmentAge > 0 && !s.active.firstAppend.IsZero() &&
		s.now().Sub(s.active.firstAppend) >= s.opts.MaxSegmentAge {
		return true
	}
	return false
}

// openActiveLocked starts a fresh active segment.
func (s *Store) openActiveLocked() error {
	seq := s.nextSeq
	path := filepath.Join(s.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		os.Remove(path) //nolint:errcheck
		return err
	}
	s.nextSeq++
	s.f = f
	s.active = &segment{seq: seq, path: path, bytes: int64(len(segMagic)),
		sensors: make(map[string]struct{})}
	return nil
}

// sealActiveLocked closes the active segment and persists its index
// sidecar, making it immutable.
func (s *Store) sealActiveLocked() error {
	if s.active == nil {
		return nil
	}
	if s.opts.Sync {
		if err := s.f.Sync(); err != nil {
			return err
		}
	}
	if err := s.f.Close(); err != nil {
		return err
	}
	s.active.sealed = true
	if err := s.active.writeSidecar(); err != nil {
		return err
	}
	s.sealed = append(s.sealed, s.active)
	s.active, s.f = nil, nil
	return nil
}

// Roll seals the active segment now (a fresh one starts on the next
// append). Mostly for tests and operational snapshots.
func (s *Store) Roll() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.sealActiveLocked()
}

// Prune applies the retention policy, removing whole sealed segments
// that are older than RetainAge or beyond the RetainBytes budget
// (oldest first; the active segment is never pruned). It returns how
// many segments were removed.
func (s *Store) Prune() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	return s.pruneLocked(), nil
}

func (s *Store) pruneLocked() int {
	removed := 0
	if s.opts.RetainAge > 0 {
		cutoff := s.now().Add(-s.opts.RetainAge)
		for len(s.sealed) > 0 && !s.sealed[0].maxT.IsZero() && s.sealed[0].maxT.Before(cutoff) {
			if !s.removeOldestLocked() {
				break
			}
			removed++
		}
	}
	if s.opts.RetainBytes > 0 {
		total := int64(0)
		for _, sg := range s.sealed {
			total += sg.bytes
		}
		if s.active != nil {
			total += s.active.bytes
		}
		for len(s.sealed) > 0 && total > s.opts.RetainBytes {
			n := s.sealed[0].bytes
			if !s.removeOldestLocked() {
				break
			}
			total -= n
			removed++
		}
	}
	return removed
}

func (s *Store) removeOldestLocked() bool {
	sg := s.sealed[0]
	if err := os.Remove(sg.path); err != nil {
		return false
	}
	os.Remove(idxPath(sg.path)) //nolint:errcheck
	s.sealed = s.sealed[1:]
	s.prunedSegs.Add(1)
	return true
}

// Query returns matching records sorted by timestamp (stable, so one
// sensor's same-stamp records keep emission order). For result sets
// too large to hold, use Replay.
func (s *Store) Query(q Query) ([]Entry, error) {
	var out []Entry
	err := s.Replay(q, 0, func(sensor string, recs []ulm.Record) error {
		for i := range recs {
			out = append(out, Entry{Sensor: sensor, Rec: recs[i].Clone()})
		}
		return nil
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].Rec.Date.Before(out[j].Rec.Date) })
	return out, err
}

// Replay streams matching records in archive (arrival) order as
// per-sensor batches of up to batchMax records (<= 0 selects 256) —
// the historical→live handoff. Only segments whose sparse index
// overlaps the query's time range and sensor are opened. The batch
// slice is borrowed: valid only during the callback. A callback error
// stops the replay and is returned.
func (s *Store) Replay(q Query, batchMax int, fn func(sensor string, recs []ulm.Record) error) error {
	if batchMax <= 0 {
		batchMax = 256
	}
	for _, src := range s.matchingSegments(q) {
		if err := s.replaySegment(src, q, batchMax, fn); err != nil {
			return err
		}
	}
	return nil
}

// ReplayBus replays matching records into a bus, re-publishing each
// batch under its original sensor topic — history feeding the live
// delivery plane. It returns how many records were published.
func (s *Store) ReplayBus(q Query, b *bus.Bus, batchMax int) (int, error) {
	n := 0
	err := s.Replay(q, batchMax, func(sensor string, recs []ulm.Record) error {
		b.PublishBatch(sensor, recs)
		n += len(recs)
		return nil
	})
	return n, err
}

// segSource is a read snapshot of one matching segment: its path plus
// the committed byte limit (sealed segments are immutable; the active
// segment is read up to the bytes committed at snapshot time) and the
// index's record-time bounds, which ReplayFrames uses to decide
// whether the segment's frames can replay raw.
type segSource struct {
	path       string
	limit      int64
	minT, maxT time.Time
}

// within reports whether every record in the segment lies inside the
// half-open [from, to) query range — the condition under which its
// frames need no per-record date check.
func (src segSource) within(from, to time.Time) bool {
	if !from.IsZero() && src.minT.Before(from) {
		return false
	}
	if !to.IsZero() && !src.maxT.Before(to) {
		return false
	}
	return true
}

// matchingSegments snapshots, under the lock, the segments whose
// sparse index overlaps the query — the index pruning that keeps query
// cost proportional to the answer, not the archive.
func (s *Store) matchingSegments(q Query) []segSource {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []segSource
	for _, sg := range s.sealed {
		if sg.overlaps(q.From, q.To) && sg.carries(q.Sensor) {
			out = append(out, segSource{path: sg.path, limit: sg.bytes, minT: sg.minT, maxT: sg.maxT})
		}
	}
	if s.active != nil && s.active.overlaps(q.From, q.To) && s.active.carries(q.Sensor) {
		out = append(out, segSource{path: s.active.path, limit: s.active.bytes, minT: s.active.minT, maxT: s.active.maxT})
	}
	return out
}

// ReplayFrames streams matching archive frames, preferring the raw
// form: when the query needs no per-record filtering of a segment's
// frames — no event or level filters, and the segment's record-time
// bounds lie entirely inside [From, To) — each of its frames is handed
// to raw as (sensor, declared record count, stored ULM-binary record
// bytes) without decoding a single record body; the sensor filter
// still applies (frame-granular, via the frame head). Everything else
// decodes and flows through cooked in per-sensor batches of up to
// batchMax, exactly like Replay. The raw bytes are borrowed: valid
// only during the callback. Wire protocol v2 splices raw frames
// straight back onto the wire — history replay at disk read speed.
func (s *Store) ReplayFrames(q Query, batchMax int, raw func(sensor string, count int, recBytes []byte) error, cooked func(sensor string, recs []ulm.Record) error) error {
	if batchMax <= 0 {
		batchMax = 256
	}
	for _, src := range s.matchingSegments(q) {
		if len(q.Events) == 0 && len(q.Lvls) == 0 && src.within(q.From, q.To) {
			if err := s.replaySegmentRaw(src, q, raw); err != nil {
				return err
			}
			continue
		}
		if err := s.replaySegment(src, q, batchMax, cooked); err != nil {
			return err
		}
	}
	return nil
}

// replaySegmentRaw streams one segment's frames to raw undecoded.
func (s *Store) replaySegmentRaw(src segSource, q Query, raw func(string, int, []byte) error) error {
	f, err := os.Open(src.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // pruned between snapshot and open
		}
		return err
	}
	defer f.Close()
	s.segmentOpens.Add(1)
	fs, err := newFrameScanner(f, src.limit)
	if err != nil {
		return err
	}
	defer fs.release()
	fs.filter = q.Sensor
	for {
		sensor, count, rest, err := fs.nextRaw()
		if err == io.EOF {
			return nil
		}
		if err == errTorn {
			return fmt.Errorf("histstore: corrupt frame in %s", src.path)
		}
		if err != nil {
			return err
		}
		s.rawFrames.Add(1)
		if err := raw(sensor, count, rest); err != nil {
			return err
		}
	}
}

// replaySegment streams one segment's matching records to fn in
// per-sensor batches.
func (s *Store) replaySegment(src segSource, q Query, batchMax int, fn func(string, []ulm.Record) error) error {
	f, err := os.Open(src.path)
	if err != nil {
		// Pruned between snapshot and open: the records are gone by
		// policy, not lost by accident.
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	s.segmentOpens.Add(1)
	fs, err := newFrameScanner(f, src.limit)
	if err != nil {
		return err
	}
	defer fs.release()
	fs.filter = q.Sensor
	var batch []ulm.Record
	for {
		sensor, recs, err := fs.next()
		if err == io.EOF {
			return nil
		}
		if err == errTorn {
			return fmt.Errorf("histstore: corrupt frame in %s", src.path)
		}
		if err != nil {
			return err
		}
		batch = batch[:0]
		for i := range recs {
			if !q.matches(&recs[i]) {
				continue
			}
			batch = append(batch, recs[i])
			if len(batch) >= batchMax {
				if err := fn(sensor, batch); err != nil {
					return err
				}
				batch = batch[:0]
			}
		}
		if len(batch) > 0 {
			if err := fn(sensor, batch); err != nil {
				return err
			}
		}
	}
}

// Sync flushes the active segment to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.f == nil {
		return nil
	}
	return s.f.Sync()
}

// Close seals the active segment (persisting its index sidecar) and
// closes the store. Further operations return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.sealActiveLocked()
	s.closed = true
	return err
}
