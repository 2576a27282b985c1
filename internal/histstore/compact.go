package histstore

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"jamm/internal/ulm"
)

// This file is the anti-entropy face of the archive: the coverage
// index replicas compare to find gaps, the last-event lookup the
// gateway query path falls back to when its in-memory cache has been
// lost to a restart, and the compaction pass that merges the small
// segments restart churn and gap backfill leave behind.

// Span describes one segment's record-time coverage: the half-open
// bounds of the records it holds and how many there are. A replica
// compares its spans against the primary's to decide whether its
// archive is missing a stretch of history. Records counts the whole
// segment — the sparse index tracks which sensors a segment carries,
// not per-sensor record counts — so sensor-scoped coverage is an
// over-approximation, which is the safe direction for gap detection.
type Span struct {
	From    time.Time `json:"from"`
	To      time.Time `json:"to"`
	Records int64     `json:"records"`
}

// Coverage returns the store's record-time coverage as one Span per
// non-empty segment carrying sensor ("" = all sensors), sorted by
// start time.
func (s *Store) Coverage(sensor string) []Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Span
	add := func(sg *segment) {
		if sg.recs == 0 || !sg.carries(sensor) {
			return
		}
		out = append(out, Span{From: sg.minT, To: sg.maxT, Records: sg.recs})
	}
	for _, sg := range s.sealed {
		add(sg) //jamm:lock-ok add is a local accumulator closure defined above; touches only locals
	}
	if s.active != nil {
		add(s.active) //jamm:lock-ok add is a local accumulator closure defined above; touches only locals
	}
	sort.Slice(out, func(i, j int) bool { return out[i].From.Before(out[j].From) })
	return out
}

// LastEvent returns the most recent archived record of the given
// event type ("" = any event) published under sensor. It is the
// history-backed fallback behind the gateway's last-event cache: after
// a crash or failover the cache is empty, but the archive still knows
// the sensor's last reading. Later-archived wins among equal dates, so
// a re-emitted reading shadows the original just as it would in the
// live cache.
func (s *Store) LastEvent(sensor, event string) (ulm.Record, bool, error) {
	q := Query{Sensor: sensor}
	if event != "" {
		q.Events = []string{event}
	}
	var best ulm.Record
	found := false
	err := s.Replay(q, 256, func(_ string, recs []ulm.Record) error {
		for i := range recs {
			if !found || !recs[i].Date.Before(best.Date) {
				best = recs[i].Clone()
				found = true
			}
		}
		return nil
	})
	if err != nil {
		return ulm.Record{}, false, err
	}
	return best, found, nil
}

// maxCompactRun bounds one rewritten frame during compaction.
const maxCompactRun = 512

// Compact merges the store's sealed segments into fresh ones with the
// records re-sorted by record time — the cleanup pass anti-entropy
// runs after gap backfill, when restart churn and out-of-order
// replication have left many small, time-interleaved segments whose
// overlapping sparse indexes defeat query pruning. The active segment
// is sealed first so the whole archive participates. New segments are
// fully written (with sidecars) before any old file is removed, so a
// crash mid-compaction leaves a readable archive: either the old
// segments, or — worst case — both generations, never neither.
// Compaction holds the store lock throughout; concurrent replays keep
// reading removed files safely (snapshot semantics), but appends block.
// It returns the net reduction in segment count.
func (s *Store) Compact() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.werr != nil {
		return 0, s.werr
	}
	if err := s.sealActiveLocked(); err != nil {
		return 0, err
	}
	if len(s.sealed) < 2 {
		return 0, nil
	}
	olds := s.sealed

	// Decode every record from every sealed segment and sort globally
	// by record time (stable: same-stamp records keep archive order).
	var all []Entry
	for _, sg := range olds {
		if err := readSegmentEntries(sg, &all); err != nil {
			return 0, err
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Rec.Date.Before(all[j].Rec.Date) })

	news, err := s.writeCompactedLocked(all)
	if err != nil {
		// Roll back the half-written generation; the old one is intact.
		for _, sg := range news {
			os.Remove(sg.path)          //nolint:errcheck
			os.Remove(idxPath(sg.path)) //nolint:errcheck
		}
		return 0, err
	}

	for _, sg := range olds {
		os.Remove(sg.path)          //nolint:errcheck
		os.Remove(idxPath(sg.path)) //nolint:errcheck
	}
	s.sealed = news
	return len(olds) - len(news), nil
}

// readSegmentEntries decodes all of one sealed segment's records.
func readSegmentEntries(sg *segment, out *[]Entry) error {
	f, err := os.Open(sg.path)
	if err != nil {
		return err
	}
	defer f.Close()
	fs, err := newFrameScanner(f, sg.bytes)
	if err != nil {
		return err
	}
	defer fs.release()
	for {
		sensor, recs, err := fs.next()
		if err == io.EOF {
			return nil
		}
		if err == errTorn {
			return fmt.Errorf("histstore: corrupt frame in %s", sg.path)
		}
		if err != nil {
			return err
		}
		for i := range recs {
			*out = append(*out, Entry{Sensor: sensor, Rec: recs[i].Clone()})
		}
	}
}

// writeCompactedLocked writes the sorted entries into a fresh
// generation of sealed segments (consuming sequence numbers from
// nextSeq), returning them. On error the caller removes whatever was
// written.
func (s *Store) writeCompactedLocked(all []Entry) ([]*segment, error) {
	var (
		news []*segment
		cur  *segment
		f    *os.File
		buf  []byte
	)
	sealCur := func() error {
		if cur == nil {
			return nil
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		cur.sealed = true
		if err := cur.writeSidecar(); err != nil {
			return err
		}
		cur, f = nil, nil
		return nil
	}
	flushRun := func(sensor string, recs []ulm.Record) error {
		buf = appendFrame(buf[:0], sensor, recs)
		frameLen := int64(len(buf))
		if cur != nil && cur.bytes > int64(len(segMagic)) && cur.bytes+frameLen > s.opts.MaxSegmentBytes {
			if err := sealCur(); err != nil {
				return err
			}
		}
		if cur == nil {
			seq := s.nextSeq
			path := filepath.Join(s.dir, segName(seq))
			nf, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
			if err != nil {
				return err
			}
			if _, err := nf.Write([]byte(segMagic)); err != nil {
				nf.Close()
				os.Remove(path) //nolint:errcheck
				return err
			}
			s.nextSeq++
			f = nf
			cur = &segment{seq: seq, path: path, bytes: int64(len(segMagic)),
				sensors: make(map[string]struct{})}
			// Registered up front so an error path rolls back every
			// file this generation created, sealed or not.
			news = append(news, cur)
		}
		if n, err := f.Write(buf); err != nil || n != len(buf) {
			f.Close()
			if err == nil {
				err = io.ErrShortWrite
			}
			return err
		}
		cur.noteBatch(sensor, recs, frameLen)
		return nil
	}

	// Re-frame as per-sensor runs of consecutive (time-sorted) entries.
	var run []ulm.Record
	runSensor := ""
	for i := range all {
		if all[i].Sensor != runSensor || len(run) >= maxCompactRun {
			if len(run) > 0 {
				if err := flushRun(runSensor, run); err != nil {
					return news, err
				}
			}
			run = run[:0]
			runSensor = all[i].Sensor
		}
		run = append(run, all[i].Rec)
	}
	if len(run) > 0 {
		if err := flushRun(runSensor, run); err != nil {
			return news, err
		}
	}
	if err := sealCur(); err != nil {
		return news, err
	}
	return news, nil
}
