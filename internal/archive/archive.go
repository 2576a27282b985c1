// Package archive implements the JAMM event archive (§2.2): a store of
// historical event data for "historical analysis of system performance,
// and determine when/where changes occurred". The paper's design point
// is that the archive is just another consumer, and that "while it may
// not be desirable to archive all monitoring data, it is necessary to
// archive a good sampling of both normal and abnormal system
// operation" — so the store applies a sampling policy: abnormal events
// (by severity level) are always kept, normal events are sampled.
package archive

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"jamm/internal/ulm"
)

// Policy selects what gets archived.
type Policy struct {
	// SampleEvery keeps one of every N normal records (1 = keep all,
	// 10 = keep 10%). Zero means keep all.
	SampleEvery int
	// KeepLevels lists severity levels that bypass sampling; nil means
	// DefaultKeepLevels (abnormal operation is always archived).
	KeepLevels []string
}

// DefaultKeepLevels are the severities always archived.
var DefaultKeepLevels = []string{
	ulm.LvlEmergency, ulm.LvlAlert, ulm.LvlError, ulm.LvlWarning, ulm.LvlSecurity,
}

// Query selects records from the store. Zero fields match everything.
type Query struct {
	// From/To bound the DATE field (inclusive from, exclusive to).
	From, To time.Time
	// Hosts restricts to records from these hosts.
	Hosts []string
	// Events restricts to these event types.
	Events []string
	// Lvls restricts to these severity levels.
	Lvls []string
}

func (q Query) matches(r ulm.Record) bool {
	if !q.From.IsZero() && r.Date.Before(q.From) {
		return false
	}
	if !q.To.IsZero() && !r.Date.Before(q.To) {
		return false
	}
	if len(q.Hosts) > 0 && !contains(q.Hosts, r.Host) {
		return false
	}
	if len(q.Events) > 0 && !contains(q.Events, r.Event) {
		return false
	}
	if len(q.Lvls) > 0 && !contains(q.Lvls, r.Lvl) {
		return false
	}
	return true
}

func contains(list []string, v string) bool {
	for _, s := range list {
		if s == v {
			return true
		}
	}
	return false
}

// Stats summarize the archive contents, for the archive's own directory
// service entry ("creates an archive directory service entry indicating
// the contents of the archive").
type Stats struct {
	Kept    int
	Dropped int
	Hosts   []string
	Events  []string
	First   time.Time
	Last    time.Time
}

// Store is an in-memory event archive with a sampling policy. It is
// safe for concurrent use. Records are kept in arrival order; queries
// return them sorted by timestamp.
type Store struct {
	mu      sync.RWMutex
	policy  Policy
	keep    map[string]bool
	recs    []ulm.Record
	normal  int // normal records seen, for sampling
	dropped int
}

// NewStore returns an empty archive with the given policy.
func NewStore(policy Policy) *Store {
	levels := policy.KeepLevels
	if levels == nil {
		levels = DefaultKeepLevels
	}
	keep := make(map[string]bool, len(levels))
	for _, l := range levels {
		keep[l] = true
	}
	return &Store{policy: policy, keep: keep}
}

// Append offers a record to the archive and reports whether it was
// kept.
func (s *Store) Append(rec ulm.Record) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(rec)
}

// AppendBatch offers a batch of records under one lock acquisition —
// the bulk-ingest path for batch consumers of the event bus. It returns how many records were kept. The sampling
// policy is applied per record, exactly as repeated Append calls would.
func (s *Store) AppendBatch(recs []ulm.Record) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := 0
	for i := range recs {
		if s.appendLocked(recs[i]) {
			kept++
		}
	}
	return kept
}

func (s *Store) appendLocked(rec ulm.Record) bool {
	if !s.keep[rec.Lvl] {
		s.normal++
		if s.policy.SampleEvery > 1 && (s.normal-1)%s.policy.SampleEvery != 0 {
			s.dropped++
			return false
		}
	}
	s.recs = append(s.recs, rec.Clone())
	return true
}

// Len returns the number of archived records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// Query returns matching records sorted by timestamp.
func (s *Store) Query(q Query) []ulm.Record {
	s.mu.RLock()
	var out []ulm.Record
	for _, r := range s.recs {
		if q.matches(r) {
			out = append(out, r.Clone())
		}
	}
	s.mu.RUnlock()
	ulm.SortByDate(out)
	return out
}

// Stats summarizes the archive.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{Kept: len(s.recs), Dropped: s.dropped}
	hosts := make(map[string]bool)
	events := make(map[string]bool)
	for _, r := range s.recs {
		hosts[r.Host] = true
		if r.Event != "" {
			events[r.Event] = true
		}
		if st.First.IsZero() || r.Date.Before(st.First) {
			st.First = r.Date
		}
		if r.Date.After(st.Last) {
			st.Last = r.Date
		}
	}
	for h := range hosts {
		st.Hosts = append(st.Hosts, h)
	}
	for e := range events {
		st.Events = append(st.Events, e)
	}
	sort.Strings(st.Hosts)
	sort.Strings(st.Events)
	return st
}

// WriteTo streams the archive as ULM lines, sorted by timestamp, so
// archived periods can be replayed through nlv ("historical browsing
// and playback of interesting time periods", §4.5).
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	recs := s.Query(Query{})
	var total int64
	for i := range recs {
		n, err := fmt.Fprintln(w, recs[i].String())
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Load appends records from a ULM stream (a previously written
// archive).
func (s *Store) Load(r io.Reader) (int, error) {
	recs, err := ulm.ReadAll(r)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range recs {
		s.recs = append(s.recs, recs[i])
	}
	return len(recs), nil
}
