package main

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"jamm/internal/benchkit"
	"jamm/internal/ulm"
)

// Field names the harness relies on. SEQ is always the first user
// field; VAL, where a workload has one, the second.
const (
	seqField = "SEQ"
	valField = "VAL"
	eventE   = "E" // the event every live record carries
	eventF   = "F" // second event type, in the preloaded archive only
	valRange = 1024

	hashPrime = 1099511628211 // FNV-1 64-bit prime, for the order-sensitive hash of delivered SEQs
)

// seqStr and valStr are every SEQ and VAL value as a string, built
// once, so patching a record allocates nothing.
var seqStr, valStr = func() (s, v []string) {
	s = make([]string, benchkit.SeqMod)
	for i := range s {
		s[i] = strconv.Itoa(i)
	}
	return s, s[:valRange]
}()

// sensorName and hostName give sensor i its topic and HOST; topics
// follow the sensor@host convention gateways parse.
func hostName(i int) string   { return fmt.Sprintf("h%03d.jamm", i) }
func sensorName(i int) string { return fmt.Sprintf("s%03d@%s", i, hostName(i)) }

// sensorGen is the generator's state for one sensor.
type sensorGen struct {
	name string
	seq  int // SEQ of the next record
	val  int // random-walk position of VAL

	// runs double-buffers the sensor's run: an in-process gateway keeps
	// the last record of the batch it was handed (the last-event cache)
	// until the next batch replaces it, so the buffer handed out last
	// time must stay untouched for one more call.
	runs [2][]ulm.Record
	flip int

	// What a DeliverOnChange filter on VAL lets through, computed here
	// at the source as the reference the gateway's output is compared
	// with: how many records, and a hash of their SEQs in order.
	lastVal    int
	changes    atomic.Int64
	changeHash uint64

	sent atomic.Int64 // records produced
}

// source builds the records of one generator goroutine: pre-built
// templates in which only DATE, SEQ and (where present) VAL change per
// send.
type source struct {
	sensors []sensorGen
	index   []int // sensor numbers this source owns, for round-robin
	cursor  int
	walk    bool         // records carry a VAL that random-walks
	rng     uint64       // xorshift64 state, from the seed
	offered atomic.Int64 // records handed out
}

// newSource builds the templates for the sensors in index (numbers into
// the workload's sensor space).
func newSource(w *workload, index []int, seed uint64) *source {
	s := &source{index: index, walk: w.Fields >= 2, rng: seed*0x9e3779b97f4a7c15 | 1}
	s.sensors = make([]sensorGen, w.Sensors)
	for _, i := range index {
		g := &s.sensors[i]
		g.name = sensorName(i)
		g.val = int(s.rand() % valRange)
		g.lastVal = -1
		for b := range g.runs {
			g.runs[b] = make([]ulm.Record, w.RunLen)
			for r := range g.runs[b] {
				g.runs[b][r] = templateRecord(i, w.Fields)
			}
		}
	}
	return s
}

// templateRecord is sensor i's record with its static fields filled in:
// SEQ, then VAL, then filler fields sized so a 12-field record encodes
// to about 250 bytes.
func templateRecord(i, fields int) ulm.Record {
	rec := ulm.Record{Host: hostName(i), Prog: "jamm.bench", Lvl: ulm.LvlUsage, Event: eventE}
	rec.Fields = make([]ulm.Field, 0, fields)
	rec.Fields = append(rec.Fields, ulm.Field{Key: seqField, Value: "0"})
	if fields >= 2 {
		rec.Fields = append(rec.Fields, ulm.Field{Key: valField, Value: "0"})
	}
	for f := 2; f < fields; f++ {
		rec.Fields = append(rec.Fields, ulm.Field{Key: fmt.Sprintf("F%02d", f), Value: fmt.Sprintf("v%02d-%08d", f, i*1000+f)})
	}
	return rec
}

func (s *source) rand() uint64 {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return s.rng
}

// nextSensor returns the sensor whose turn it is.
func (s *source) nextSensor() int {
	i := s.index[s.cursor]
	s.cursor++
	if s.cursor == len(s.index) {
		s.cursor = 0
	}
	return i
}

// run patches and returns sensor i's next run, stamped now, together
// with the SEQ of its first record. The slice is valid until the
// second-next call for the same sensor.
func (s *source) run(i int, now time.Time) (recs []ulm.Record, first int) {
	g := &s.sensors[i]
	recs = g.runs[g.flip]
	g.flip ^= 1
	first = g.seq
	for r := range recs {
		rec := &recs[r]
		rec.Date = now
		rec.Fields[0].Value = seqStr[g.seq]
		if s.walk {
			g.val += int(s.rand()%3) - 1
			if g.val < 0 {
				g.val = 0
			} else if g.val >= valRange {
				g.val = valRange - 1
			}
			rec.Fields[1].Value = valStr[g.val]
			if g.val != g.lastVal {
				g.lastVal = g.val
				g.changes.Add(1)
				g.changeHash = g.changeHash*hashPrime + uint64(g.seq)
			}
		}
		g.seq = (g.seq + 1) % benchkit.SeqMod
	}
	g.sent.Add(int64(len(recs)))
	s.offered.Add(int64(len(recs)))
	return recs, first
}

// seqOf reads a record's SEQ: the first user field on every path that
// keeps field order, wherever it is on one that does not.
func seqOf(rec *ulm.Record) (int, bool) {
	v := ""
	if len(rec.Fields) > 0 && rec.Fields[0].Key == seqField {
		v = rec.Fields[0].Value
	} else {
		var ok bool
		if v, ok = rec.Get(seqField); !ok {
			return 0, false
		}
	}
	n := 0
	for i := 0; i < len(v); i++ {
		d := v[i] - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + int(d)
	}
	return n, len(v) > 0 && n < benchkit.SeqMod
}
