package benchkit

import "sync/atomic"

// SeqMod is the modulus of the per-sensor SEQ field: sequence numbers
// are 16-bit and wrap.
const SeqMod = 1 << 16

// SeqChecker verifies, for one consumer, that every sensor's records
// arrive as the unbroken sequence 0, 1, 2, … (mod SeqMod). Anything
// else is classified and counted: a forward jump is a gap (records
// lost before this consumer), a repeat of the previous number is a
// duplicate, any other backward step is a reorder. It is not safe for
// concurrent use; a consumer serialises its own deliveries.
type SeqChecker struct {
	next []int32 // per sensor: the SEQ expected next

	Seen       uint64 // records observed
	Gaps       uint64 // forward jumps
	GapRecords uint64 // records those jumps skipped
	Dups       uint64
	Reorders   uint64
}

// NewSeqChecker returns a checker for sensors numbered 0..sensors-1,
// each expected to start at SEQ 0.
func NewSeqChecker(sensors int) *SeqChecker {
	return &SeqChecker{next: make([]int32, sensors)}
}

// Observe records that sensor delivered seq.
func (c *SeqChecker) Observe(sensor, seq int) {
	c.Seen++
	want := int(c.next[sensor])
	switch d := (seq - want + SeqMod) % SeqMod; {
	case d == 0:
		c.next[sensor] = int32((seq + 1) % SeqMod)
	case d < SeqMod/2:
		c.Gaps++
		c.GapRecords += uint64(d)
		c.next[sensor] = int32((seq + 1) % SeqMod)
	case d == SeqMod-1:
		c.Dups++
	default:
		c.Reorders++
	}
}

// Clean reports whether no duplicate or reorder was seen, and — unless
// gapsAllowed, as in a phase that sheds on purpose — no gap either.
func (c *SeqChecker) Clean(gapsAllowed bool) bool {
	return c.Dups == 0 && c.Reorders == 0 && (gapsAllowed || c.Gaps == 0)
}

// Tracker is the side table that turns deliveries into completions.
// The generator sends whole runs — RunLen records of one sensor with
// consecutive SEQ, the first a multiple of RunLen — and notes each
// run's due time here; consumers report what they received; a run is
// fully delivered once Need consumers have each seen all of it (1 for
// a chain, the consumer count for a fan-out, k for a replicated site).
// The table is keyed (sensor, run index mod a power of two): it needs
// to be only as deep as the runs one sensor can have in flight.
type Tracker struct {
	RunLen int
	Need   int

	mask  int
	slots [][]slot

	done atomic.Int64 // records fully delivered
}

type slot struct {
	due  atomic.Int64
	seen atomic.Int32
}

// NewTracker sizes a table of depth runs (rounded up to a power of
// two) per sensor.
func NewTracker(sensors, runLen, need, depth int) *Tracker {
	d := 1
	for d < depth {
		d <<= 1
	}
	t := &Tracker{RunLen: runLen, Need: need, mask: d - 1, slots: make([][]slot, sensors)}
	for i := range t.slots {
		t.slots[i] = make([]slot, d)
	}
	return t
}

func (t *Tracker) slot(sensor, seq int) *slot {
	return &t.slots[sensor][(seq/t.RunLen)&t.mask]
}

// Offer notes that the run of sensor starting at seq is due at due.
// Call it before the run is published.
func (t *Tracker) Offer(sensor, seq int, due int64) {
	s := t.slot(sensor, seq)
	s.seen.Store(0)
	s.due.Store(due)
}

// Deliver reports that one consumer received n consecutive records of
// sensor starting at seq, all inside one run. When that completes the
// run it returns true and the run's due time.
func (t *Tracker) Deliver(sensor, seq, n int) (complete bool, due int64) {
	s := t.slot(sensor, seq)
	if int(s.seen.Add(int32(n))) != t.Need*t.RunLen {
		return false, 0
	}
	t.done.Add(int64(t.RunLen))
	return true, s.due.Load()
}

// Due returns the due time noted for the run holding seq.
func (t *Tracker) Due(sensor, seq int) int64 { return t.slot(sensor, seq).due.Load() }

// Done returns the records fully delivered so far.
func (t *Tracker) Done() int64 { return t.done.Load() }
