// Package benchkit holds the load-generation and measurement primitives
// cmd/jammbench is built on. Nothing here knows about gateways: it is
// the arithmetic of a benchmark — when records are due, how many may be
// in flight, which sequence numbers arrived, how windows turn into one
// reported number, how spans nest — kept apart from the wiring so each
// piece is unit-tested with hand-advanced time (benchkit_test.go).
//
// All times are int64 nanoseconds on one monotonic clock whose zero is
// the harness's start (Clock.Now), never wall-clock instants: latency is
// a difference of two readings of that clock, so NTP steps cannot show
// up in a result.
package benchkit

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// WallClock is the harness's clock: nanoseconds since it was created.
type WallClock struct{ origin time.Time }

// NewWallClock starts a clock at zero.
func NewWallClock() *WallClock { return &WallClock{origin: time.Now()} }

// Now returns the monotonic time elapsed since the clock was created.
func (c *WallClock) Now() int64 { return int64(time.Since(c.origin)) }

// Of converts a wall-clock reading (one that carries a monotonic part)
// into this clock's time, so one time.Now serves a record's DATE and
// its due time.
func (c *WallClock) Of(t time.Time) int64 { return int64(t.Sub(c.origin)) }

// Pacer is the open-loop schedule of one generator: Rate records per
// second in runs of RunLen, released on a fixed Tick grid. Every run
// scheduled in a tick is due at the tick instant, whenever the
// generator actually gets to run — so a stalled generator shows up as
// latency on the records it delayed (no coordinated omission) and as
// lateness in Late. When the generator wakes behind schedule it may
// release at most CatchUp times the nominal volume for the time that
// passed since its previous wake; ticks beyond that stay due at their
// original instants and go out on later wakes.
type Pacer struct {
	Rate    float64       // records per second
	RunLen  int           // records per run
	Tick    time.Duration // schedule grid (1ms)
	CatchUp int           // burst cap, as a multiple of nominal (2)

	start    int64   // instant of tick 0
	next     int64   // index of the next tick not yet released
	lastWake int64   // tick index reached by the previous wake
	acc      float64 // fractional runs carried between ticks

	// Late holds one lateness sample (release time minus due time, ns)
	// per released tick that carried at least one run.
	Late []int64
}

// Start anchors tick 0 at now and clears the lateness log (keeping its
// capacity, so a phase's samples never allocate).
func (p *Pacer) Start(now int64) {
	p.start, p.next, p.lastWake, p.acc = now, 0, 0, 0
	p.Late = p.Late[:0]
}

// Wake releases every tick that has come due by now, within the
// catch-up cap, calling emit(due, runs) once per tick that carries
// runs. It returns the number of runs released. Call Start first.
func (p *Pacer) Wake(now int64, emit func(due int64, runs int)) int {
	tick := int64(p.Tick)
	reached := (now - p.start) / tick // last tick whose instant has passed
	budget := max(int64(p.CatchUp)*(reached-p.lastWake), int64(p.CatchUp))
	p.lastWake = reached
	perTick := p.Rate * p.Tick.Seconds() / float64(p.RunLen)
	total := 0
	for ; p.next <= reached && budget > 0; p.next++ {
		budget--
		p.acc += perTick
		runs := int(p.acc)
		if runs == 0 {
			continue
		}
		p.acc -= float64(runs)
		due := p.start + p.next*tick
		p.Late = append(p.Late, now-due)
		emit(due, runs)
		total += runs
	}
	return total
}

// Credits is the closed-loop window: a generator may send a run only
// while the records in flight plus that run stay within Limit. Acquire
// blocks on a condition variable, not a sleep, because the host's
// sleep granularity (~1ms) is far coarser than a credit round trip.
type Credits struct {
	Limit int

	mu      sync.Mutex
	cond    *sync.Cond
	flight  int
	max     int
	stopped bool
}

// NewCredits returns a window of limit records.
func NewCredits(limit int) *Credits {
	c := &Credits{Limit: limit}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Acquire waits until n more records fit in the window and takes them.
// It returns false once Stop has been called.
func (c *Credits) Acquire(n int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.stopped && c.flight+n > c.Limit {
		c.cond.Wait()
	}
	if c.stopped {
		return false
	}
	c.flight += n
	if c.flight > c.max {
		c.max = c.flight
	}
	return true
}

// Release returns n delivered records to the window.
func (c *Credits) Release(n int) {
	c.mu.Lock()
	c.flight -= n
	c.mu.Unlock()
	c.cond.Broadcast()
}

// Stop makes every current and future Acquire return false.
func (c *Credits) Stop() {
	c.mu.Lock()
	c.stopped = true
	c.mu.Unlock()
	c.cond.Broadcast()
}

// InFlight returns the records currently in the window; MaxInFlight
// the most it ever held.
func (c *Credits) InFlight() int { c.mu.Lock(); defer c.mu.Unlock(); return c.flight }

// MaxInFlight returns the high-water mark of the window.
func (c *Credits) MaxInFlight() int { c.mu.Lock(); defer c.mu.Unlock(); return c.max }

// CPUSeconds returns the user+system CPU time this process has used.
func CPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// Allocs returns the process's cumulative heap allocation counters
// without stopping the world.
func Allocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// Snapshot is the process-wide state read at a window boundary.
type Snapshot struct {
	T          int64   // clock reading, ns
	Done       int64   // records fully delivered so far
	CPU        float64 // CPUSeconds
	AllocObjs  uint64
	AllocBytes uint64
}

// Snap reads a Snapshot with done as the delivered-record count.
func Snap(c *WallClock, done int64) Snapshot {
	o, b := Allocs()
	return Snapshot{T: c.Now(), Done: done, CPU: CPUSeconds(), AllocObjs: o, AllocBytes: b}
}
