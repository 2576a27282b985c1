package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"jamm/internal/benchkit"
	"jamm/internal/telemetry"
	"jamm/internal/ulm"
)

// topology is one workload's system under test: gateways, links and
// consumers, built from exported constructors only.
type topology interface {
	// publish hands one run to the system on behalf of generator g.
	publish(g int, sensor string, recs []ulm.Record) error
	// flush pushes out whatever the sensor side still buffers.
	flush() error
	// drops is every record the system itself counted as lost, at any
	// hop, read from the exported Stats() of each.
	drops() uint64
	// check runs the workload's own output checks once a phase has
	// drained (archive counts, history replies).
	check() error
	// counters reports per-layer counts read from exported Stats().
	counters(into map[string]float64)
	// registries are the metrics registries of the run, one per gateway
	// (and one for a routing client), as an operator would scrape them.
	registries() []*telemetry.Registry
	close()
}

// Phases of a run. A completion in the paced phase is a latency sample.
const (
	phaseIdle int32 = iota
	phasePaced
	phaseWindowed
	phaseShed
)

// harness is one workload's run: sources, the completion tracker, the
// measuring consumers and the topology they are attached to.
type harness struct {
	w     *workload
	clk   *benchkit.WallClock
	srcs  []*source // one per generator goroutine
	track *benchkit.Tracker
	topo  topology
	dir   string   // scratch directory for archives
	tr    *tracing // nil in the untraced pass

	byName map[string]int // topic → sensor number
	byHost map[string]int // record HOST → sensor number

	consumers []*subscriber
	phase     atomic.Int32
	credits   atomic.Pointer[benchkit.Credits]

	sampMu  sync.Mutex
	samples []benchkit.Sample // due → fully delivered, paced phase
}

// newHarness prepares the harness's own tables — sources, lookups, the
// completion table, the sample log; build attaches a topology.
func newHarness(w *workload, seed uint64, ngen int, dir string, tr *tracing) *harness {
	h := &harness{w: w, clk: benchkit.NewWallClock(), dir: dir, tr: tr,
		byName: map[string]int{}, byHost: map[string]int{}}
	for i := 0; i < w.Sensors; i++ {
		h.byName[sensorName(i)] = i
		h.byHost[hostName(i)] = i
	}
	for g := 0; g < ngen; g++ {
		var index []int
		for i := g; i < w.Sensors; i += ngen {
			index = append(index, i)
		}
		h.srcs = append(h.srcs, newSource(w, index, seed+uint64(g)*7919))
	}
	// The completion table is deep enough for the runs one sensor can have
	// in flight even while the shed-check phase overruns every queue.
	h.track = benchkit.NewTracker(w.Sensors, w.RunLen, needOf(w), 1024)
	// Room for every completion of a full-length paced phase at a
	// little over the nominal rate, so logging one never allocates.
	h.samples = make([]benchkit.Sample, 0, int(w.Rate/float64(w.RunLen)*40))
	return h
}

// offered is the number of records the sources have handed out.
func (h *harness) offered() int64 {
	var n int64
	for _, s := range h.srcs {
		n += s.offered.Load()
	}
	return n
}

// gen is the generator state of sensor i.
func (h *harness) gen(i int) *sensorGen { return &h.srcs[i%len(h.srcs)].sensors[i] }

// complete is called by the consumer whose delivery completed a run.
func (h *harness) complete(due, now int64) {
	if h.phase.Load() == phasePaced {
		h.sampMu.Lock()
		h.samples = append(h.samples, benchkit.Sample{T: now, V: now - due, W: int32(h.w.RunLen)})
		h.sampMu.Unlock()
	}
	if c := h.credits.Load(); c != nil {
		c.Release(h.w.RunLen)
	}
}

// subscriberKind says what a measuring subscriber asked the gateway for,
// and so what it should receive.
type subscriberKind int

const (
	kindAll      subscriberKind = iota // DeliverAll: every record of its sensors, in order
	kindOnChange                       // DeliverOnChange on VAL: compared with the reference filter
	kindOpaque                         // any other filter: ordered, counted, not in the ledger
)

// subscriber is one measuring subscriber. Every record it is handed is
// SEQ-checked per sensor; a tracked consumer also reports deliveries to
// the completion tracker.
type subscriber struct {
	name     string
	h        *harness
	kind     subscriberKind
	tracked  bool  // a record is fully delivered once Tracker.Need tracked consumers saw it
	sensors  []int // sensors it subscribed to; nil = all
	spanName int   // span name index in the traced pass

	mu   sync.Mutex
	seq  *benchkit.SeqChecker
	got  int64
	hash []uint64 // per sensor, over delivered SEQs in order (kindOnChange)
}

func (h *harness) newSubscriber(name string, kind subscriberKind, tracked bool, sensors []int) *subscriber {
	c := &subscriber{name: name, h: h, kind: kind, tracked: tracked, sensors: sensors, seq: benchkit.NewSeqChecker(h.w.Sensors)}
	if kind == kindOnChange {
		c.hash = make([]uint64, h.w.Sensors)
	}
	if h.tr != nil {
		c.spanName = h.tr.spanName("consumer." + name)
	}
	h.consumers = append(h.consumers, c)
	return c
}

// expected is how many records the consumer should have been handed by
// now, from what the sources produced; ok is false for a consumer kept
// out of the ledger.
func (c *subscriber) expected() (n int64, ok bool) {
	switch c.kind {
	case kindAll:
		if c.sensors == nil {
			return c.h.offered(), true
		}
		for _, i := range c.sensors {
			n += c.h.gen(i).sent.Load()
		}
		return n, true
	case kindOnChange:
		for _, i := range c.sensors {
			n += c.h.gen(i).changes.Load()
		}
		return n, true
	}
	return 0, false
}

// takeTopic is the callback form that knows the bus topic. Topics that
// are not a workload sensor's (the aggregator's _agg/ output) pass by.
func (c *subscriber) takeTopic(topic string, recs []ulm.Record) {
	if i, ok := c.h.byName[topic]; ok {
		c.take(i, recs)
	}
}

// takeBatch is the callback form that gets records only: a delivered
// batch is one sensor's, identified by its records' HOST.
func (c *subscriber) takeBatch(recs []ulm.Record) {
	if len(recs) == 0 {
		return
	}
	if i, ok := c.h.byHost[recs[0].Host]; ok {
		c.take(i, recs)
	}
}

func (c *subscriber) take(sensor int, recs []ulm.Record) {
	h := c.h
	now := h.clk.Now()
	span := -1
	if h.tr != nil {
		if first, ok := seqOf(&recs[0]); ok {
			span = h.tr.begin(c.spanName, sensor, first, now)
		}
	}
	c.mu.Lock()
	runLen := h.w.RunLen
	run, start, cnt := -1, 0, 0
	for i := range recs {
		seq, ok := seqOf(&recs[i])
		if !ok {
			continue
		}
		c.got++
		c.seq.Observe(sensor, seq)
		if c.hash != nil {
			c.hash[sensor] = c.hash[sensor]*hashPrime + uint64(seq)
		}
		if !c.tracked {
			continue
		}
		if r := seq / runLen; r != run {
			h.deliver(sensor, start, cnt, now)
			run, start, cnt = r, seq, 0
		}
		cnt++
	}
	h.deliver(sensor, start, cnt, now)
	c.mu.Unlock()
	if span >= 0 {
		h.tr.end(span, len(recs))
	}
}

// deliver reports the part of a delivered batch that lies in one run:
// cnt records of sensor from SEQ start on.
func (h *harness) deliver(sensor, start, cnt int, now int64) {
	if cnt == 0 {
		return
	}
	if done, due := h.track.Deliver(sensor, start, cnt); done {
		h.complete(due, now)
	}
}

// ledger sums what every consumer should have received, what they did
// receive, and what the system counted as dropped.
func (h *harness) ledger() (expected, got int64, drops uint64) {
	for _, c := range h.consumers {
		n, ok := c.expected()
		if !ok {
			continue
		}
		expected += n
		c.mu.Lock()
		got += c.got
		c.mu.Unlock()
	}
	return expected, got, h.topo.drops()
}

// quiesce flushes the sensor side and waits until the books balance:
// every record offered is either delivered or counted as dropped. It
// fails if they still do not after the timeout — a record lost without
// a counter.
func (h *harness) quiesce(timeout time.Duration) error {
	if err := h.topo.flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	deadline := time.Now().Add(timeout)
	for {
		exp, got, drops := h.ledger()
		if exp == got+int64(drops) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("conservation violated: offered %d = delivered %d + counted drops %d + %d unaccounted",
				exp, got, drops, exp-got-int64(drops))
		}
		time.Sleep(time.Millisecond)
	}
}

// checkConsumers verifies ordering at every consumer and, when nothing
// was shed, that filtered consumers saw exactly what the reference
// filter at the source let through.
func (h *harness) checkConsumers(shed bool) error {
	for _, c := range h.consumers {
		filtered := c.kind != kindAll
		c.mu.Lock()
		seq, got := *c.seq, c.got
		hash := append([]uint64(nil), c.hash...)
		c.mu.Unlock()
		if !seq.Clean(shed || filtered) {
			return fmt.Errorf("consumer %s: %d gaps (%d records), %d duplicates, %d reorders in %d records",
				c.name, seq.Gaps, seq.GapRecords, seq.Dups, seq.Reorders, got)
		}
		if c.kind != kindOnChange || shed {
			continue
		}
		for _, i := range c.sensors {
			if hash[i] != h.gen(i).changeHash {
				return fmt.Errorf("consumer %s: on-change output for %s differs from the reference filter", c.name, sensorName(i))
			}
		}
	}
	return nil
}

// genStats is what one generator goroutine reports about itself.
type genStats struct {
	late   []int64 // per released tick: release time minus due time
	busyNS int64   // time spent inside publish calls
	err    error
}

// sendRun publishes the next run of generator g, due at due.
func (h *harness) sendRun(g int, due int64, wall time.Time) error {
	src := h.srcs[g]
	i := src.nextSensor()
	recs, first := src.run(i, wall)
	h.track.Offer(i, first, due)
	span := -1
	if h.tr != nil {
		span = h.tr.begin(h.tr.genSpan, i, first, h.clk.Now())
	}
	err := h.topo.publish(g, src.sensors[i].name, recs)
	if span >= 0 {
		h.tr.end(span, len(recs))
	}
	return err
}

// genPaced is the open-loop generator: a 1ms ticker releasing whatever
// the schedule says is due. credits, when not nil, is the in-flight
// ceiling of the measured paced phase: a run that would exceed it waits,
// still due when the schedule said, so a stall anywhere downstream shows
// up as latency on the records behind it instead of overrunning the
// 256-record subscriber queues — on a shared 2-CPU host one stolen CPU
// would otherwise turn every run into a shed test. The shed-check phase
// passes nil and offers its load regardless.
func (h *harness) genPaced(g int, rate float64, credits *benchkit.Credits, stop <-chan struct{}, st *genStats) {
	p := &benchkit.Pacer{Rate: rate, RunLen: h.w.RunLen, Tick: pacerTick, CatchUp: catchUp,
		Late: make([]int64, 0, 64<<10)}
	defer func() { st.late = p.Late }()
	tk := time.NewTicker(pacerTick)
	defer tk.Stop()
	p.Start(h.clk.Now())
	stopped := false
	for !stopped && st.err == nil {
		select {
		case <-stop:
			return
		case <-tk.C:
		}
		wall := time.Now()
		now := h.clk.Of(wall)
		p.Wake(now, func(due int64, runs int) {
			for r := 0; r < runs && !stopped && st.err == nil; r++ {
				if credits != nil && !h.acquire(credits, st) {
					stopped = true
					return
				}
				st.err = h.sendRun(g, due, wall)
			}
		})
		st.busyNS += h.clk.Now() - now
	}
}

// acquire takes one run's worth of credit. A sender about to wait for
// credit first flushes what the sensor side buffers: with nothing more
// to send it does not sit on a partial batch.
func (h *harness) acquire(credits *benchkit.Credits, st *genStats) bool {
	if credits.InFlight()+h.w.RunLen > credits.Limit {
		if st.err = h.topo.flush(); st.err != nil {
			return false
		}
	}
	return credits.Acquire(h.w.RunLen)
}

// genWindowed is the closed-loop generator: send while the credit
// window has room, wait for deliveries to return credit when not.
func (h *harness) genWindowed(g int, credits *benchkit.Credits, stop <-chan struct{}, st *genStats) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		if !h.acquire(credits, st) {
			return
		}
		wall := time.Now()
		now := h.clk.Of(wall)
		if st.err = h.sendRun(g, now, wall); st.err != nil {
			return
		}
		st.busyNS += h.clk.Now() - now
	}
}

// phaseResult is what one phase measured.
type phaseResult struct {
	snaps   []benchkit.Snapshot // window boundaries
	warm    time.Duration       // phase start to the first boundary, as it took
	late    []int64
	busy    float64 // share of the measured time generators spent in publish calls
	offered int64   // records offered in the whole phase, warm-up included
	done    int64   // of those, fully delivered
}

// runPhase drives one phase: start the generators, let warm pass, take
// a snapshot at each window boundary, stop, drain, and check the books.
func (h *harness) runPhase(kind int32, rate float64, warm time.Duration, windows int) (phaseResult, error) {
	var res phaseResult
	offered0, done0 := h.offered(), h.track.Done()
	stop := make(chan struct{})
	stats := make([]genStats, len(h.srcs))
	var credits *benchkit.Credits
	if kind != phaseShed {
		credits = benchkit.NewCredits(creditWindow)
		h.credits.Store(credits)
	}
	h.phase.Store(kind)
	began := h.clk.Now()
	var wg sync.WaitGroup
	for g := range h.srcs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if kind == phaseWindowed {
				h.genWindowed(g, credits, stop, &stats[g])
			} else {
				h.genPaced(g, rate/float64(len(h.srcs)), credits, stop, &stats[g])
			}
		}(g)
	}
	time.Sleep(warm)
	res.snaps = append(res.snaps, benchkit.Snap(h.clk, h.track.Done()))
	res.warm = time.Duration(res.snaps[0].T - began)
	for i := 0; i < windows; i++ {
		time.Sleep(window)
		res.snaps = append(res.snaps, benchkit.Snap(h.clk, h.track.Done()))
	}
	close(stop)
	if credits != nil {
		credits.Stop()
	}
	wg.Wait()
	h.credits.Store(nil)
	var busy int64
	for g := range stats {
		if stats[g].err != nil {
			return res, fmt.Errorf("generator %d: %w", g, stats[g].err)
		}
		res.late = append(res.late, stats[g].late...)
		busy += stats[g].busyNS
	}
	whole := h.clk.Now() - began
	res.busy = float64(busy) / float64(whole) / float64(len(h.srcs))
	shed := kind == phaseShed
	if err := h.quiesce(10 * time.Second); err != nil {
		return res, err
	}
	h.phase.Store(phaseIdle)
	res.offered, res.done = h.offered()-offered0, h.track.Done()-done0
	if err := h.topo.check(); err != nil {
		return res, err
	}
	if err := h.checkConsumers(shed); err != nil {
		return res, err
	}
	if !shed && res.offered != res.done {
		// Not an error here: loss is reported as the failed-operation
		// share and fails the run through it.
		sayf("  ! %d of %d records offered were not fully delivered\n", res.offered-res.done, res.offered)
	}
	return res, nil
}

// warmUp sends one run per sensor through the whole system, inside the
// credit window, and waits until each is fully delivered: every sensor
// registered at every gateway it reaches, every lazy link dialled.
func (h *harness) warmUp() error {
	before := h.track.Done()
	deadline := time.Now().Add(10 * time.Second)
	sent := int64(0)
	wait := func(room int64) error {
		for sent-(h.track.Done()-before) > room {
			if err := h.topo.flush(); err != nil {
				return err
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("warm-up: %d of %d records delivered", h.track.Done()-before, sent)
			}
			time.Sleep(100 * time.Microsecond)
		}
		return nil
	}
	for g, src := range h.srcs {
		for range src.index {
			if err := wait(int64(creditWindow - h.w.RunLen)); err != nil {
				return err
			}
			wall := time.Now()
			if err := h.sendRun(g, h.clk.Of(wall), wall); err != nil {
				return err
			}
			sent += int64(h.w.RunLen)
		}
	}
	return wait(0)
}

// liveHeapMB forces a collection and reads the bytes of the objects that
// survive it. HeapAlloc, not HeapInuse: the spans left partly filled by
// what the repeated set-ups allocated and freed are not what the program
// keeps.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
