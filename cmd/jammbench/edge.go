package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"jamm/internal/benchkit"
	"jamm/internal/gateway"
	"jamm/internal/telemetry"
	"jamm/internal/ulm"
)

// Consumer and reader shape of consumer-edge.
const (
	edgeXMLSensors    = 8 // sensors 0..7: one JSON/XML subscription each
	edgeChangeSensors = 8 // sensors 8..15: one v2 on-change subscription each
	edgeSummaries     = 8 // sensors 0..7 carry a summary series
	readQueries       = 200
	readSummaries     = 20
	// One reader cycle starts this often; it takes about 65ms. Back to
	// back, the reader would keep one of the host's two CPUs busy and every
	// other number of the workload would measure how the scheduler split
	// the CPUs that second.
	readPeriod    = 200 * time.Millisecond
	preloadEpochs = 8 // the preloaded archive is sealed in this many time slices
)

// preloadEpoch is the DATE of the first preloaded record; records are
// 1ms apart. Live records carry the wall clock, decades later, so a
// history query bounded by the preload's end sees the preloaded set and
// nothing else.
var preloadEpoch = time.Date(2000, 5, 1, 0, 0, 0, 0, time.UTC)

// consumerEdge is one gateway wired as `gatewayd -archive dir
// -snapshot-refresh 100ms -snapshot-bg`, its archive preloaded, with a
// v2 publisher writing into it while four kinds of wire consumers and
// one reader, a cycle of reads every readPeriod, read out of it.
type consumerEdge struct {
	h       *harness
	n       *node
	pub     *gateway.Publisher
	streams []*gateway.Stream

	// The preloaded archive: perSensor records of every sensor, laid
	// down in preloadEpochs time slices, each sealed into segments of
	// its own. Slice e holds every sensor's SEQs epochSeq[e] up to
	// epochSeq[e+1], dated from epochAt[e] up to epochAt[e+1].
	perSensor int
	epochSeq  [preloadEpochs + 1]int
	epochAt   [preloadEpochs + 1]time.Time

	readStop chan struct{}
	readDone sync.WaitGroup

	readMu    sync.Mutex
	queries   []benchkit.Sample // Client.Query round trips, connect included
	rawHist   []benchkit.Sample // V = records/s of one whole-sensor HistoryStream
	filtHist  []benchkit.Sample // V = records/s of one event-filtered HistoryStream
	reads     int64
	readFails int64
	readErr   error // first failure, for the report
}

func buildConsumerEdge(h *harness) (topology, error) {
	t := &consumerEdge{h: h, n: newNode("edge", h.sample()), readStop: make(chan struct{})}
	if err := t.n.archive(filepath.Join(h.dir, "edge")); err != nil {
		return nil, err
	}
	if err := t.preload(); err != nil {
		t.close()
		return nil, err
	}
	t.n.gw.EnableSnapshots(gateway.SnapshotOptions{MaxStale: 100 * time.Millisecond, BackgroundRefresh: true})
	for i := 0; i < edgeSummaries; i++ {
		t.n.gw.EnableSummary(sensorName(i), eventE, valField)
	}
	if err := t.n.serve(); err != nil {
		t.close()
		return nil, err
	}
	addr := t.n.srv.Addr()
	opts := gateway.StreamOptions{BatchMax: batchMax, BatchWait: batchWait}
	subscribe := func(c *gateway.Client, req gateway.Request, o gateway.StreamOptions, cons *subscriber, wantV2 bool) error {
		st, err := c.SubscribeBatchStream(req, o, cons.takeTopic)
		if err != nil {
			return fmt.Errorf("%s: %w", cons.name, err)
		}
		t.streams = append(t.streams, st)
		if (st.Version() >= 2) != wantV2 {
			return fmt.Errorf("%s: negotiated wire v%d", cons.name, st.Version())
		}
		return nil
	}
	v2 := gateway.NewClient("jammbench", addr)
	js := gateway.NewClient("jammbench", addr)
	js.Protocol = gateway.ProtoJSON
	err := subscribe(v2, gateway.Request{}, opts, h.newSubscriber("v2.all", kindAll, true, nil), true)
	if err == nil {
		o := opts
		o.Format = gateway.FormatULM
		err = subscribe(js, gateway.Request{}, o, h.newSubscriber("json.ulm.all", kindAll, true, nil), false)
	}
	xml := make([]int, edgeXMLSensors)
	for i := range xml {
		xml[i] = i
	}
	// The per-sensor subscriptions are checked and balanced like the rest
	// but do not take part in completion: each sees 1/64 of the traffic in
	// 8-record runs, so it always writes on its 2ms batch timer, and a
	// record that waited for it would make the windowed phase measure that
	// timer.
	cx := h.newSubscriber("json.xml", kindAll, false, xml)
	for _, s := range xml {
		if err == nil {
			o := opts
			o.Format = gateway.FormatXML
			err = subscribe(js, gateway.Request{Sensor: sensorName(s)}, o, cx, false)
		}
	}
	chg := make([]int, edgeChangeSensors)
	for i := range chg {
		chg[i] = edgeXMLSensors + i
	}
	cc := h.newSubscriber("v2.change", kindOnChange, false, chg)
	for _, s := range chg {
		if err == nil {
			req := gateway.Request{Sensor: sensorName(s), Mode: gateway.DeliverOnChange, Field: valField}
			err = subscribe(v2, req, opts, cc, true)
		}
	}
	if err == nil {
		t.pub, err = v2.NewBatchPublisher("", batchMax, batchWait)
	}
	if err != nil {
		t.close()
		return nil, err
	}
	t.queries = make([]benchkit.Sample, 0, 1<<18)
	t.rawHist = make([]benchkit.Sample, 0, 1<<14)
	t.filtHist = make([]benchkit.Sample, 0, 1<<14)
	t.readDone.Add(1)
	go t.reader()
	return t, nil
}

// preload files Preload records, Sensors ways, straight into the
// segment store — the archive a long-running gateway would have — as
// preloadEpochs time slices, sealing the open segment at the end of
// each. A history query for one slice then covers whole segments (the
// condition for stored frames to be spliced onto the wire undecoded)
// and costs the store one slice's scan, not the whole archive's.
func (t *consumerEdge) preload() error {
	w := t.h.w
	t.perSensor = w.Preload / w.Sensors
	blocks := (t.perSensor + preloadBatch - 1) / preloadBatch
	recs := make([]ulm.Record, preloadBatch)
	at := preloadEpoch
	for e := 0; e < preloadEpochs; e++ {
		t.epochSeq[e], t.epochAt[e] = e*blocks/preloadEpochs*preloadBatch, at
		for off := t.epochSeq[e]; off < min((e+1)*blocks/preloadEpochs*preloadBatch, t.perSensor); off += preloadBatch {
			n := min(preloadBatch, t.perSensor-off)
			for s := 0; s < w.Sensors; s++ {
				for r := 0; r < n; r++ {
					rec := templateRecord(s, w.Fields)
					rec.Date = at
					at = at.Add(time.Millisecond)
					seq := off + r
					rec.Fields[0].Value = seqStr[seq]
					rec.Fields[1].Value = valStr[seq%valRange]
					if seq%2 == 1 {
						rec.Event = eventF
					}
					recs[r] = rec
				}
				if err := t.n.hist.AppendBatch(sensorName(s), recs[:n]); err != nil {
					return err
				}
			}
		}
		if err := t.n.hist.Roll(); err != nil {
			return err
		}
	}
	t.epochSeq[preloadEpochs], t.epochAt[preloadEpochs] = t.perSensor, at
	return nil
}

func (t *consumerEdge) publish(_ int, sensor string, recs []ulm.Record) error {
	_, err := t.pub.PublishBatch(sensor, recs)
	return err
}

func (t *consumerEdge) flush() error { return t.pub.Flush() }

func (t *consumerEdge) drops() uint64 {
	n := wireDrops([]*node{t.n}) + t.pub.Dropped()
	for _, st := range t.streams {
		n += st.DecodeErrors()
	}
	return n
}

// check fails the run on the first read that failed or answered wrong.
func (t *consumerEdge) check() error {
	t.readMu.Lock()
	defer t.readMu.Unlock()
	if t.readErr != nil {
		return fmt.Errorf("reader: %d of %d reads failed, first: %w", t.readFails, t.reads, t.readErr)
	}
	if e := t.n.archiver.HistErrors(); e != 0 {
		return fmt.Errorf("archiver: %d batches failed to persist", e)
	}
	return nil
}

func (t *consumerEdge) counters(m map[string]float64) {
	ws := t.n.srv.WireStats()
	m["gateway.wire.sub_drops"] = float64(ws.SubDrops)
	m["gateway.wire.bad_frames"] = float64(ws.BadFrames)
	gs := t.n.gw.Stats()
	if reads := gs.SnapshotHits + gs.SnapshotMisses; reads > 0 {
		m["gateway.snapshot_hit_ratio"] = float64(gs.SnapshotHits) / float64(reads)
	}
	m["histstore.raw_frames"] = float64(t.n.hist.Stats().RawFrames)
	busCounters(m, []*node{t.n})
}

func (t *consumerEdge) registries() []*telemetry.Registry { return []*telemetry.Registry{t.n.reg} }

func (t *consumerEdge) close() {
	close(t.readStop)
	t.readDone.Wait()
	if t.pub != nil {
		t.pub.Close() //nolint:errcheck // teardown
	}
	for _, st := range t.streams {
		st.Close()
	}
	t.n.close()
}

// reader is the closed-loop read client: while a phase runs it starts
// a cycle every readPeriod — Client.Query (a fresh connection each, as
// the client pays it), Summary, one whole-sensor history replay (stored
// frames spliced onto the wire) and one event-filtered replay (decoded,
// filtered, re-encoded) — one call at a time, checking every reply.
func (t *consumerEdge) reader() {
	defer t.readDone.Done()
	h := t.h
	c := gateway.NewClient("jammbench", t.n.srv.Addr())
	cycle := 0
	stopped := func() bool {
		select {
		case <-t.readStop:
			return true
		default:
			return false
		}
	}
	for !stopped() {
		if h.phase.Load() == phaseIdle {
			time.Sleep(time.Millisecond)
			continue
		}
		began := time.Now()
		for q := 0; q < readQueries && !stopped(); q++ {
			s := (cycle*readQueries + q) % h.w.Sensors
			span := h.tr.beginCall("gateway.wire.query", h.clk.Now())
			t0 := h.clk.Now()
			rec, found, err := c.Query(sensorName(s), eventE)
			t1 := h.clk.Now()
			h.tr.endCall(span, t1, 1)
			t.readMu.Lock()
			t.reads++
			t.queries = append(t.queries, benchkit.Sample{T: t1, V: t1 - t0, W: 1})
			t.readMu.Unlock()
			switch {
			case err != nil:
				t.fail(fmt.Errorf("query %s: %w", sensorName(s), err))
			case !found || rec.Event != eventE || rec.Host != hostName(s):
				t.fail(fmt.Errorf("query %s: found=%v rec=%v", sensorName(s), found, rec))
			}
		}
		for q := 0; q < readSummaries && !stopped(); q++ {
			s := q % edgeSummaries
			span := h.tr.beginCall("gateway.wire.summary", h.clk.Now())
			pts, err := c.Summary(sensorName(s), eventE, valField)
			h.tr.endCall(span, h.clk.Now(), 1)
			t.readMu.Lock()
			t.reads++
			t.readMu.Unlock()
			if err != nil || len(pts) == 0 {
				t.fail(fmt.Errorf("summary %s: %d points, %v", sensorName(s), len(pts), err))
			}
		}
		s := cycle % h.w.Sensors
		if !stopped() {
			t.history(c, s, cycle%preloadEpochs, nil, &t.rawHist)
		}
		if !stopped() {
			t.history(c, s, cycle%preloadEpochs, []string{eventF}, &t.filtHist)
		}
		cycle++
		select {
		case <-t.readStop:
		case <-time.After(readPeriod - time.Since(began)):
		}
	}
}

// history replays sensor s's preloaded records of time slice e (only
// those of the given events, if any) and checks the reply against what
// was preloaded: the count, and every SEQ in order.
func (t *consumerEdge) history(c *gateway.Client, s, e int, events []string, into *[]benchkit.Sample) {
	h := t.h
	name := "gateway.wire.history_raw"
	next, end, step := t.epochSeq[e], t.epochSeq[e+1], 1
	if events != nil {
		name = "gateway.wire.history_filtered"
		next, step = next+1, 2 // eventF is on the odd SEQs; slices start on an even one
	}
	want := (end - next + step - 1) / step
	span := h.tr.beginCall(name, h.clk.Now())
	t0 := h.clk.Now()
	bad := 0
	n, err := c.HistoryStream(gateway.HistoryRequest{Sensor: sensorName(s), Events: events, From: t.epochAt[e], To: t.epochAt[e+1]},
		func(sensor string, recs []ulm.Record) error {
			for i := range recs {
				if seq, ok := seqOf(&recs[i]); !ok || seq != next || sensor != sensorName(s) {
					bad++
				}
				next += step
			}
			return nil
		})
	t1 := h.clk.Now()
	h.tr.endCall(span, t1, n)
	t.readMu.Lock()
	t.reads++
	if n > 0 {
		*into = append(*into, benchkit.Sample{T: t1, V: int64(float64(n) / (float64(t1-t0) / 1e9)), W: 1})
	}
	t.readMu.Unlock()
	if err != nil || n != want || bad != 0 {
		t.fail(fmt.Errorf("history %s slice %d %v: %d records (want %d), %d out of place, %v", sensorName(s), e, events, n, want, bad, err))
	}
}

// fail counts a read that failed or answered wrong, keeping the first.
func (t *consumerEdge) fail(err error) {
	t.readMu.Lock()
	t.readFails++
	if t.readErr == nil {
		t.readErr = err
	}
	t.readMu.Unlock()
}
