package main

import (
	"fmt"
	"path/filepath"
	"time"

	"jamm/internal/bridge"
	"jamm/internal/gateway"
	"jamm/internal/ring"
	"jamm/internal/router"
	"jamm/internal/telemetry"
	"jamm/internal/ulm"
)

// build attaches the workload's topology to the harness, named by the
// workload: the four builders below are the four workloads.
func build(h *harness) error {
	var err error
	switch h.w.Name {
	case "relay-chain":
		h.topo, err = buildRelayChain(h)
	case "fanout-local":
		h.topo, err = buildFanoutLocal(h)
	case "replicated-site":
		h.topo, err = buildReplicatedSite(h)
	case "consumer-edge":
		h.topo, err = buildConsumerEdge(h)
	default:
		err = fmt.Errorf("no topology for workload %q", h.w.Name)
	}
	return err
}

// sample is the tracer sampling period every node of this run uses.
func (h *harness) sample() int {
	if h.tr != nil {
		return tracedSample
	}
	return traceSample
}

// wrapTarget and wrapForwarder hand the traced pass's timing wrappers
// to a node; nil in the untraced pass, where the program's own types
// are attached directly.
func (h *harness) wrapTarget() func(*gateway.Gateway) bridge.Target {
	if h.tr == nil {
		return nil
	}
	return h.tr.wrapTarget
}

func (h *harness) wrapForwarder() func(gateway.Forwarder) gateway.Forwarder {
	if h.tr == nil {
		return nil
	}
	return h.tr.wrapForwarder
}

func wireDrops(nodes []*node) (n uint64) {
	for _, nd := range nodes {
		if nd.srv != nil {
			n += nd.srv.WireStats().Drops()
		}
		n += nd.gw.FrameStats().DecodeErrors
		for _, b := range nd.bridges {
			st := b.Stats()
			n += st.LoopDrops + st.DecodeErrors
		}
	}
	return n
}

func nodeRegistries(nodes []*node) (regs []*telemetry.Registry) {
	for _, n := range nodes {
		regs = append(regs, n.reg)
	}
	return regs
}

func closeNodes(nodes []*node) {
	// Downstream first: a bridge stops pulling before its upstream's
	// listener goes away.
	for i := len(nodes) - 1; i >= 0; i-- {
		nodes[i].close()
	}
}

// ---- relay-chain ----

// relayChain is Publisher(v2) → gwA → bridge → relay… → bridge → gwB →
// bus batch subscriber: Hops bridges, Hops+1 gateways, and nothing
// subscribed to any bus but the last, so every middle gateway relays
// sealed frames without decoding them.
type relayChain struct {
	h     *harness
	nodes []*node
	pub   *gateway.Publisher
}

func buildRelayChain(h *harness) (topology, error) {
	t := &relayChain{h: h}
	for i := 0; i <= h.w.Hops; i++ {
		name := fmt.Sprintf("relay%d", i-1)
		switch i {
		case 0:
			name = "gwA"
		case h.w.Hops:
			name = "gwB"
		}
		n := newNode(name, h.sample())
		t.nodes = append(t.nodes, n)
		if err := n.serve(); err != nil {
			t.close()
			return nil, err
		}
	}
	last := t.nodes[len(t.nodes)-1]
	c := h.newSubscriber("gwB.bus", kindAll, true, nil)
	last.gw.Bus().SubscribeBatchTopics("", nil, c.takeTopic)
	if h.tr != nil {
		for i, n := range t.nodes[:len(t.nodes)-1] {
			if err := h.tr.tapFrames(n, i); err != nil {
				t.close()
				return nil, err
			}
		}
		h.tr.tapBus(last, len(t.nodes)-1)
	}
	for i := 1; i < len(t.nodes); i++ {
		t.nodes[i].peer(t.nodes[i-1].srv.Addr(), h.wrapTarget())
	}
	for _, n := range t.nodes {
		if !router.WaitConnected(n.bridges, 5*time.Second) {
			t.close()
			return nil, fmt.Errorf("%s: bridge never connected", n.name)
		}
	}
	var err error
	t.pub, err = gateway.NewClient("jammbench", t.nodes[0].srv.Addr()).NewBatchPublisher("", batchMax, batchWait)
	if err != nil {
		t.close()
		return nil, err
	}
	if t.pub.Version() < 2 {
		t.close()
		return nil, fmt.Errorf("publisher negotiated wire v%d, want v2", t.pub.Version())
	}
	return t, nil
}

func (t *relayChain) publish(_ int, sensor string, recs []ulm.Record) error {
	_, err := t.pub.PublishBatch(sensor, recs)
	return err
}

func (t *relayChain) flush() error  { return t.pub.Flush() }
func (t *relayChain) drops() uint64 { return wireDrops(t.nodes) + t.pub.Dropped() }
func (t *relayChain) check() error  { return nil }

func (t *relayChain) counters(m map[string]float64) {
	var relays, decodes uint64
	for _, n := range t.nodes {
		fs := n.gw.FrameStats()
		relays += fs.Relays
		decodes += fs.Decodes
		ws := n.srv.WireStats()
		m["gateway.wire.sub_drops"] += float64(ws.SubDrops)
		m["gateway.wire.bad_frames"] += float64(ws.BadFrames)
		for _, b := range n.bridges {
			st := b.Stats()
			m["bridge.mirrored"] += float64(st.Mirrored)
			m["bridge.relayed_frames"] += float64(st.RelayedFrames)
			m["bridge.remote_drops"] += float64(st.RemoteDrops)
			m["bridge.loop_drops"] += float64(st.LoopDrops)
		}
	}
	if relays+decodes > 0 {
		m["gateway.frame.decode_ratio"] = float64(decodes) / float64(relays+decodes)
	}
	busCounters(m, t.nodes)
}

func (t *relayChain) registries() []*telemetry.Registry { return nodeRegistries(t.nodes) }

func (t *relayChain) close() {
	if t.pub != nil {
		t.pub.Close() //nolint:errcheck // teardown
	}
	if t.h.tr != nil {
		t.h.tr.closeTaps()
	}
	closeNodes(t.nodes)
}

// busCounters sums the nodes' bus delivery counters.
func busCounters(m map[string]float64, nodes []*node) {
	for _, n := range nodes {
		st := n.gw.Bus().Stats()
		m["bus.delivered"] += float64(st.Delivered)
		m["bus.suppressed"] += float64(st.Suppressed)
	}
}

// ---- fanout-local ----

// Consumer counts of fanout-local.
const (
	fanoutAll       = 8  // wildcard DeliverAll batch subscribers
	fanoutOnChange  = 16 // per-sensor DeliverOnChange subscribers
	fanoutThreshold = 8  // per-sensor DeliverThreshold subscribers
	fanoutSummaries = 32 // sensors with a summary series
)

// fanoutLocal is one in-process synchronous gateway: PublishBatch runs
// every subscriber, summary tap and the aggregator's fold on the
// generator's goroutine, and returns when all are done.
type fanoutLocal struct {
	h *harness
	n *node
}

func buildFanoutLocal(h *harness) (topology, error) {
	t := &fanoutLocal{h: h, n: newNode("gw", h.sample())}
	gw := t.n.gw
	for i := 0; i < fanoutSummaries; i++ {
		gw.EnableSummary(sensorName(i), eventE, valField)
	}
	t.n.aggregator()
	sub := func(req gateway.Request, c *subscriber) error {
		_, err := gw.SubscribeBatch(req, c.takeBatch)
		return err
	}
	for i := 0; i < fanoutAll; i++ {
		if err := sub(gateway.Request{}, h.newSubscriber(fmt.Sprintf("all%d", i), kindAll, true, nil)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < fanoutOnChange; i++ {
		req := gateway.Request{Sensor: sensorName(i), Mode: gateway.DeliverOnChange, Field: valField}
		if err := sub(req, h.newSubscriber(fmt.Sprintf("change%d", i), kindOnChange, false, []int{i})); err != nil {
			return nil, err
		}
	}
	for i := 0; i < fanoutThreshold; i++ {
		s := fanoutOnChange + i
		req := gateway.Request{Sensor: sensorName(s), Mode: gateway.DeliverThreshold, Field: valField,
			Above: gateway.Float64(valRange / 2), DeltaFrac: 0.01}
		if err := sub(req, h.newSubscriber(fmt.Sprintf("thresh%d", i), kindOpaque, false, []int{s})); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (t *fanoutLocal) publish(_ int, sensor string, recs []ulm.Record) error {
	t.n.gw.PublishBatch(sensor, recs)
	return nil
}

func (t *fanoutLocal) flush() error  { return nil }
func (t *fanoutLocal) drops() uint64 { return 0 }
func (t *fanoutLocal) check() error  { return nil }
func (t *fanoutLocal) close()        { t.n.close() }

func (t *fanoutLocal) registries() []*telemetry.Registry { return []*telemetry.Registry{t.n.reg} }

func (t *fanoutLocal) counters(m map[string]float64) {
	busCounters(m, []*node{t.n})
}

// ---- replicated-site ----

// replicatedSite is Gateways gateways on a ring, each wired as
// `gatewayd -ring … -replicas k -archive dir`, fed by one routing
// client. A record is fully delivered when a bus subscriber has seen it
// on k gateways: the primary's, and the replica its Replicator
// forwarded the frame to.
type replicatedSite struct {
	h     *harness
	nodes []*node
	rt    *router.Router
	rtReg *telemetry.Registry // the routing client's own registry: its tracer's forward stage
}

// sitePort is the first of the replicated site's listening ports.
const sitePort = 19311

func buildReplicatedSite(h *harness) (topology, error) {
	t := &replicatedSite{h: h}
	w := h.w
	var addrs []string
	for i := 0; i < w.Gateways; i++ {
		n := newNode(fmt.Sprintf("gw%d", i), h.sample())
		t.nodes = append(t.nodes, n)
		if err := n.archive(filepath.Join(h.dir, n.name)); err != nil {
			t.close()
			return nil, err
		}
		// Ring placement hashes the gateways' addresses, and which sensors
		// share a gateway decides how the publishers' and replica links'
		// 64-record / 2ms batches fill — that is, the latency. Fixed ports
		// give every run, whatever its seed, the same placement; only when
		// one is taken does the kernel choose (and the placement differ).
		if err := n.serveAt(fmt.Sprintf("127.0.0.1:%d", sitePort+i)); err != nil {
			if err = n.serve(); err != nil {
				t.close()
				return nil, err
			}
		}
		addrs = append(addrs, n.srv.Addr())
	}
	rg := ring.New(addrs, w.VNodes)
	for _, n := range t.nodes {
		n.replicate(rg, w.ReplicaK, h.wrapForwarder())
		// The sensors placed here: primary or replica.
		var mine []int
		for s := 0; s < w.Sensors; s++ {
			for _, o := range rg.Owners(sensorName(s), w.ReplicaK) {
				if o == n.srv.Addr() {
					mine = append(mine, s)
				}
			}
		}
		c := h.newSubscriber(n.name+".bus", kindAll, true, mine)
		n.gw.Bus().SubscribeBatchTopics("", nil, c.takeTopic)
	}
	var err error
	t.rt, err = router.New(router.Options{Ring: rg, ReplicaK: w.ReplicaK, Principal: "jammbench",
		BatchMax: batchMax, BatchWait: batchWait})
	if err != nil {
		t.close()
		return nil, err
	}
	t.rtReg = telemetry.NewRegistry()
	tracer := telemetry.NewTracer("router", h.sample(), nil)
	tracer.RegisterStages(t.rtReg, stages...)
	t.rt.SetTracer(tracer)
	t.rtReg.Register(t.rt.MetricsSource())
	return t, nil
}

func (t *replicatedSite) publish(_ int, sensor string, recs []ulm.Record) error {
	return t.rt.PublishBatch(sensor, recs)
}

func (t *replicatedSite) flush() error { return t.rt.Flush() }

func (t *replicatedSite) drops() uint64 {
	n := wireDrops(t.nodes)
	for _, nd := range t.nodes {
		n += nd.rep.Stats().Shed
	}
	// A record the router lost never reached its primary, so neither
	// copy exists.
	return n + uint64(t.h.w.ReplicaK)*t.rt.Stats().PublishDrops
}

// check holds the archives to the same books as the subscribers: every
// copy that reached a gateway's bus was appended to its segment store.
func (t *replicatedSite) check() error {
	var archived int64
	for _, n := range t.nodes {
		if e := n.archiver.HistErrors(); e != 0 {
			return fmt.Errorf("%s: %d batches failed to persist", n.name, e)
		}
		archived += n.hist.Stats().Records
	}
	want := int64(t.h.w.ReplicaK)*t.h.offered() - int64(t.drops())
	if archived != want {
		return fmt.Errorf("archives hold %d records, want k*offered - drops = %d", archived, want)
	}
	return nil
}

func (t *replicatedSite) counters(m map[string]float64) {
	for _, n := range t.nodes {
		rs := n.rep.Stats()
		m["bridge.replicator.replicated"] += float64(rs.Replicated)
		m["bridge.replicator.shed"] += float64(rs.Shed)
		ws := n.srv.WireStats()
		m["gateway.wire.sub_drops"] += float64(ws.SubDrops)
		m["gateway.wire.bad_frames"] += float64(ws.BadFrames)
	}
	rs := t.rt.Stats()
	m["router.publish_drops"] = float64(rs.PublishDrops)
	m["router.retries"] = float64(rs.PublishRetries)
	busCounters(m, t.nodes)
}

func (t *replicatedSite) registries() []*telemetry.Registry {
	return append(nodeRegistries(t.nodes), t.rtReg)
}

func (t *replicatedSite) close() {
	if t.rt != nil {
		t.rt.Close()
	}
	closeNodes(t.nodes)
}

// needOf is how many measuring subscribers must have seen a record
// before it counts as fully delivered.
func needOf(w *workload) int {
	switch w.Name {
	case "fanout-local":
		return fanoutAll
	case "replicated-site":
		return w.ReplicaK
	case "consumer-edge":
		return 2 // the v2 and the JSON/ULM wildcard subscriber
	}
	return 1
}
