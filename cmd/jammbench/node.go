package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"jamm/internal/aggregate"
	"jamm/internal/bridge"
	"jamm/internal/consumer"
	"jamm/internal/gateway"
	"jamm/internal/histstore"
	"jamm/internal/ring"
	"jamm/internal/telemetry"
)

// stages are the trace stages gatewayd registers.
var stages = []string{"ingest", "bus", "wire", "relay", "mirror", "forward"}

// node is one gateway wired the way cmd/gatewayd wires itself with its
// default flags: its own metrics registry, a 1-in-1024 sampling tracer
// with the six stage histograms, the bus deliver observer feeding the
// bus stage, and every subsystem's metrics source registered. Optional
// parts (listener, archive, snapshots, aggregator, replicator, peers)
// are added by the same calls gatewayd makes for the matching flag.
type node struct {
	name   string
	gw     *gateway.Gateway
	reg    *telemetry.Registry
	tracer *telemetry.Tracer

	srv      *gateway.TCPServer
	hist     *histstore.Store
	archiver *consumer.Archiver
	rep      *bridge.Replicator
	agg      *aggregate.Aggregator
	bridges  []*bridge.Bridge
}

// newNode is gatewayd up to (not including) the listener.
func newNode(name string, sample int) *node {
	n := &node{name: name, gw: gateway.New(name, nil), reg: telemetry.NewRegistry()}
	n.tracer = telemetry.NewTracer(name, sample, telemetry.NewTraceLog(1024))
	n.tracer.RegisterStages(n.reg, stages...)
	n.gw.SetTracer(n.tracer)
	tr := n.tracer
	n.gw.Bus().SetDeliverObserver(func(_ int, d time.Duration) { tr.Observe("bus", d) })
	n.reg.Register(n.gw.MetricsSource())
	return n
}

// serve is gatewayd's listener on a loopback port of the kernel's
// choosing.
func (n *node) serve() error { return n.serveAt("127.0.0.1:0") }

// serveAt is gatewayd -addr addr.
func (n *node) serveAt(addr string) error {
	srv, err := gateway.ServeTCP(n.gw, addr, nil)
	if err != nil {
		return err
	}
	srv.SetHistory(n.hist)
	n.reg.Register(srv.MetricsSource())
	n.srv = srv
	return nil
}

// archive is gatewayd -archive dir: a disk-only archiver riding the
// bus's batch delivery, no fsync.
func (n *node) archive(dir string) error {
	hist, err := histstore.Open(dir, histstore.Options{})
	if err != nil {
		return err
	}
	n.hist = hist
	n.archiver = consumer.NewArchiver(nil)
	n.archiver.SetHistory(hist)
	n.archiver.SubscribeBus(n.gw.Bus(), "")
	n.gw.SetHistoryFallback(hist)
	n.reg.Register(hist.MetricsSource())
	if n.srv != nil {
		n.srv.SetHistory(hist)
	}
	return nil
}

// replicate is gatewayd -ring … -replicas k. fw, when not nil, wraps
// the replicator before it is attached (the traced pass times Forward).
func (n *node) replicate(rg *ring.Ring, k int, wrap func(gateway.Forwarder) gateway.Forwarder) {
	n.rep = bridge.NewReplicator(n.srv.Addr(), rg, k, bridge.ReplicatorOptions{
		Principal: "gatewayd/" + n.name, BatchMax: batchMax,
	})
	var fw gateway.Forwarder = n.rep
	if wrap != nil {
		fw = wrap(fw)
	}
	n.gw.SetForwarder(fw)
	n.rep.SetTracer(n.tracer)
	n.reg.Register(n.rep.MetricsSource())
}

// peer is gatewayd -peer addr. wrap, when not nil, wraps the bridge's
// target (the traced pass times the calls the bridge makes into it).
func (n *node) peer(addr string, wrap func(*gateway.Gateway) bridge.Target) *bridge.Bridge {
	c := gateway.NewClient("gatewayd/"+n.name, addr)
	var target bridge.Target = n.gw
	if wrap != nil {
		target = wrap(n.gw)
	}
	b := bridge.New(c, target, bridge.Options{BatchMax: batchMax, BatchWait: batchWait})
	b.SetTracer(n.tracer)
	n.reg.Register(b.MetricsSource(addr))
	n.bridges = append(n.bridges, b)
	return b
}

// aggregator is gatewayd -aggregate with its default window, emit
// period, field and top-k.
func (n *node) aggregator() {
	n.agg = aggregate.New(n.gw, aggregate.Options{
		Window: 10 * time.Second, Emit: time.Second, Field: valField, TopK: 10,
	})
	n.reg.Register(n.agg.MetricsSource())
}

// close is gatewayd's drained shutdown, in its order.
func (n *node) close() {
	for _, b := range n.bridges {
		b.Close()
	}
	if n.srv != nil {
		n.srv.StopAccepting()
	}
	n.gw.Flush()
	if n.rep != nil {
		n.rep.Close()
	}
	if n.srv != nil {
		n.srv.Close()
	}
	n.gw.StopSnapshotRefresh()
	if n.agg != nil {
		n.agg.Close()
	}
	if n.archiver != nil {
		n.archiver.Close()
		n.hist.Close() //nolint:errcheck // the archive directory is deleted next
	}
}

// stageHist is one stage latency histogram as scraped: samples per
// bucket, keyed by the bucket's upper bound in nanoseconds.
type stageHist map[float64]uint64

// scrapeStages renders a registry as Prometheus text — the same bytes
// an operator's scrape gets — and parses the stage latency histograms
// back out of it.
func scrapeStages(reg *telemetry.Registry) (map[string]stageHist, time.Duration, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, 0, err
	}
	took := time.Since(t0)
	out := map[string]stageHist{}
	below := map[string]uint64{} // cumulative count of the previous bucket
	const prefix = `jamm_trace_stage_latency_ns_bucket{stage="`
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		stage := rest[:strings.IndexByte(rest, '"')]
		le := strings.Index(rest, `le="`) + len(`le="`)
		bound := rest[le : le+strings.IndexByte(rest[le:], '"')]
		if bound == "+Inf" {
			continue // repeats the last finite bucket's count
		}
		up, err := strconv.ParseFloat(bound, 64)
		if err != nil {
			return nil, took, fmt.Errorf("scrape: %q: %w", line, err)
		}
		cum, err := strconv.ParseUint(rest[strings.LastIndexByte(rest, ' ')+1:], 10, 64)
		if err != nil {
			return nil, took, fmt.Errorf("scrape: %q: %w", line, err)
		}
		if out[stage] == nil {
			out[stage] = stageHist{}
		}
		out[stage][up] = cum - below[stage]
		below[stage] = cum
	}
	return out, took, nil
}
