// Package site assembles the two agents the paper deploys (§2.3), one
// config each: the stand-alone event gateway run "on a separate host"
// (cmd/gatewayd, StartGateway), and the per-host sensor manager with its
// embedded gateway (cmd/jammd, StartSensorHost). A Start opens
// everything its daemon serves, or returns an error having closed what
// it had opened; the handle's Close is the daemon's drained shutdown.
package site

import (
	"fmt"
	"log"
	"net/http"
	"time"

	"jamm/internal/bridge"
	"jamm/internal/directory"
	"jamm/internal/gateway"
	"jamm/internal/histstore"
	"jamm/internal/telemetry"
)

// Common is what both daemons configure alike: every field is a flag of
// both, with one meaning.
type Common struct {
	Name        string   // gatewayd -name; jammd -host, the monitored host
	Addr        string   // wire listen address: gatewayd -addr, jammd -gateway
	Peers       []string // -peer: upstream gateways whose topics are mirrored in
	WireProto   string   // -wire-proto: auto, json or v2
	OpsAddr     string   // -ops-addr: the ops HTTP endpoint (empty = disabled)
	TraceSample int      // -trace-sample: trace one in every N published batches (0 = off)
}

// drainTimeout bounds how long a shutdown waits for subscribers' and
// forwarders' queues to empty.
const drainTimeout = 5 * time.Second

// shell is the serving part both daemons share: the gateway's telemetry,
// its wire listener, peer bridges and ops endpoint, and the drained
// shutdown that stops them in order around the steps each daemon adds.
type shell struct {
	who     string // the daemon, prefixing log lines and principals
	c       Common
	proto   gateway.Proto
	gw      *gateway.Gateway
	reg     *telemetry.Registry
	tlog    *telemetry.TraceLog
	tracer  *telemetry.Tracer
	srv     *gateway.TCPServer
	ops     *http.Server
	bridges []*bridge.Bridge

	// The daemon's own shutdown steps, each list run in order at its
	// point of the drain: ingest stops a source publishing into the
	// gateway, and every such source is stopped there; forward flushes a
	// path carrying its records on, once nothing publishes any more;
	// release lets go once the event plane is down.
	ingest, forward, release []func()
}

// newShell attaches the telemetry plane to gw — one registry of every
// subsystem's counters and a sampled record tracer, attached even
// without an ops endpoint so stage latencies accumulate and relayed
// JAMM.TRACE attributes keep their hop counts honest.
func newShell(who string, c Common, gw *gateway.Gateway) (*shell, error) {
	proto, err := gateway.ParseProto(c.WireProto)
	if err != nil {
		return nil, fmt.Errorf("-wire-proto: %w", err)
	}
	s := &shell{who: who, c: c, proto: proto, gw: gw, reg: telemetry.NewRegistry(), tlog: telemetry.NewTraceLog(1024)}
	s.tracer = telemetry.NewTracer(c.Name, c.TraceSample, s.tlog)
	s.tracer.RegisterStages(s.reg, "ingest", "bus", "wire", "relay", "mirror", "forward")
	gw.SetTracer(s.tracer)
	gw.Bus().SetDeliverObserver(func(n int, d time.Duration) { s.tracer.Observe("bus", d) })
	s.reg.Register(gw.MetricsSource())
	return s, nil
}

// listen serves the wire protocol on Addr, its history op from hist
// (nil: none). The json policy pins the server to JSON-per-line.
func (s *shell) listen(hist *histstore.Store) error {
	srv, err := gateway.ServeTCP(s.gw, s.c.Addr, nil)
	if err != nil {
		return err
	}
	srv.SetHistory(hist)
	if s.proto == gateway.ProtoJSON {
		srv.SetMaxVersion(1)
	}
	s.reg.Register(srv.MetricsSource())
	s.srv = srv
	return nil
}

// client is a wire client acting for this daemon under its protocol
// policy.
func (s *shell) client(addr string) *gateway.Client {
	c := gateway.NewClient(s.who+"/"+s.c.Name, addr)
	c.Protocol = s.proto
	return c
}

// mirror bridges every -peer upstream's topics into the gateway.
func (s *shell) mirror(batch int) {
	for _, peer := range s.c.Peers {
		s.addBridge(bridge.New(s.client(peer), s.gw, bridge.Options{BatchMax: batch}), peer)
	}
}

// addBridge traces b and counts it under name, and stops it at shutdown.
func (s *shell) addBridge(b *bridge.Bridge, name string) {
	b.SetTracer(s.tracer)
	s.reg.Register(b.MetricsSource(name))
	s.bridges = append(s.bridges, b)
}

// serveOps serves the ops endpoint — metrics, liveness and readiness,
// the trace log and pprof — on its own listener, so operator traffic
// never competes with the wire protocol. Readiness needs the directory
// (when dc is set) to answer and every -peer bridge to be connected.
func (s *shell) serveOps(dc *directory.Client) error {
	if s.c.OpsAddr == "" {
		return nil
	}
	health := telemetry.NewHealth()
	if dc != nil {
		health.AddCheck("directory", dc.Ping)
	}
	if len(s.c.Peers) > 0 {
		peers, bs := s.c.Peers, s.bridges[:len(s.c.Peers)]
		health.AddCheck("bridges", func() error {
			for i, b := range bs {
				if !b.Connected() {
					return fmt.Errorf("peer %s disconnected", peers[i])
				}
			}
			return nil
		})
	}
	ops, err := telemetry.ServeOps(s.c.OpsAddr, s.reg, health, s.tlog)
	if err != nil {
		return err
	}
	s.ops = ops
	return nil
}

// Addr returns the address the wire listener is bound to.
func (s *shell) Addr() string { return s.srv.Addr() }

// OpsAddr returns the address the ops endpoint is bound to; there is
// one when OpsAddr was set.
func (s *shell) OpsAddr() string { return s.ops.Addr }

// Close is the drained shutdown. Drain, not drop: stop every source
// publishing into the gateway (the daemon's sources, the bridges, the
// listener) — a publish has delivered by the time it returns, so what
// they published already sits in the subscriber and forwarder queues —
// then let forwarders and subscriber writers empty while subscriber
// connections are still up, then close. It skips what a failed start
// never opened.
func (s *shell) Close() {
	run(s.ingest)
	for _, b := range s.bridges {
		b.Close()
	}
	if s.srv != nil {
		s.srv.StopAccepting()
	}
	run(s.forward)
	if s.srv != nil {
		s.srv.DrainSubscribers(drainTimeout)
		s.srv.Close()
		if st := s.srv.WireStats(); st.Drops() > 0 {
			log.Printf("%s: wire drops at shutdown: %d bad records, %d bad lines, %d slow-subscriber drops", s.who, st.BadRecords, st.BadLines, st.SubDrops)
		}
	}
	if s.ops != nil {
		s.ops.Close()
	}
	run(s.release)
}

func run(steps []func()) {
	for _, step := range steps {
		step()
	}
}
