package site

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"jamm/internal/activation"
	"jamm/internal/core"
	"jamm/internal/directory"
	"jamm/internal/gateway"
	"jamm/internal/manager"
	"jamm/internal/ring"
	"jamm/internal/router"
	"jamm/internal/simhost"
	"jamm/internal/simnet"
	"jamm/internal/ulm"
)

// SensorHostConfig configures a per-host agent: one field per cmd/jammd
// flag.
type SensorHostConfig struct {
	Common
	ConfigSource string        // -config: sensor config file path or http(s):// URL
	Refresh      time.Duration // -refresh: config re-check period
	Control      string        // -control: activation (control) listen address
	Dir          string        // -dir: directory server the host's sensors are published to ("" = none)
	Forward      string        // -forward: upstream gatewayd every event is forwarded to ("" = none)
	Ring         string        // -ring: comma-separated gateways of a sharded upstream site, superseding Forward
	DemoWorkload bool          // -demo-workload: a synthetic CPU workload and periodic port-21 transfers
}

// hostBatch is the records per frame a sensor host forwards and mirrors.
const hostBatch = 64

// DefaultSensorHostConfig returns jammd's defaults.
func DefaultSensorHostConfig() SensorHostConfig {
	return SensorHostConfig{
		Common:  Common{Name: "demo.lbl.gov", Addr: "127.0.0.1:9200", WireProto: "auto", TraceSample: 1024},
		Refresh: 2 * time.Minute, Control: "127.0.0.1:9201",
	}
}

// SensorHost is a running per-host agent: a sensor manager and port
// monitor for one simulated host pinned to the wall clock, its
// embedded gateway serving real clients, optional forwarding upstream,
// and start/stop control over the activation protocol.
type SensorHost struct {
	*shell
	ctl *activation.Server
}

// StartSensorHost starts the agent cfg describes. Close is its drained
// shutdown.
func StartSensorHost(cfg SensorHostConfig) (*SensorHost, error) {
	opts := core.Options{Seed: time.Now().UnixNano(), Epoch: time.Now().UTC()}
	var dc *directory.Client // the one client of the grid, the router and readiness
	if cfg.Dir != "" {
		dc = directory.NewClient("jammd/"+cfg.Name, cfg.Dir)
		opts.Directory = dc
	}
	g := core.New(opts)
	st := g.AddSite(cfg.Addr) // the advertised gateway address
	rig, err := g.AddHost(st, cfg.Name, core.HostSpec{Net: simnet.HostConfig{RecvCapacityBps: 1e9}})
	if err != nil {
		return nil, err
	}
	rig.SyncClock(0, 16*time.Second)
	if cfg.DemoWorkload {
		demoWorkload(g, rig, cfg.Name)
	}
	s, err := newShell("jammd", cfg.Common, st.Gateway)
	if err != nil {
		return nil, err
	}
	h := &SensorHost{shell: s}
	if err := h.start(cfg, g, rig, dc); err != nil {
		h.Close()
		return nil, err
	}
	return h, nil
}

func (h *SensorHost) start(cfg SensorHostConfig, g *core.Grid, rig *core.HostRig, dc *directory.Client) error {
	// All simulation work runs on the driver's goroutine. The sensors and
	// the clock driving them stop first at shutdown.
	driver := core.NewRealtimeDriver(g.Sched, 50*time.Millisecond)
	h.ingest = append(h.ingest, func() {
		driver.Call(func() error { rig.Manager.Shutdown(); return nil }) //nolint:errcheck
		driver.Stop()
	})
	// Forwarding starts before the sensors do, so it carries their first
	// records too.
	if err := h.forwardUpstream(cfg, dc); err != nil {
		return err
	}
	if err := driver.Call(func() error { return rig.Manager.WatchConfig(configFetch(cfg.ConfigSource), cfg.Refresh) }); err != nil {
		return fmt.Errorf("initial config: %w", err)
	}
	// Keep directory consumer counts and last-message attributes fresh.
	driver.Do(func() { g.Sched.Every(30*time.Second, rig.Manager.UpdateDirectory) })
	if err := h.listen(nil); err != nil {
		return fmt.Errorf("gateway: %w", err)
	}
	h.mirror(hostBatch)
	ctl, err := activation.Serve(controlRegistry(driver, rig.Manager), cfg.Control, nil)
	if err != nil {
		return fmt.Errorf("control: %w", err)
	}
	h.ctl = ctl
	// Control starts sensors, so it stops with ingest; by then the driver
	// it runs them on has stopped too.
	h.ingest = append(h.ingest, func() { ctl.Close() })
	return h.serveOps(dc)
}

// ControlAddr returns the address the control listener is bound to.
func (h *SensorHost) ControlAddr() string { return h.ctl.Addr() }

// configFetch reads the sensor config from a local file or an HTTP
// server (§5.0).
func configFetch(src string) func() ([]byte, error) {
	if !strings.HasPrefix(src, "http://") && !strings.HasPrefix(src, "https://") {
		return func() ([]byte, error) { return os.ReadFile(src) }
	}
	return func() ([]byte, error) {
		resp, err := http.Get(src)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("config fetch: %s", resp.Status)
		}
		return io.ReadAll(resp.Body)
	}
}

// demoWorkload runs a synthetic CPU workload on the host, and an
// FTP-like transfer every minute to exercise port triggers.
func demoWorkload(g *core.Grid, rig *core.HostRig, host string) {
	peer := g.Net.AddHost("peer."+host, simnet.HostConfig{RecvCapacityBps: 1e9})
	g.Connect(rig.Node, peer, simnet.RateGigE, time.Millisecond)
	proc := rig.Host.Spawn("app", 0.1, 64*1024)
	simhost.SineWorkload(rig.Host, proc, 0.05, 0.7, 2*time.Minute, time.Second)
	g.Sched.Every(time.Minute, func() {
		f, err := g.Net.OpenFlow(peer, 30000, rig.Node, 21, simnet.FlowConfig{})
		if err != nil {
			return
		}
		f.Send(50e6, func() { f.Close() })
	})
}

// forwardUpstream re-publishes the whole local stream upstream in
// batched wire frames through a routing client, riding a frame
// subscription so a burst of local events costs one forwarding pass:
// with Ring, to a sharded site, each sensor's records to the gateway
// owning it (directory-advertised ownership with Dir, ring placement
// otherwise); with Forward alone, to a one-gateway ring, all to that
// gatewayd. At shutdown the subscription's queue drains before the
// router flushes and closes.
func (h *SensorHost) forwardUpstream(cfg SensorHostConfig, dc *directory.Client) error {
	upstream := cfg.Forward
	opts := router.Options{Principal: "jammd/" + cfg.Name, BatchMax: hostBatch, Protocol: h.proto}
	if cfg.Ring != "" {
		if cfg.Forward != "" {
			log.Printf("jammd: -ring set; forwarding through the sharded site, not -forward=%s", cfg.Forward)
		}
		upstream = cfg.Ring
		if dc != nil {
			opts.Directory, opts.Base = dc, core.SensorBase
		}
	}
	if upstream == "" {
		return nil
	}
	opts.Ring = ring.New(strings.Split(upstream, ","), 0)
	rt, err := router.New(opts)
	if err != nil {
		return fmt.Errorf("forward: %w", err)
	}
	rt.SetTracer(h.tracer)
	h.reg.Register(rt.MetricsSource())
	// Both callbacks run on the subscription's one goroutine.
	loggedErr := false
	logErr := func(err error) {
		if err != nil && !loggedErr {
			loggedErr = true
			log.Printf("jammd: forward: %v (suppressing further forward errors)", err)
		}
	}
	// Local sensor batches arrive cooked and are renamed host/prog, the
	// paper's hierarchy key. Wire v2 frames arrive sealed and forward
	// verbatim under their original topic: they are already-relayed
	// traffic carrying canonical topics, and relaying the sealed bytes
	// keeps the upstream hop zero-copy.
	sub, err := h.gw.SubscribeFramesFunc(gateway.Request{}, 256, nil,
		func(f *gateway.Frame) { logErr(rt.PublishFrame(f)) },
		func(sensor string, recs []ulm.Record) {
			// One forward per run of consecutive same-program records: a
			// batch of one sensor's records usually forwards as one batch.
			start := 0
			for i := 1; i <= len(recs); i++ {
				if i < len(recs) && recs[i].Prog == recs[start].Prog {
					continue
				}
				logErr(rt.PublishBatch(h.c.Name+"/"+recs[start].Prog, recs[start:i]))
				start = i
			}
		})
	if err != nil {
		rt.Close()
		return fmt.Errorf("forward: %w", err)
	}
	h.forward = append(h.forward, func() {
		for deadline := time.Now().Add(drainTimeout); sub.ChanBacklog() > 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		sub.Cancel()
		rt.Close()
	})
	return nil
}

// controlRegistry exposes the sensor manager as an activatable service,
// "manager": start and stop a sensor by name, list them (status) or the
// running ones. Calls run on the simulation goroutine.
func controlRegistry(driver *core.RealtimeDriver, m *manager.Manager) *activation.Registry {
	reg := activation.NewRegistry()
	reg.Register("manager", func() (activation.Service, error) {
		return activation.Func(func(method string, args activation.Args) (string, error) {
			var out string
			err := driver.Call(func() error {
				switch method {
				case "start":
					return m.StartSensor(args["name"])
				case "stop":
					return m.StopSensor(args["name"])
				case "status":
					var sb strings.Builder
					for _, st := range m.Status() {
						fmt.Fprintf(&sb, "%-12s %-8s running=%-5v interval=%-6s events=%-6d last=%s\n",
							st.Name, st.Type, st.Running, st.Interval, st.Events, st.LastMsg)
					}
					out = sb.String()
					return nil
				case "running":
					out = strings.Join(m.Running(), " ")
					return nil
				}
				return fmt.Errorf("jammd: unknown control method %q", method)
			})
			return out, err
		}), nil
	}, 0)
	return reg
}
