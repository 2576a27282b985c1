// Command jammd is the per-host JAMM agent daemon: a sensor manager, a
// port monitor, and an embedded event gateway for one (simulated)
// monitored host, pinned to the wall clock and serving real TCP
// clients. It publishes its sensors to a directory server (dird),
// serves consumers directly from the embedded gateway, optionally
// forwards all events upstream — to one gatewayd (-forward) or through
// a routing client to a sharded multi-gateway site (-ring, each sensor
// to its owning gateway; batched frames either way) — and exposes
// start/stop control over the activation (RMI-substitute) protocol.
//
//	jammd -host dpss1.lbl.gov -config sensors.json \
//	      -gateway 127.0.0.1:9200 -control 127.0.0.1:9201 \
//	      -dir 127.0.0.1:3890 -demo-workload
//
// The config file (or -config http://...) uses the sensor manager
// format:
//
//	{"sensors": [
//	  {"type": "cpu", "interval": "1s"},
//	  {"type": "netstat", "interval": "1s", "mode": "port", "ports": [21]}
//	], "port_idle": "30s"}
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"jamm/internal/activation"
	"jamm/internal/bridge"
	"jamm/internal/core"
	"jamm/internal/directory"
	"jamm/internal/gateway"
	"jamm/internal/ring"
	"jamm/internal/router"
	"jamm/internal/simhost"
	"jamm/internal/simnet"
	"jamm/internal/telemetry"
	"jamm/internal/ulm"
)

func main() {
	hostName := flag.String("host", "demo.lbl.gov", "monitored host name")
	configSrc := flag.String("config", "", "sensor config: file path or http:// URL (required)")
	refresh := flag.Duration("refresh", 2*time.Minute, "config re-check period (§5.0: 'every few minutes')")
	gwAddr := flag.String("gateway", "127.0.0.1:9200", "embedded gateway listen address")
	ctlAddr := flag.String("control", "127.0.0.1:9201", "control (activation) listen address")
	dirAddr := flag.String("dir", "", "remote directory server address (optional)")
	forward := flag.String("forward", "", "upstream gatewayd address to forward all events to (optional)")
	ringFlag := flag.String("ring", "", "comma-separated gateway addresses of a sharded upstream site; forwarding routes each sensor to its owning gateway (supersedes -forward's single address)")
	var peers multiFlag
	flag.Var(&peers, "peer", "remote gateway address whose topics are mirrored into the embedded gateway (repeatable)")
	async := flag.Int("async", 0, "async event-plane queue depth per shard for the embedded gateway (0 = synchronous)")
	demo := flag.Bool("demo-workload", false, "run a synthetic CPU workload and periodic port-21 transfers")
	wireProto := flag.String("wire-proto", "auto", "wire protocol policy: auto (negotiate binary v2), json (pin the embedded gateway and all outbound links to JSON-per-line), v2 (outbound links refuse to degrade)")
	opsAddr := flag.String("ops-addr", "", "ops HTTP listen address serving /metrics, /healthz, /readyz, /trace, and /debug/pprof (empty = disabled)")
	traceSample := flag.Int("trace-sample", 1024, "stamp a JAMM.TRACE attribute on one in every N published batches for end-to-end hop tracing (0 = off)")
	flag.Parse()
	if *configSrc == "" {
		flag.Usage()
		os.Exit(2)
	}

	clientProto, err := gateway.ParseProto(*wireProto)
	if err != nil {
		log.Fatalf("jammd: -wire-proto: %v", err)
	}

	opts := core.Options{Seed: time.Now().UnixNano(), Epoch: time.Now().UTC()}
	if *dirAddr != "" {
		opts.Directory = directory.NewClient("jammd/"+*hostName, *dirAddr)
	}
	g := core.New(opts)
	site := g.AddSite(*gwAddr) // the advertised gateway address
	rig, err := g.AddHost(site, *hostName, core.HostSpec{
		Net: simnet.HostConfig{RecvCapacityBps: 1e9},
	})
	if err != nil {
		log.Fatalf("jammd: %v", err)
	}
	rig.SyncClock(0, 16*time.Second)

	if *demo {
		peer := g.Net.AddHost("peer."+*hostName, simnet.HostConfig{RecvCapacityBps: 1e9})
		g.Connect(rig.Node, peer, simnet.RateGigE, time.Millisecond)
		proc := rig.Host.Spawn("app", 0.1, 64*1024)
		simhost.SineWorkload(rig.Host, proc, 0.05, 0.7, 2*time.Minute, time.Second)
		// An FTP-like transfer every minute exercises port triggers.
		g.Sched.Every(time.Minute, func() {
			f, err := g.Net.OpenFlow(peer, 30000, rig.Node, 21, simnet.FlowConfig{})
			if err != nil {
				return
			}
			f.Send(50e6, func() { f.Close() })
		})
	}

	// Config source: local file or HTTP server (§5.0).
	fetch := func() ([]byte, error) { return os.ReadFile(*configSrc) }
	if strings.HasPrefix(*configSrc, "http://") || strings.HasPrefix(*configSrc, "https://") {
		fetch = func() ([]byte, error) {
			resp, err := http.Get(*configSrc)
			if err != nil {
				return nil, err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("jammd: config fetch: %s", resp.Status)
			}
			return io.ReadAll(resp.Body)
		}
	}

	driver := core.NewRealtimeDriver(g.Sched, 50*time.Millisecond)
	defer driver.Stop()
	if err := driver.Call(func() error { return rig.Manager.WatchConfig(fetch, *refresh) }); err != nil {
		log.Fatalf("jammd: initial config: %v", err)
	}
	// Keep directory consumer counts and last-message attributes fresh.
	driver.Do(func() {
		g.Sched.Every(30*time.Second, rig.Manager.UpdateDirectory)
	})

	// The embedded gateway serves consumers directly. -async decouples
	// its publish path from consumer delivery behind bounded queues;
	// the shutdown path below drains them before exit.
	if *async > 0 {
		site.Gateway.StartAsync(*async)
	}
	gwSrv, err := gateway.ServeTCP(site.Gateway, *gwAddr, nil)
	if err != nil {
		log.Fatalf("jammd: gateway: %v", err)
	}
	defer gwSrv.Close()
	if clientProto == gateway.ProtoJSON {
		gwSrv.SetMaxVersion(1)
	}

	// Telemetry plane for the embedded gateway: registry + sampled
	// tracer, exposed on -ops-addr. The gateway source already folds in
	// the bus families, so nothing else registers them.
	treg := telemetry.NewRegistry()
	tlog := telemetry.NewTraceLog(1024)
	tracer := telemetry.NewTracer(*hostName, *traceSample, tlog)
	tracer.RegisterStages(treg, "ingest", "bus", "wire", "relay", "mirror", "forward")
	site.Gateway.SetTracer(tracer)
	site.Gateway.Bus().SetDeliverObserver(func(n int, d time.Duration) { tracer.Observe("bus", d) })
	treg.Register(site.Gateway.MetricsSource())
	treg.Register(gwSrv.MetricsSource())

	// Optional upstream forwarding: the whole local stream re-publishes
	// upstream in batched wire frames, riding a batch subscription so a
	// burst of local events costs one forwarding pass. With -ring the
	// upstream is a sharded site and each sensor's records route to the
	// gateway that owns them (directory-advertised ownership when -dir
	// is set, ring placement otherwise); with -forward alone everything
	// targets that single gatewayd.
	if *forward != "" || *ringFlag != "" {
		var sink func(sensor string, recs []ulm.Record) error
		var frameSink func(f *gateway.Frame) error
		if *ringFlag != "" {
			if *forward != "" {
				log.Printf("jammd: -ring set; forwarding through the sharded site, not -forward=%s", *forward)
			}
			rtOpts := router.Options{
				Ring:      ring.New(strings.Split(*ringFlag, ","), 0),
				Principal: "jammd/" + *hostName,
				BatchMax:  64,
				Protocol:  clientProto,
			}
			if *dirAddr != "" {
				rtOpts.Directory = directory.NewClient("jammd/"+*hostName, *dirAddr)
				rtOpts.Base = core.SensorBase
			}
			rt, err := router.New(rtOpts)
			if err != nil {
				log.Fatalf("jammd: forward ring: %v", err)
			}
			defer rt.Close()
			rt.SetTracer(tracer)
			treg.Register(rt.MetricsSource())
			sink = rt.PublishBatch
			frameSink = rt.PublishFrame
		} else {
			fc := gateway.NewClient("jammd/"+*hostName, *forward)
			fc.Protocol = clientProto
			pub, err := fc.NewBatchPublisher(gateway.FormatULM, 64, gateway.FlushWhenIdle)
			if err != nil {
				log.Fatalf("jammd: forward: %v", err)
			}
			defer pub.Close()
			sink = func(sensor string, recs []ulm.Record) error {
				_, err := pub.PublishBatch(sensor, recs)
				return err
			}
			frameSink = func(f *gateway.Frame) error {
				_, err := pub.PublishFrame(f)
				return err
			}
		}
		// The forwarding callbacks run on whichever goroutine is
		// delivering (wire connections, bridges, async workers), so the
		// log-once latch must be atomic.
		var loggedForwardErr atomic.Bool
		logForwardErr := func(err error) {
			if err != nil && loggedForwardErr.CompareAndSwap(false, true) {
				log.Printf("jammd: forward: %v (suppressing further forward errors)", err)
			}
		}
		driver.Do(func() {
			// Frame-native forwarding: local sensor batches arrive cooked
			// (onBatch) and are renamed host/prog, the paper's hierarchy
			// key. Wire v2 frames arrive sealed (onFrame) and forward
			// verbatim under their original topic — frame-plane arrivals
			// are already-relayed traffic carrying canonical topics, and
			// relaying the sealed bytes keeps the upstream hop zero-copy.
			site.Gateway.SubscribeFramesFunc(gateway.Request{}, 256, nil, //nolint:errcheck
				func(f *gateway.Frame) {
					logForwardErr(frameSink(f))
				},
				func(sensor string, recs []ulm.Record) {
					// Forward per run of consecutive same-program records:
					// the upstream sensor name is host/prog, so a batch of
					// one sensor's records usually forwards as one batch.
					start := 0
					for i := 1; i <= len(recs); i++ {
						if i < len(recs) && recs[i].Prog == recs[start].Prog {
							continue
						}
						logForwardErr(sink(*hostName+"/"+recs[start].Prog, recs[start:i]))
						start = i
					}
				})
		})
	}

	// Optional downstream mirroring: -peer gateways' topics appear in
	// the embedded gateway (and its consumers) via bus bridges.
	var mirrors []*bridge.Bridge
	for _, peer := range peers {
		c := gateway.NewClient("jammd/"+*hostName, peer)
		c.Protocol = clientProto
		m := bridge.New(c, site.Gateway, bridge.Options{BatchMax: 64})
		m.SetTracer(tracer)
		treg.Register(m.MetricsSource(peer))
		mirrors = append(mirrors, m)
	}

	// Control surface: the sensor manager as an activatable service.
	reg := activation.NewRegistry()
	reg.Register("manager", func() (activation.Service, error) {
		return activation.Func(func(method string, args activation.Args) (string, error) {
			var out string
			err := driver.Call(func() error {
				switch method {
				case "start":
					return rig.Manager.StartSensor(args["name"])
				case "stop":
					return rig.Manager.StopSensor(args["name"])
				case "status":
					var sb strings.Builder
					for _, st := range rig.Manager.Status() {
						fmt.Fprintf(&sb, "%-12s %-8s running=%-5v interval=%-6s events=%-6d last=%s\n",
							st.Name, st.Type, st.Running, st.Interval, st.Events, st.LastMsg)
					}
					out = sb.String()
					return nil
				case "running":
					out = strings.Join(rig.Manager.Running(), " ")
					return nil
				}
				return fmt.Errorf("jammd: unknown control method %q", method)
			})
			return out, err
		}), nil
	}, 0)
	ctlSrv, err := activation.Serve(reg, *ctlAddr, nil)
	if err != nil {
		log.Fatalf("jammd: control: %v", err)
	}
	defer ctlSrv.Close()

	if *opsAddr != "" {
		health := telemetry.NewHealth()
		if *dirAddr != "" {
			dc := directory.NewClient("jammd/"+*hostName+"/ops", *dirAddr)
			health.AddCheck("directory", func() error { return dc.Ping() })
		}
		opsSrv, err := telemetry.ServeOps(*opsAddr, treg, health, tlog)
		if err != nil {
			log.Fatalf("jammd: %v", err)
		}
		defer opsSrv.Close()
		fmt.Printf("jammd: ops endpoint on http://%s/metrics\n", opsSrv.Addr)
	}

	fmt.Printf("jammd: host %s gateway %s control %s\n", *hostName, gwSrv.Addr(), ctlSrv.Addr())
	if *dirAddr != "" {
		fmt.Printf("jammd: publishing sensors to directory %s\n", *dirAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Drain, not drop: stop ingest (mirrors, sensors, listener), flush
	// in-flight events through delivery while subscriber connections
	// are still up, let their writers empty, then close.
	for _, m := range mirrors {
		m.Close()
	}
	driver.Call(func() error { rig.Manager.Shutdown(); return nil }) //nolint:errcheck
	gwSrv.StopAccepting()
	site.Gateway.Flush()
	gwSrv.DrainSubscribers(5 * time.Second)
	gwSrv.Close()
	site.Gateway.StopAsync()
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }
