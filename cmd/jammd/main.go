// Command jammd is the per-host JAMM agent daemon: a sensor manager, a
// port monitor, and an embedded event gateway for one (simulated)
// monitored host, pinned to the wall clock and serving real TCP
// clients. It publishes its sensors to a directory server (dird),
// serves consumers directly from the embedded gateway, optionally
// forwards all events upstream — to one gatewayd (-forward) or through
// a routing client to a sharded multi-gateway site (-ring, each sensor
// to its owning gateway; batched frames either way) — and exposes
// start/stop control over the activation (RMI-substitute) protocol.
// The assembly itself, and its drained shutdown, is internal/site's
// StartSensorHost; this command maps flags onto its SensorHostConfig.
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
	"log"
	"os"
	"os/signal"
	"syscall"

	"jamm/internal/site"
)

func main() {
	cfg := site.DefaultSensorHostConfig()
	bindFlags(flag.CommandLine, &cfg)
	flag.Parse()
	if cfg.ConfigSource == "" {
		flag.Usage()
		os.Exit(2)
	}
	h, err := site.StartSensorHost(cfg)
	if err != nil {
		log.Fatalf("jammd: %v", err)
	}
	if cfg.OpsAddr != "" {
		fmt.Printf("jammd: ops endpoint on http://%s/metrics\n", h.OpsAddr())
	}
	fmt.Printf("jammd: host %s gateway %s control %s\n", cfg.Name, h.Addr(), h.ControlAddr())
	if cfg.Dir != "" {
		fmt.Printf("jammd: publishing sensors to directory %s\n", cfg.Dir)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	h.Close()
}

// bindFlags binds each flag to its field of cfg, whose value is the
// flag's default.
func bindFlags(fs *flag.FlagSet, cfg *site.SensorHostConfig) {
	fs.StringVar(&cfg.Name, "host", cfg.Name, "monitored host name")
	fs.StringVar(&cfg.ConfigSource, "config", cfg.ConfigSource, "sensor config: file path or http:// URL (required)")
	fs.DurationVar(&cfg.Refresh, "refresh", cfg.Refresh, "config re-check period (§5.0: 'every few minutes')")
	fs.StringVar(&cfg.Addr, "gateway", cfg.Addr, "embedded gateway listen address")
	fs.StringVar(&cfg.Control, "control", cfg.Control, "control (activation) listen address")
	fs.StringVar(&cfg.Dir, "dir", cfg.Dir, "remote directory server address (optional)")
	fs.StringVar(&cfg.Forward, "forward", cfg.Forward, "upstream gatewayd address to forward all events to (optional)")
	fs.StringVar(&cfg.Ring, "ring", cfg.Ring, "comma-separated gateway addresses of a sharded upstream site; forwarding routes each sensor to its owning gateway (supersedes -forward's single address)")
	fs.Func("peer", "remote gateway address whose topics are mirrored into the embedded gateway (repeatable)", func(v string) error { cfg.Peers = append(cfg.Peers, v); return nil })
	fs.BoolVar(&cfg.DemoWorkload, "demo-workload", cfg.DemoWorkload, "run a synthetic CPU workload and periodic port-21 transfers")
	fs.StringVar(&cfg.WireProto, "wire-proto", cfg.WireProto, "wire protocol policy: auto (negotiate binary v2), json (pin the embedded gateway and all outbound links to JSON-per-line), v2 (outbound links refuse to degrade)")
	fs.StringVar(&cfg.OpsAddr, "ops-addr", cfg.OpsAddr, "ops HTTP listen address serving /metrics, /healthz, /readyz, /trace, and /debug/pprof (empty = disabled)")
	fs.IntVar(&cfg.TraceSample, "trace-sample", cfg.TraceSample, "stamp a JAMM.TRACE attribute on one in every N published batches for end-to-end hop tracing (0 = off)")
}
