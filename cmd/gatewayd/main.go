// Command gatewayd runs a standalone JAMM event gateway: sensor
// managers publish events into it (op=publish on the wire protocol),
// consumers subscribe, query, and read summaries out of it. Run it "on
// a separate host from the grid resources, to ensure that the load from
// the gateway did not affect what was being monitored" (§2.3).
//
// Gateways chain: -peer mirrors every topic of an upstream gateway
// into this one over a batched bridge, so a site gateway can aggregate
// many per-host gateways and a wide-area gateway can aggregate many
// sites. On SIGTERM the daemon stops the listener and drains in-flight
// events before exiting.
//
// Gateways also shard: -ring names every gateway address of a
// multi-gateway site (including this one), and -dir a sensor directory
// server. Sensors registered here — explicitly or implicitly by their
// first published record — are advertised in the directory as owned by
// this gateway (-advertise is the address written, defaulting to
// -addr), so routing clients (internal/router, jamm.NewRouter) reach
// the owning gateway by lookup with ring placement as the fallback.
// The advertisements are withdrawn on drained shutdown.
//
// Gateways also remember: -archive names a directory for the
// persistent history plane. Every published record is filed into a
// disk-backed segmented archive (internal/histstore) and served back
// over the wire protocol's history op — so `jammctl history` answers
// time-range queries across daemon restarts. Retention is whole-
// segment pruning by -archive-retain-age / -archive-retain-bytes.
//
// The assembly itself, and its drained shutdown, is internal/site's
// StartGateway; this command maps flags onto its GatewayConfig.
//
//	gatewayd -addr 127.0.0.1:9100 -name gw.lbl.gov \
//	    -summary 'cpu/VMSTAT_SYS_TIME/VAL' \
//	    -ring 127.0.0.1:9100,127.0.0.1:9101,127.0.0.1:9102 \
//	    -dir 127.0.0.1:9300 \
//	    -archive /var/lib/jamm/history -archive-retain-bytes 1073741824
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"jamm/internal/ring"
	"jamm/internal/site"
)

func main() {
	cfg := site.DefaultGatewayConfig()
	bindFlags(flag.CommandLine, &cfg)
	flag.Parse()
	gw, err := site.StartGateway(cfg)
	if err != nil {
		log.Fatalf("gatewayd: %v", err)
	}
	if cfg.OpsAddr != "" {
		fmt.Printf("gatewayd: ops endpoint on http://%s/metrics\n", gw.OpsAddr())
	}
	ringSize := 0
	if cfg.Ring != "" {
		ringSize = ring.New(strings.Split(cfg.Ring, ","), 0).Len()
	}
	fmt.Printf("gatewayd: %s listening on %s (peers=%d ring=%d replicas=%d dir=%d archive=%s)\n",
		cfg.Name, gw.Addr(), len(cfg.Peers), ringSize, cfg.Replicas, len(cfg.Dirs), cfg.Archive)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	gw.Close()
}

// bindFlags binds each flag to its field of cfg, whose value is the
// flag's default.
func bindFlags(fs *flag.FlagSet, cfg *site.GatewayConfig) {
	fs.StringVar(&cfg.Addr, "addr", cfg.Addr, "listen address")
	fs.StringVar(&cfg.Name, "name", cfg.Name, "gateway name")
	fs.IntVar(&cfg.Batch, "batch", cfg.Batch, "records per batched wire frame when mirroring peers")
	fs.StringVar(&cfg.Ring, "ring", cfg.Ring, "comma-separated gateway addresses of this sharded site, including this gateway")
	fs.IntVar(&cfg.Replicas, "replicas", cfg.Replicas, "placement factor k: records ingested here as primary are mirrored to the sensor's next k-1 ring owners, and ownership entries advertise the replica addresses (requires -ring; 1 = no replication)")
	fs.StringVar(&cfg.Advertise, "advertise", cfg.Advertise, "address advertised as this gateway's in directory ownership entries (default -addr)")
	fs.StringVar(&cfg.DirBase, "dirbase", cfg.DirBase, "base DN for sensor ownership entries")
	fs.StringVar(&cfg.Archive, "archive", cfg.Archive, "directory for the persistent event archive (enables the wire history op)")
	fs.Int64Var(&cfg.ArchiveSeg, "archive-seg", cfg.ArchiveSeg, "archive segment roll threshold in bytes (0 = 4MiB default)")
	fs.DurationVar(&cfg.ArchiveRetainAge, "archive-retain-age", cfg.ArchiveRetainAge, "prune archive segments whose newest record is older than this (0 = keep all)")
	fs.Int64Var(&cfg.ArchiveRetainBytes, "archive-retain-bytes", cfg.ArchiveRetainBytes, "prune oldest archive segments while the archive exceeds this many bytes (0 = keep all)")
	fs.BoolVar(&cfg.ArchiveSync, "archive-sync", cfg.ArchiveSync, "fsync the archive after every appended batch (durability vs. throughput)")
	fs.StringVar(&cfg.WireProto, "wire-proto", cfg.WireProto, "wire protocol policy: auto (negotiate binary v2, serve both), json (pin server and peer bridges to JSON-per-line), v2 (peer bridges refuse to degrade)")
	fs.StringVar(&cfg.OpsAddr, "ops-addr", cfg.OpsAddr, "ops HTTP listen address serving /metrics, /healthz, /readyz, /trace, and /debug/pprof (empty = disabled)")
	fs.IntVar(&cfg.TraceSample, "trace-sample", cfg.TraceSample, "stamp a JAMM.TRACE attribute on one in every N published batches for end-to-end hop tracing (0 = off)")
	fs.DurationVar(&cfg.SysEmit, "sys-emit", cfg.SysEmit, "republish the metrics registry as _sys/<name>/metrics records every period (0 = off)")
	fs.BoolVar(&cfg.Aggregate, "aggregate", cfg.Aggregate, "stream windowed aggregates (rate, top-k sensors, field quantiles) as synthetic _agg/ topics")
	fs.DurationVar(&cfg.AggregateWindow, "aggregate-window", cfg.AggregateWindow, "sliding window the aggregates cover")
	fs.DurationVar(&cfg.AggregateEmit, "aggregate-emit", cfg.AggregateEmit, "aggregate republish period")
	fs.StringVar(&cfg.AggregateField, "aggregate-field", cfg.AggregateField, "numeric record field the aggregate quantile sketch folds")
	fs.IntVar(&cfg.AggregateTopK, "aggregate-topk", cfg.AggregateTopK, "sensors carried by the aggregate top-k record")
	fs.Func("summary", "summary series as sensor/EVENT/FIELD (repeatable; 1/10/60-minute windows)", func(v string) error { cfg.Summaries = append(cfg.Summaries, v); return nil })
	fs.Func("peer", "upstream gateway address whose topics are mirrored into this gateway (repeatable)", func(v string) error { cfg.Peers = append(cfg.Peers, v); return nil })
	fs.Func("peer-agg", "upstream gateway address whose _agg/ aggregate topics (only) are mirrored into this gateway, so local subscribers read site aggregates here (repeatable)", func(v string) error { cfg.AggPeers = append(cfg.AggPeers, v); return nil })
	fs.Func("dir", "sensor directory server address for ownership advertisement (repeatable for failover)", func(v string) error { cfg.Dirs = append(cfg.Dirs, v); return nil })
}
