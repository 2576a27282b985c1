// Command gatewayd runs a standalone JAMM event gateway: sensor
// managers publish events into it (op=publish on the wire protocol),
// consumers subscribe, query, and read summaries out of it. Run it "on
// a separate host from the grid resources, to ensure that the load from
// the gateway did not affect what was being monitored" (§2.3).
//
// Gateways chain: -peer mirrors every topic of an upstream gateway
// into this one over a batched bridge, so a site gateway can aggregate
// many per-host gateways and a wide-area gateway can aggregate many
// sites. -async decouples the publish path from delivery behind
// bounded queues; on SIGTERM the daemon stops the listener and drains
// in-flight events before exiting.
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
//	gatewayd -addr 127.0.0.1:9100 -name gw.lbl.gov \
//	    -summary 'cpu/VMSTAT_SYS_TIME/VAL' \
//	    -ring 127.0.0.1:9100,127.0.0.1:9101,127.0.0.1:9102 \
//	    -dir 127.0.0.1:9300 -async 1024 \
//	    -archive /var/lib/jamm/history -archive-retain-bytes 1073741824
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"jamm/internal/aggregate"
	"jamm/internal/bridge"
	"jamm/internal/consumer"
	"jamm/internal/directory"
	"jamm/internal/gateway"
	"jamm/internal/histstore"
	"jamm/internal/ring"
	"jamm/internal/router"
	"jamm/internal/telemetry"
	"jamm/internal/ulm"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9100", "listen address")
	name := flag.String("name", "gw", "gateway name")
	async := flag.Int("async", 0, "async event-plane queue depth per shard (0 = synchronous publish)")
	batch := flag.Int("batch", 64, "records per batched wire frame when mirroring peers")
	ringFlag := flag.String("ring", "", "comma-separated gateway addresses of this sharded site, including this gateway")
	replicas := flag.Int("replicas", 1, "placement factor k: records ingested here as primary are mirrored to the sensor's next k-1 ring owners, and ownership entries advertise the replica addresses (requires -ring; 1 = no replication)")
	advertise := flag.String("advertise", "", "address advertised as this gateway's in directory ownership entries (default -addr)")
	dirBase := flag.String("dirbase", "ou=sensors,o=jamm", "base DN for sensor ownership entries")
	archiveDir := flag.String("archive", "", "directory for the persistent event archive (enables the wire history op)")
	archiveSeg := flag.Int64("archive-seg", 0, "archive segment roll threshold in bytes (0 = 4MiB default)")
	archiveRetainAge := flag.Duration("archive-retain-age", 0, "prune archive segments whose newest record is older than this (0 = keep all)")
	archiveRetainBytes := flag.Int64("archive-retain-bytes", 0, "prune oldest archive segments while the archive exceeds this many bytes (0 = keep all)")
	archiveSync := flag.Bool("archive-sync", false, "fsync the archive after every appended batch (durability vs. throughput)")
	wireProto := flag.String("wire-proto", "auto", "wire protocol policy: auto (negotiate binary v2, serve both), json (pin server and peer bridges to JSON-per-line), v2 (peer bridges refuse to degrade)")
	opsAddr := flag.String("ops-addr", "", "ops HTTP listen address serving /metrics, /healthz, /readyz, /trace, and /debug/pprof (empty = disabled)")
	traceSample := flag.Int("trace-sample", 1024, "stamp a JAMM.TRACE attribute on one in every N published batches for end-to-end hop tracing (0 = off)")
	sysEmit := flag.Duration("sys-emit", 0, "republish the metrics registry as _sys/<name>/metrics records every period (0 = off)")
	aggregateOn := flag.Bool("aggregate", false, "stream windowed aggregates (rate, top-k sensors, field quantiles) as synthetic _agg/ topics")
	aggWindow := flag.Duration("aggregate-window", 10*time.Second, "sliding window the aggregates cover")
	aggEmit := flag.Duration("aggregate-emit", time.Second, "aggregate republish period")
	aggField := flag.String("aggregate-field", "VAL", "numeric record field the aggregate quantile sketch folds")
	aggTopK := flag.Int("aggregate-topk", 10, "sensors carried by the aggregate top-k record")
	var summaries, peers, aggPeers, dirs multiFlag
	flag.Var(&summaries, "summary", "summary series as sensor/EVENT/FIELD (repeatable; 1/10/60-minute windows)")
	flag.Var(&peers, "peer", "upstream gateway address whose topics are mirrored into this gateway (repeatable)")
	flag.Var(&aggPeers, "peer-agg", "upstream gateway address whose _agg/ aggregate topics (only) are mirrored into this gateway, so local subscribers read site aggregates here (repeatable)")
	flag.Var(&dirs, "dir", "sensor directory server address for ownership advertisement (repeatable for failover)")
	flag.Parse()

	clientProto, err := gateway.ParseProto(*wireProto)
	if err != nil {
		log.Fatalf("gatewayd: -wire-proto: %v", err)
	}

	gw := gateway.New(*name, nil)
	for _, s := range summaries {
		parts := strings.Split(s, "/")
		if len(parts) != 3 {
			log.Fatalf("gatewayd: bad -summary %q (want sensor/EVENT/FIELD)", s)
		}
		gw.EnableSummary(parts[0], parts[1], parts[2])
	}
	if *async > 0 {
		gw.StartAsync(*async)
	}

	// Telemetry plane: one registry of every subsystem's counters, a
	// sampled record tracer, and (when -ops-addr is set) an HTTP
	// endpoint exposing them. The tracer is attached even without the
	// endpoint so stage latencies accumulate and relayed JAMM.TRACE
	// attributes keep their hop counts honest.
	reg := telemetry.NewRegistry()
	tlog := telemetry.NewTraceLog(1024)
	tracer := telemetry.NewTracer(*name, *traceSample, tlog)
	tracer.RegisterStages(reg, "ingest", "bus", "wire", "relay", "mirror", "forward")
	gw.SetTracer(tracer)
	gw.Bus().SetDeliverObserver(func(n int, d time.Duration) { tracer.Observe("bus", d) })
	reg.Register(gw.MetricsSource())
	var agg *aggregate.Aggregator
	if *aggregateOn {
		agg = aggregate.New(gw, aggregate.Options{
			Window: *aggWindow, Emit: *aggEmit, Field: *aggField, TopK: *aggTopK,
		})
	}
	if *advertise == "" {
		*advertise = *addr
	}
	if strings.HasSuffix(*advertise, ":0") {
		log.Printf("gatewayd: warning: advertising ephemeral address %s; set -advertise so clients can route here", *advertise)
	}

	// Sharded site membership: parse the ring for sanity (the routing
	// itself is client-side; the daemon's job is to be a well-announced
	// member).
	var siteRing *ring.Ring
	if *ringFlag != "" {
		siteRing = ring.New(strings.Split(*ringFlag, ","), 0)
		if !siteRing.Contains(*advertise) {
			log.Printf("gatewayd: warning: advertised address %s is not in -ring %s (clients using ring fallback will not route here)", *advertise, *ringFlag)
		}
	}
	if *replicas > 1 && siteRing == nil {
		log.Fatalf("gatewayd: -replicas=%d requires -ring (replica targets are ring owners)", *replicas)
	}

	// k-replica placement: every record ingested here as primary is
	// forwarded to the sensor's other ring owners, so their gateways
	// (cache, summaries, archive, subscribers) mirror this one and a
	// router can fail over to them when this gateway dies.
	var rep *bridge.Replicator
	if *replicas > 1 {
		rep = bridge.NewReplicator(*advertise, siteRing, *replicas, bridge.ReplicatorOptions{
			Principal: "gatewayd/" + *name,
			BatchMax:  *batch,
		})
		gw.SetForwarder(rep)
		rep.SetTracer(tracer)
		reg.Register(rep.MetricsSource())
	}

	// Directory-advertised ownership: every sensor registered at this
	// gateway (explicitly or implicitly via publish) is advertised as
	// owned by this gateway's address. Attached before the listener
	// starts so even the first wire publish's implicit registration is
	// advertised.
	var ann *router.Announcer
	var dirClient *directory.Client
	if len(dirs) > 0 {
		dirClient = directory.NewClient("gatewayd/"+*name, dirs...)
		ann = router.NewAnnouncer(dirClient, directory.DN(*dirBase), *name, *advertise)
		if *replicas > 1 {
			// Ownership entries carry the replica ladder alongside the
			// owner, so routers fail over without rediscovering the ring.
			ann.SetPlacement(siteRing, *replicas)
		}
		ann.Attach(gw)
		if err := dirClient.Ping(); err != nil {
			log.Printf("gatewayd: warning: sensor directory unreachable: %v (ownership entries will be retried per registration)", err)
		}
	}

	// Persistent history plane: every record published through this
	// gateway is filed into a disk-backed segmented archive and served
	// by the wire history op, surviving daemon restarts.
	var hist *histstore.Store
	var archiver *consumer.Archiver
	if *archiveDir != "" {
		var err error
		hist, err = histstore.Open(*archiveDir, histstore.Options{
			MaxSegmentBytes: *archiveSeg,
			RetainAge:       *archiveRetainAge,
			RetainBytes:     *archiveRetainBytes,
			Sync:            *archiveSync,
		})
		if err != nil {
			log.Fatalf("gatewayd: open archive: %v", err)
		}
		st := hist.Stats()
		if st.Records > 0 {
			log.Printf("gatewayd: archive %s: %d records in %d segments (%d bytes)", *archiveDir, st.Records, st.Segments, st.Bytes)
		}
		// Disk-only archiver riding the bus's batch delivery: one frame
		// and one write syscall per delivered batch, keyed by topic.
		archiver = consumer.NewArchiver(nil)
		archiver.SetHistory(hist)
		archiver.SubscribeBus(gw.Bus(), "")
		// Query falls through to the archive for sensors whose live
		// cache is gone — a freshly rejoined replica answers from disk
		// while anti-entropy repopulates it.
		gw.SetHistoryFallback(hist)
		reg.Register(hist.MetricsSource())
	}

	srv, err := gateway.ServeTCP(gw, *addr, nil)
	if err != nil {
		log.Fatalf("gatewayd: %v", err)
	}
	srv.SetHistory(hist)
	if clientProto == gateway.ProtoJSON {
		srv.SetMaxVersion(1)
	}
	reg.Register(srv.MetricsSource())
	if agg != nil {
		reg.Register(agg.MetricsSource())
	}

	var bridges []*bridge.Bridge
	for _, peer := range peers {
		c := gateway.NewClient("gatewayd/"+*name, peer)
		c.Protocol = clientProto
		b := bridge.New(c, gw, bridge.Options{BatchMax: *batch})
		b.SetTracer(tracer)
		reg.Register(b.MetricsSource(peer))
		bridges = append(bridges, b)
	}
	// Aggregate-only peers: mirror just the upstream's _agg/ topics
	// (a few records per emit period) into the local bus, so consumers
	// subscribed here read the site's aggregate streams without a full
	// event mirror and without reaching upstream themselves.
	for _, peer := range aggPeers {
		c := gateway.NewClient("gatewayd/"+*name, peer)
		c.Protocol = clientProto
		b := bridge.NewAggregateMirror(c, gw.Bus(), bridge.Options{BatchMax: *batch})
		b.SetTracer(tracer)
		reg.Register(b.MetricsSource(peer + "#agg"))
		bridges = append(bridges, b)
	}
	// Rejoin anti-entropy: a gateway (re)starting into a replicated
	// site may have an archive gap covering its downtime — its sensors'
	// records landed only at the replicas. Reconcile against each other
	// ring member in the background so the gap closes without blocking
	// startup or ingest.
	if hist != nil && rep != nil {
		go func() {
			for _, peer := range siteRing.Nodes() {
				if peer == *advertise {
					continue
				}
				c := gateway.NewClient("gatewayd/"+*name, peer)
				c.Protocol = clientProto
				n, err := gateway.ReconcileHistory(hist, c, "")
				c.Close() //nolint:errcheck // the coverage call's kept connection
				if err != nil {
					log.Printf("gatewayd: anti-entropy vs %s: %v", peer, err)
				} else if n > 0 {
					log.Printf("gatewayd: anti-entropy: backfilled %d records from %s", n, peer)
				}
			}
		}()
	}

	// Ops endpoint: Prometheus-text metrics, liveness/readiness, the
	// trace event log, and pprof, on a separate listener so operator
	// traffic never competes with the wire protocol.
	var opsSrv *http.Server
	if *opsAddr != "" {
		health := telemetry.NewHealth()
		if dirClient != nil {
			dc := dirClient
			health.AddCheck("directory", func() error { return dc.Ping() })
		}
		if len(peers) > 0 {
			bs := bridges[:len(peers)]
			health.AddCheck("bridges", func() error {
				for i, b := range bs {
					if !b.Connected() {
						return fmt.Errorf("peer %s disconnected", peers[i])
					}
				}
				return nil
			})
		}
		if opsSrv, err = telemetry.ServeOps(*opsAddr, reg, health, tlog); err != nil {
			log.Fatalf("gatewayd: %v", err)
		}
		fmt.Printf("gatewayd: ops endpoint on http://%s/metrics\n", opsSrv.Addr)
	}

	// Metrics republisher: the registry folded into _sys/<name>/metrics
	// records each period, so the monitoring system monitors itself
	// through its own event plane (subscribe, archive, aggregate).
	var sysRep *telemetry.Republisher
	if *sysEmit > 0 {
		sysRep = telemetry.NewRepublisher(reg, *name, *sysEmit, func(sensor string, recs []ulm.Record) {
			gw.PublishBatch(sensor, recs)
		})
	}

	ringSize := 0
	if siteRing != nil {
		ringSize = siteRing.Len()
	}
	fmt.Printf("gatewayd: %s listening on %s (peers=%d async=%d ring=%d replicas=%d dir=%d archive=%s)\n",
		*name, srv.Addr(), len(peers), *async, ringSize, *replicas, len(dirs), *archiveDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Drain, not drop: stop ingest (bridges + listener) first, flush
	// every in-flight event through delivery while subscriber
	// connections are still up, let their writers empty, then close.
	if sysRep != nil {
		// Stop self-monitoring first so no _sys/ records land after the
		// event plane starts draining.
		sysRep.Close()
	}
	for _, b := range bridges {
		b.Close()
	}
	srv.StopAccepting()
	gw.Flush()
	if rep != nil {
		// Flush replica links after local delivery has drained, so the
		// last primary ingests reach their mirrors too.
		rep.Close()
		if st := rep.Stats(); st.Shed > 0 {
			log.Printf("gatewayd: replication shed %d records (of %d replicated)", st.Shed, st.Replicated)
		}
	}
	srv.DrainSubscribers(5 * time.Second)
	srv.Close()
	gw.StopAsync()
	if opsSrv != nil {
		opsSrv.Close()
	}
	if agg != nil {
		agg.Close()
	}
	if archiver != nil {
		// Delivery has drained, so every published record has reached
		// the archiver; seal the archive so the next run serves it.
		archiver.Close()
		if n := archiver.HistErrors(); n > 0 {
			log.Printf("gatewayd: archive: %d batches failed to persist", n)
		}
		if err := hist.Close(); err != nil {
			log.Printf("gatewayd: archive close: %v", err)
		}
	}
	if ann != nil {
		// Stop routing clients at a dead gateway: drain queued
		// advertisements, then withdraw everything this gateway owns.
		ann.Close()
		ann.WithdrawAll()
	}
	st := srv.WireStats()
	if d := st.Drops(); d > 0 {
		log.Printf("gatewayd: wire drops at shutdown: %d bad records, %d bad lines, %d slow-subscriber drops", st.BadRecords, st.BadLines, st.SubDrops)
	}
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }
