package site

import (
	"fmt"
	"log"
	"strings"
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

// GatewayConfig configures a stand-alone gateway: one field per
// cmd/gatewayd flag.
type GatewayConfig struct {
	Common
	Batch              int           // -batch: records per batched wire frame on peer and replica links
	Ring               string        // -ring: comma-separated gateway addresses of this sharded site, this one included
	Replicas           int           // -replicas: placement factor k (needs Ring; 1 = no replication)
	Advertise          string        // -advertise: address written in ownership entries ("" = Addr)
	DirBase            string        // -dirbase: base DN of ownership entries
	Dirs               []string      // -dir: sensor directory servers, in failover order
	Summaries          []string      // -summary: sensor/EVENT/FIELD summary series
	AggPeers           []string      // -peer-agg: upstreams whose _agg/ topics alone are mirrored in
	Archive            string        // -archive: persistent event archive directory ("" = none)
	ArchiveSeg         int64         // -archive-seg: segment roll threshold in bytes (0 = 4MiB)
	ArchiveRetainAge   time.Duration // -archive-retain-age (0 = keep all)
	ArchiveRetainBytes int64         // -archive-retain-bytes (0 = keep all)
	ArchiveSync        bool          // -archive-sync: fsync after every appended batch
	SysEmit            time.Duration // -sys-emit: republish the registry as _sys/<name>/metrics (0 = off)
	Aggregate          bool          // -aggregate: stream windowed aggregates as _agg/ topics
	AggregateWindow    time.Duration // -aggregate-window
	AggregateEmit      time.Duration // -aggregate-emit
	AggregateField     string        // -aggregate-field
	AggregateTopK      int           // -aggregate-topk
}

// DefaultGatewayConfig returns gatewayd's defaults.
func DefaultGatewayConfig() GatewayConfig {
	return GatewayConfig{
		Common: Common{Name: "gw", Addr: "127.0.0.1:9100", WireProto: "auto", TraceSample: 1024},
		Batch:  64, Replicas: 1, DirBase: "ou=sensors,o=jamm",
		AggregateWindow: 10 * time.Second, AggregateEmit: time.Second, AggregateField: "VAL", AggregateTopK: 10,
	}
}

// Gateway is a running stand-alone gateway.
type Gateway struct{ *shell }

// StartGateway starts the gateway cfg describes: its summaries,
// aggregator, replicator, archive, directory advertisements, listener,
// peer bridges, anti-entropy, ops endpoint and self-metrics. Close is
// its drained shutdown.
func StartGateway(cfg GatewayConfig) (*Gateway, error) {
	gw := gateway.New(cfg.Name, nil)
	for _, sum := range cfg.Summaries {
		parts := strings.Split(sum, "/")
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad -summary %q (want sensor/EVENT/FIELD)", sum)
		}
		gw.EnableSummary(parts[0], parts[1], parts[2])
	}
	// Sharded site membership: the ring is parsed for sanity (routing
	// is client-side; the daemon's job is to be a well-announced member).
	var siteRing *ring.Ring
	if cfg.Ring != "" {
		siteRing = ring.New(strings.Split(cfg.Ring, ","), 0)
	}
	if cfg.Replicas > 1 && siteRing == nil {
		return nil, fmt.Errorf("-replicas=%d requires -ring (replica targets are ring owners)", cfg.Replicas)
	}
	s, err := newShell("gatewayd", cfg.Common, gw)
	if err != nil {
		return nil, err
	}
	h := &Gateway{shell: s}
	if err := h.start(cfg, siteRing); err != nil {
		h.Close()
		return nil, err
	}
	return h, nil
}

func (h *Gateway) start(cfg GatewayConfig, siteRing *ring.Ring) error {
	advertise := cfg.Advertise
	if advertise == "" {
		advertise = cfg.Addr
	}
	if strings.HasSuffix(advertise, ":0") {
		log.Printf("gatewayd: warning: advertising ephemeral address %s; set -advertise so clients can route here", advertise)
	}
	if siteRing != nil && !siteRing.Contains(advertise) {
		log.Printf("gatewayd: warning: advertised address %s is not in -ring %s (clients using ring fallback will not route here)", advertise, cfg.Ring)
	}
	if cfg.Aggregate {
		agg := aggregate.New(h.gw, aggregate.Options{
			Window: cfg.AggregateWindow, Emit: cfg.AggregateEmit, Field: cfg.AggregateField, TopK: cfg.AggregateTopK,
		})
		h.reg.Register(agg.MetricsSource())
		// Its emit loop publishes _agg/ records: it stops with ingest.
		h.ingest = append(h.ingest, agg.Close)
	}
	// k-replica placement: every record ingested here as primary is
	// forwarded to the sensor's other ring owners, so their gateways
	// mirror this one and a router can fail over to them. The links are
	// flushed after local delivery has drained, so the last primary
	// ingests reach their mirrors too.
	var rep *bridge.Replicator
	if cfg.Replicas > 1 {
		rep = bridge.NewReplicator(advertise, siteRing, cfg.Replicas, bridge.ReplicatorOptions{
			Principal: "gatewayd/" + cfg.Name,
			BatchMax:  cfg.Batch,
		})
		h.gw.SetForwarder(rep)
		rep.SetTracer(h.tracer)
		h.reg.Register(rep.MetricsSource())
		h.forward = append(h.forward, func() {
			rep.Close()
			if st := rep.Stats(); st.Shed > 0 {
				log.Printf("gatewayd: replication shed %d records (of %d replicated)", st.Shed, st.Replicated)
			}
		})
	}
	hist, err := h.openArchive(cfg)
	if err != nil {
		return err
	}
	dc := h.announce(cfg, advertise, siteRing)
	if err := h.listen(hist); err != nil {
		return err
	}
	h.mirror(cfg.Batch)
	// Aggregate-only peers: just the upstream's _agg/ topics (a few
	// records per emit period), so consumers here read the site's
	// aggregate streams without a full event mirror.
	for _, peer := range cfg.AggPeers {
		h.addBridge(bridge.NewAggregateMirror(h.client(peer), h.gw.Bus(), bridge.Options{BatchMax: cfg.Batch}), peer+"#agg")
	}
	if hist != nil && rep != nil {
		go h.antiEntropy(hist, siteRing, advertise)
	}
	if err := h.serveOps(dc); err != nil {
		return err
	}
	// Self-monitoring: the registry folded into _sys/<name>/metrics
	// records each period, through the gateway's own event plane. It
	// stops first, so no _sys/ record lands once the drain has begun.
	if cfg.SysEmit > 0 {
		sysRep := telemetry.NewRepublisher(h.reg, cfg.Name, cfg.SysEmit, func(sensor string, recs []ulm.Record) {
			h.gw.PublishBatch(sensor, recs)
		})
		h.ingest = append(h.ingest, sysRep.Close)
	}
	return nil
}

// openArchive opens the persistent history plane: every record
// published through the gateway is filed into a disk-backed segmented
// archive, served by the wire history op across restarts, and sealed
// at shutdown once delivery has drained. It returns nil without
// -archive.
func (h *Gateway) openArchive(cfg GatewayConfig) (*histstore.Store, error) {
	if cfg.Archive == "" {
		return nil, nil
	}
	hist, err := histstore.Open(cfg.Archive, histstore.Options{
		MaxSegmentBytes: cfg.ArchiveSeg,
		RetainAge:       cfg.ArchiveRetainAge,
		RetainBytes:     cfg.ArchiveRetainBytes,
		Sync:            cfg.ArchiveSync,
	})
	if err != nil {
		return nil, fmt.Errorf("open archive: %w", err)
	}
	if st := hist.Stats(); st.Records > 0 {
		log.Printf("gatewayd: archive %s: %d records in %d segments (%d bytes)", cfg.Archive, st.Records, st.Segments, st.Bytes)
	}
	// Disk-only archiver riding the bus's batch delivery: one frame and
	// one write syscall per delivered batch, keyed by topic.
	archiver := consumer.NewArchiver(nil)
	archiver.SetHistory(hist)
	archiver.SubscribeBus(h.gw.Bus(), "")
	// Query falls through to the archive for sensors whose live cache is
	// gone: a freshly rejoined replica answers from disk while
	// anti-entropy repopulates it.
	h.gw.SetHistoryFallback(hist)
	h.reg.Register(hist.MetricsSource())
	h.release = append(h.release, func() {
		archiver.Close()
		if n := archiver.HistErrors(); n > 0 {
			log.Printf("gatewayd: archive: %d batches failed to persist", n)
		}
		if err := hist.Close(); err != nil {
			log.Printf("gatewayd: archive close: %v", err)
		}
	})
	return hist, nil
}

// announce advertises every sensor registered here (explicitly, or
// implicitly by its first publish) in the directory as owned by
// advertise, so routing clients reach this gateway by lookup. It is
// attached before the listener starts, so even the first wire publish
// is advertised; at shutdown the queued advertisements drain and
// everything this gateway owns is withdrawn. It returns the directory
// client, nil without -dir.
func (h *Gateway) announce(cfg GatewayConfig, advertise string, siteRing *ring.Ring) *directory.Client {
	if len(cfg.Dirs) == 0 {
		return nil
	}
	dc := directory.NewClient("gatewayd/"+cfg.Name, cfg.Dirs...)
	ann := router.NewAnnouncer(dc, directory.DN(cfg.DirBase), cfg.Name, advertise)
	if cfg.Replicas > 1 {
		// Entries carry the replica ladder beside the owner, so routers
		// fail over without rediscovering the ring.
		ann.SetPlacement(siteRing, cfg.Replicas)
	}
	ann.Attach(h.gw)
	h.release = append(h.release, func() {
		ann.Close()
		ann.WithdrawAll()
	})
	if err := dc.Ping(); err != nil {
		log.Printf("gatewayd: warning: sensor directory unreachable: %v (ownership entries will be retried per registration)", err)
	}
	return dc
}

// antiEntropy closes the archive gap a gateway (re)starting into a
// replicated site may have over its downtime, when its sensors' records
// landed only at the replicas: it reconciles against each other ring
// member in turn, without blocking start-up or ingest.
func (h *Gateway) antiEntropy(hist *histstore.Store, siteRing *ring.Ring, self string) {
	for _, peer := range siteRing.Nodes() {
		if peer == self {
			continue
		}
		c := h.client(peer)
		n, err := gateway.ReconcileHistory(hist, c, "")
		c.Close() //nolint:errcheck // the coverage call's kept connection
		if err != nil {
			log.Printf("gatewayd: anti-entropy vs %s: %v", peer, err)
		} else if n > 0 {
			log.Printf("gatewayd: anti-entropy: backfilled %d records from %s", n, peer)
		}
	}
}
