// Package jamm is a Go implementation of JAMM — Java Agents for
// Monitoring and Management — the Grid monitoring sensor management
// system of Tierney, Crowley, Gunter, Lee and Thompson, "A Monitoring
// Sensor Management System for Grid Environments" (HPDC 2000,
// LBNL-46847), together with the NetLogger toolkit it feeds and the
// simulated Grid substrate its evaluation ran on.
//
// The package is a facade re-exporting the stable public API from the
// internal packages:
//
//   - deployment assembly (Grid, Site, HostRig) and the ready-made
//     Matisse scenario of the paper's §6 evaluation;
//   - the JAMM plane: sensors, sensor managers with port monitors,
//     event gateways with filtering and summaries, the LDAP-like
//     sensor directory, consumers (collector, archiver, process
//     monitor, overview monitor) and event archives;
//   - the NetLogger toolkit: ULM event records, the client logging
//     API, log collection, and the nlv terminal visualizer;
//   - security: X.509 certificate authority, gridmap, and Akenti-style
//     use-condition policies behind one authorization interface.
//
// A minimal deployment:
//
//	g := jamm.NewGrid(jamm.GridOptions{Seed: 1})
//	site := g.AddSite("gw.lbl.gov")
//	rig, _ := g.AddHost(site, "h1.lbl.gov", jamm.HostSpec{})
//	rig.Manager.Apply(jamm.ManagerConfig{Sensors: []jamm.SensorSpec{
//		{Type: "cpu", Interval: jamm.Interval(time.Second)},
//	}})
//	site.Gateway.Subscribe(jamm.Request{Sensor: "cpu"}, func(r jamm.Record) {
//		fmt.Println(r)
//	})
//	g.RunFor(10 * time.Second)
package jamm

import (
	"crypto/tls"
	"net/http"
	"time"

	"jamm/internal/aggregate"
	"jamm/internal/archive"
	"jamm/internal/auth"
	"jamm/internal/bridge"
	"jamm/internal/bus"
	"jamm/internal/consumer"
	"jamm/internal/core"
	"jamm/internal/directory"
	"jamm/internal/dpss"
	"jamm/internal/gateway"
	"jamm/internal/histstore"
	"jamm/internal/iperf"
	"jamm/internal/manager"
	"jamm/internal/netlog"
	"jamm/internal/nlv"
	"jamm/internal/ring"
	"jamm/internal/router"
	"jamm/internal/telemetry"
	"jamm/internal/ulm"
)

// Deployment assembly (internal/core).
type (
	// Grid is one assembled JAMM deployment on simulated infrastructure.
	Grid = core.Grid
	// GridOptions configures a Grid.
	GridOptions = core.Options
	// Site is a gateway domain.
	Site = core.Site
	// HostRig bundles one monitored host's substrate and JAMM agents.
	HostRig = core.HostRig
	// HostSpec sizes a monitored host.
	HostSpec = core.HostSpec
	// MatisseOptions configures the §6 Matisse scenario.
	MatisseOptions = core.MatisseOptions
	// MatisseResult is the Matisse scenario outcome.
	MatisseResult = core.MatisseResult
)

// NewGrid builds an empty deployment.
func NewGrid(opts GridOptions) *Grid { return core.New(opts) }

// RunMatisse runs the paper's §6 Matisse evaluation scenario.
func RunMatisse(opts MatisseOptions) (*MatisseResult, error) { return core.RunMatisse(opts) }

// Link bandwidths for topology construction (bits per second).
const (
	RateOC48  = core.RateOC48
	RateOC12  = core.RateOC12
	RateGigE  = core.RateGigE
	Rate100BT = core.Rate100BT
)

// Directory tree constants.
const (
	// DirBase is the root of the JAMM directory information tree.
	DirBase = core.DirBase
	// SensorBase is where sensor managers publish sensors.
	SensorBase = core.SensorBase
	// ArchiveBase is where archiver agents publish archives.
	ArchiveBase = core.ArchiveBase
)

// Events (internal/ulm).
type (
	// Record is one ULM event record.
	Record = ulm.Record
	// Field is one user-defined ULM field.
	Field = ulm.Field
)

// ParseRecord parses one ULM line.
func ParseRecord(line string) (Record, error) { return ulm.Parse(line) }

// Event gateway (internal/gateway).
type (
	// Gateway is an event gateway.
	Gateway = gateway.Gateway
	// GatewayConfig tunes a gateway's event-distribution core.
	GatewayConfig = gateway.Config
	// GatewayStats counts gateway traffic.
	GatewayStats = gateway.Stats
	// Request describes a consumer's subscription or query.
	Request = gateway.Request
	// Subscription is an open event channel.
	Subscription = gateway.Subscription
	// SummaryPoint is one summary window's statistics.
	SummaryPoint = gateway.SummaryPoint
	// DeliverMode selects gateway-side filtering.
	DeliverMode = gateway.DeliverMode
)

// Event bus (internal/bus): the sharded publish/subscribe core under
// every gateway, exposed for deployments that want raw topic
// subscriptions, silent taps, or batched publishing.
// Batches are the native delivery unit end to end: Bus.PublishBatch /
// Gateway.PublishBatch fan a whole []Record out in one pass,
// SubscribeBatch-style subscriptions receive it as one slice, and
// Router.PublishBatch, GatewayPublisher.PublishBatch and the bridge
// carry batches across the wire — single-record Publish/Subscribe are
// thin adapters over the same path.
type (
	// EventBus is a sharded publish/subscribe core.
	EventBus = bus.Bus
	// BusOptions configures an EventBus.
	BusOptions = bus.Options
	// BusStats counts bus traffic.
	BusStats = bus.Stats
	// BusSubscription is one subscriber's registration on a bus.
	BusSubscription = bus.Subscription
	// BusHook decides a record's fate before delivery.
	BusHook = bus.Hook
	// BusDecision is a hook's verdict (Deliver / Suppress / Skip).
	BusDecision = bus.Decision
)

// Bus hook decisions.
const (
	BusDeliver  = bus.Deliver
	BusSuppress = bus.Suppress
	BusSkip     = bus.Skip
)

// NewEventBus returns an empty sharded event bus.
func NewEventBus(opts BusOptions) *EventBus { return bus.New(opts) }

// Remote event plane (internal/gateway wire protocol, internal/bridge):
// gateways served over TCP, wire clients and publishers, and bus-to-bus
// bridges that mirror a remote gateway's topics into a local bus.
type (
	// GatewayServer exposes a Gateway over the wire protocol.
	GatewayServer = gateway.TCPServer
	// GatewayClient talks to one remote gateway server.
	GatewayClient = gateway.Client
	// GatewayPublisher streams (optionally batched) events to a remote
	// gateway over one persistent connection.
	GatewayPublisher = gateway.Publisher
	// GatewayStream is an open streaming subscription on a remote
	// gateway, carrying each record with its topic.
	GatewayStream = gateway.Stream
	// StreamOptions tunes a streaming subscription (format, batching).
	StreamOptions = gateway.StreamOptions
	// WireStats counts wire-path loss at a gateway server.
	WireStats = gateway.WireStats
	// TopicRecord is one delivered record with its sensor (bus topic) —
	// the unit GatewayClient.History returns.
	TopicRecord = gateway.TopicRecord
	// TopicBatch is one delivered batch with its sensor — the unit a
	// wire subscription's bounded queue holds.
	TopicBatch = gateway.TopicBatch
	// Bridge mirrors a remote gateway's topics into a local bus or
	// gateway, with batched frames and reconnect-with-backoff.
	Bridge = bridge.Bridge
	// BridgeOptions configures a Bridge.
	BridgeOptions = bridge.Options
	// BridgeStats counts one bridge's traffic.
	BridgeStats = bridge.Stats
	// BridgeTarget is where a bridge republishes mirrored records;
	// *EventBus and *Gateway both satisfy it.
	BridgeTarget = bridge.Target
)

// Wire payload formats.
const (
	FormatULM    = gateway.FormatULM
	FormatXML    = gateway.FormatXML
	FormatBinary = gateway.FormatBinary
)

// Proto selects a client's wire protocol policy (GatewayClient.Protocol).
type Proto = gateway.Proto

// Wire protocol policies: negotiate the binary v2 framing when the
// server supports it (the default), pin JSON-per-line, or insist on v2.
const (
	ProtoAuto = gateway.ProtoAuto
	ProtoJSON = gateway.ProtoJSON
	ProtoV2   = gateway.ProtoV2
)

// ServeGateway exposes gw over the wire protocol on addr ("" or
// "127.0.0.1:0" for ephemeral); a non-nil tlsCfg enables TLS with
// certificate-derived principals.
func ServeGateway(gw *Gateway, addr string, tlsCfg *tls.Config) (*GatewayServer, error) {
	return gateway.ServeTCP(gw, addr, tlsCfg)
}

// NewGatewayClient returns a wire client for the gateway at addr. Its
// read-only request/answer calls (Ping, Query, Summary, List, Coverage)
// reuse a connection or two that the client keeps open between calls —
// re-sending once on a fresh dial when a kept one has gone stale — so
// the caller closes the client when done with it (GatewayClient.Close).
func NewGatewayClient(principal, addr string) *GatewayClient {
	return gateway.NewClient(principal, addr)
}

// NewBridge starts a bridge mirroring the remote gateway behind client
// into target (a local bus or gateway). The client stays the caller's:
// closing the bridge does not close it.
func NewBridge(client *GatewayClient, target BridgeTarget, opts BridgeOptions) *Bridge {
	return bridge.New(client, target, opts)
}

// Persistent history plane (internal/histstore): a disk-backed,
// segmented, append-only event archive with a sparse per-segment index
// (time bounds + sensor set), crash recovery by torn-tail truncation,
// whole-segment retention, and batched replay. Attach one to a served
// gateway (GatewayServer.SetHistory, or gatewayd -archive) and the
// wire protocol's history op serves time-range queries that survive
// daemon restarts; Router.History routes them across a sharded site.
type (
	// HistoryStore is a disk-backed segmented event archive.
	HistoryStore = histstore.Store
	// HistoryOptions tunes segment rolling, retention, and durability.
	HistoryOptions = histstore.Options
	// HistoryQuery selects archived records by time range, sensor,
	// event types, and severity levels.
	HistoryQuery = histstore.Query
	// HistoryEntry is one archived record with its sensor topic.
	HistoryEntry = histstore.Entry
	// HistoryStats snapshots a history store's contents and counters.
	HistoryStats = histstore.Stats
	// HistoryRequest is a historical query against a remote gateway's
	// archive (GatewayClient.History, Router.History).
	HistoryRequest = gateway.HistoryRequest
)

// OpenHistory opens (or creates) a persistent event archive in dir,
// recovering cleanly from a crashed previous run.
func OpenHistory(dir string, opts HistoryOptions) (*HistoryStore, error) {
	return histstore.Open(dir, opts)
}

// HistorySpan is one contiguous time range a history store's archive
// covers (HistoryStore.Coverage, GatewayClient.Coverage) — the unit
// anti-entropy reconciliation compares between replicas.
type HistorySpan = histstore.Span

// ReconcileHistory backfills local's archive with records peer holds
// in ranges local is missing — the anti-entropy pass a rejoining
// replicated gateway runs against its peers (gatewayd does this
// automatically when -replicas > 1 and -archive are set).
func ReconcileHistory(local *HistoryStore, peer *GatewayClient, sensor string) (int, error) {
	return gateway.ReconcileHistory(local, peer, sensor)
}

// Sharded site (internal/ring, internal/router): a site runs N
// gateways with sensors partitioned among them by consistent hashing;
// the directory advertises which gateway owns which sensor, and a
// Router's Publish/Query/Subscribe transparently target the owner.
// With RouterOptions.ReplicaK > 1 (and Replicators attached to the
// gateways) the site is replicated: records mirror to each sensor's
// next ring owners, the router fails over to a replica when the owner
// dies, and Router.Rebalance hands sensors off after membership
// changes.
type (
	// Ring places sensor topics onto the gateways of a sharded site by
	// consistent hashing with deterministic placement.
	Ring = ring.Ring
	// Router routes gateway operations across a sharded site: scoped
	// operations reach the owning gateway, wildcard subscriptions fan
	// out to every gateway and merge via bridges.
	Router = router.Router
	// RouterOptions configures a Router.
	RouterOptions = router.Options
	// Announcer advertises sensor → gateway ownership entries in the
	// sensor directory on Register/Unregister.
	Announcer = router.Announcer
	// SiteDirectory is the directory surface the sharded-site machinery
	// needs; manager.ServerDirectory and the remote directory client
	// both satisfy it.
	SiteDirectory = router.Directory
	// Replicator mirrors a gateway's primary ingest to each sensor's
	// replica ring owners; attach with Gateway.SetForwarder.
	Replicator = bridge.Replicator
	// ReplicatorOptions tunes a Replicator.
	ReplicatorOptions = bridge.ReplicatorOptions
	// ReplicatorStats counts a replicator's traffic.
	ReplicatorStats = bridge.ReplicatorStats
)

// NewReplicator builds a replicator for the gateway at self (its ring
// address), mirroring each sensor's ingest to its other ring owners up
// to placement factor k.
func NewReplicator(self string, rg *Ring, k int, opts ReplicatorOptions) *Replicator {
	return bridge.NewReplicator(self, rg, k, opts)
}

// NewRing builds a consistent-hash ring over gateway addresses;
// replicas <= 0 selects the default virtual-node count.
func NewRing(gateways []string, replicas int) *Ring { return ring.New(gateways, replicas) }

// NewRouter returns a routing client over a sharded site.
func NewRouter(opts RouterOptions) (*Router, error) { return router.New(opts) }

// NewAnnouncer returns an announcer advertising ownership by the named
// gateway (reachable at addr) under base; Attach it to a Gateway.
func NewAnnouncer(dir SiteDirectory, base DN, gatewayName, addr string) *Announcer {
	return router.NewAnnouncer(dir, base, gatewayName, addr)
}

// NewGateway returns a standalone event gateway (daemon deployments;
// grids create per-site gateways via AddSite). now supplies
// summary-window time; nil means the wall clock.
func NewGateway(name string, now func() time.Time) *Gateway { return gateway.New(name, now) }

// Streaming aggregation plane (internal/aggregate): windowed aggregates
// computed gateway-side from bus taps and published as synthetic
// `_agg/...` topics, so one aggregate subscription replaces N raw ones;
// AggregateSite merges the per-gateway streams into a site-wide view
// (Router.AggregateSubscribe does this across a sharded site).
type (
	// Aggregator computes sliding-window aggregates on one gateway.
	Aggregator = aggregate.Aggregator
	// AggregatorOptions configures an Aggregator.
	AggregatorOptions = aggregate.Options
	// AggregateSite merges per-gateway `_agg/` streams site-wide.
	AggregateSite = aggregate.Site
	// AggregateSiteView is the merged site-wide aggregate state.
	AggregateSiteView = aggregate.SiteView
	// AggregateCount is one decoded AGG_COUNT point.
	AggregateCount = aggregate.CountPoint
	// AggregateTopK is one decoded AGG_TOPK point.
	AggregateTopK = aggregate.TopKPoint
	// AggregateQuantile is one decoded AGG_QUANT point.
	AggregateQuantile = aggregate.QuantilePoint
	// QuantileSketch is a mergeable relative-error quantile sketch.
	QuantileSketch = aggregate.Sketch
)

// AggregateTopicPrefix namespaces the synthetic aggregate topics; a
// prefix subscription on it ({Sensor: AggregateTopicPrefix, Prefix:
// true}) receives every aggregate stream a gateway publishes.
const AggregateTopicPrefix = aggregate.TopicPrefix

// NewAggregator attaches a streaming aggregator to gw; Close detaches.
func NewAggregator(gw *Gateway, opts AggregatorOptions) *Aggregator {
	return aggregate.New(gw, opts)
}

// NewAggregateSite returns an empty site-wide aggregate merger.
func NewAggregateSite() *AggregateSite { return aggregate.NewSite() }

// NewAggregateMirror bridges a remote gateway's `_agg/` topics into a
// local bus or gateway — how replica fan-out gateways re-export a
// site's aggregate streams to their own subscribers.
func NewAggregateMirror(client *GatewayClient, target BridgeTarget, opts BridgeOptions) *Bridge {
	return bridge.NewAggregateMirror(client, target, opts)
}

// Delivery modes.
const (
	DeliverAll       = gateway.DeliverAll
	DeliverOnChange  = gateway.DeliverOnChange
	DeliverThreshold = gateway.DeliverThreshold
)

// Float64 returns a pointer to v, for threshold requests.
func Float64(v float64) *float64 { return gateway.Float64(v) }

// Sensor manager (internal/manager).
type (
	// ManagerConfig is a sensor manager configuration document.
	ManagerConfig = manager.Config
	// SensorSpec configures one sensor instance.
	SensorSpec = manager.SensorSpec
	// RunMode is when a sensor runs (always/request/port).
	RunMode = manager.RunMode
)

// Run modes.
const (
	ModeAlways  = manager.ModeAlways
	ModeRequest = manager.ModeRequest
	ModePort    = manager.ModePort
)

// Interval converts a time.Duration into a config duration.
func Interval(d time.Duration) manager.Duration { return manager.Duration(d) }

// ParseManagerConfig parses a JSON sensor manager configuration.
func ParseManagerConfig(data []byte) (ManagerConfig, error) { return manager.ParseConfig(data) }

// Consumers (internal/consumer) and archives (internal/archive).
type (
	// Collector merges subscribed event streams into a NetLogger log.
	Collector = consumer.Collector
	// Archiver files events into an archive store.
	Archiver = consumer.Archiver
	// ProcessMonitor reacts to server process deaths.
	ProcessMonitor = consumer.ProcessMonitor
	// Overview combines multi-host state into decisions.
	Overview = consumer.Overview
	// Action is one process monitor reaction.
	Action = consumer.Action
	// SensorLoc is a sensor discovered in the directory.
	SensorLoc = consumer.SensorLoc
	// ArchiveStore is an event archive.
	ArchiveStore = archive.Store
	// ArchivePolicy selects what gets archived.
	ArchivePolicy = archive.Policy
	// ArchiveQuery selects records from an archive.
	ArchiveQuery = archive.Query
)

// NewCollector returns an empty event collector.
func NewCollector() *Collector { return consumer.NewCollector() }

// NewArchiver returns an archiver over store.
func NewArchiver(store *ArchiveStore) *Archiver { return consumer.NewArchiver(store) }

// NewArchiveStore returns an event archive with the given policy.
func NewArchiveStore(policy ArchivePolicy) *ArchiveStore { return archive.NewStore(policy) }

// NewProcessMonitor returns a monitor reacting to deaths of proc.
func NewProcessMonitor(proc string, actions ...Action) *ProcessMonitor {
	return consumer.NewProcessMonitor(proc, actions...)
}

// NewOverview returns an overview monitor with the given rule.
func NewOverview(rule consumer.Rule) *Overview { return consumer.NewOverview(rule) }

// BothDown builds the §2.2 example rule: alert only when the process is
// down on every one of the named hosts.
func BothDown(proc string, hosts ...string) consumer.Rule {
	return consumer.BothDown(proc, hosts...)
}

// Discover finds active sensors in the directory. dir is the read side
// of a sensor directory (a remote directory client or an in-process
// server adapter); base is typically SensorBase.
func Discover(dir consumer.Directory, base directory.DN, filter string) ([]SensorLoc, error) {
	return consumer.Discover(dir, base, filter)
}

// DN is a directory distinguished name.
type DN = directory.DN

// NetLogger toolkit (internal/netlog, internal/nlv).
type (
	// Logger is a NetLogger client API handle.
	Logger = netlog.Logger
	// Graph is an nlv terminal chart.
	Graph = nlv.Graph
)

// NewLogger returns a NetLogger handle for prog.
func NewLogger(prog string, opts ...netlog.Option) *Logger { return netlog.New(prog, opts...) }

// NewGraph returns an nlv chart of the given terminal width.
func NewGraph(width int) *Graph { return nlv.New(width) }

// Applications (internal/dpss, internal/iperf).
type (
	// FrameStat is one Matisse frame's lifecycle.
	FrameStat = dpss.FrameStat
	// IperfConfig tunes an iperf run.
	IperfConfig = iperf.Config
	// IperfResult is an iperf run outcome.
	IperfResult = iperf.Result
)

// Telemetry plane (internal/telemetry): a stdlib-only metrics registry
// (zero-allocation counters, gauges, log-linear histograms), every
// subsystem's Stats adapted into it via MetricsSource methods, an ops
// HTTP endpoint (metrics in Prometheus text format, health/readiness,
// pprof, the trace event log), sampled end-to-end record tracing across
// gateway hops, and an optional republisher folding the registry back
// into the event plane as _sys/ records.
type (
	// MetricsRegistry is a named registry of counters, gauges,
	// histograms, and Stats-adapting sources.
	MetricsRegistry = telemetry.Registry
	// Counter is a monotonically increasing metric.
	Counter = telemetry.Counter
	// Gauge is a set-to-current-value metric.
	Gauge = telemetry.Gauge
	// Histogram is a log-linear-bucket latency/size distribution.
	Histogram = telemetry.Histogram
	// MetricsSource adapts a subsystem's Stats into metric families on
	// each scrape.
	MetricsSource = telemetry.Source
	// Tracer stamps sampled records with a JAMM.TRACE attribute and
	// records per-stage hop latencies.
	Tracer = telemetry.Tracer
	// TraceLog is the bounded ring of trace events one node retains.
	TraceLog = telemetry.TraceLog
	// TraceEvent is one stage of one traced record's path.
	TraceEvent = telemetry.TraceEvent
	// Health aggregates named readiness checks for /readyz.
	Health = telemetry.Health
	// Republisher periodically folds a registry into _sys/ records.
	Republisher = telemetry.Republisher
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// NewTracer returns a tracer for the named node, stamping one in every
// `every` published batches (0 = never) and logging events into tlog.
func NewTracer(node string, every int, tlog *TraceLog) *Tracer {
	return telemetry.NewTracer(node, every, tlog)
}

// NewTraceLog returns a trace event ring retaining up to n events.
func NewTraceLog(n int) *TraceLog { return telemetry.NewTraceLog(n) }

// NewHealth returns an empty readiness check set.
func NewHealth() *Health { return telemetry.NewHealth() }

// NewOpsHandler returns the ops HTTP handler: /metrics, /healthz,
// /readyz, /trace, and /debug/pprof.
func NewOpsHandler(reg *MetricsRegistry, health *Health, tlog *TraceLog) http.Handler {
	return telemetry.NewOpsHandler(reg, health, tlog)
}

// NewMetricsRepublisher folds reg into _sys/<node>/metrics records
// every period, delivered through sink (typically Gateway.PublishBatch).
func NewMetricsRepublisher(reg *MetricsRegistry, node string, period time.Duration, sink func(sensor string, recs []Record)) *Republisher {
	return telemetry.NewRepublisher(reg, node, period, sink)
}

// Security (internal/auth).
type (
	// CA is a JAMM certificate authority.
	CA = auth.CA
	// Policy is an Akenti-style use-condition policy engine.
	Policy = auth.Policy
	// ClassPolicy is the internal/external tiered policy of §2.2.
	ClassPolicy = auth.ClassPolicy
	// Gridmap maps certificate DNs to local users.
	Gridmap = auth.Gridmap
)

// NewCA creates a certificate authority named cn.
func NewCA(cn string) (*CA, error) { return auth.NewCA(cn) }

// NewPolicy returns an empty (deny-all) policy.
func NewPolicy() *Policy { return auth.NewPolicy() }

// NewGridmap returns an empty gridmap.
func NewGridmap() *Gridmap { return auth.NewGridmap() }
