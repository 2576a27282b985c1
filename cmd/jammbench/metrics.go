package main

// metricDef names one metric the benchmark prints. Every name here is
// permanent: results recorded under it are compared across changes.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share by which it may worsen before a change is a regression; 0 = none
	Only   string  // the one workload it is defined on; "" = all
	What   string
}

// endToEnd are the metrics a user of the event plane would see. Those
// with a bound that are defined on every workload are BENCHMARK.json's
// end_to_end list. The rest cannot be in it — that list must be reported
// non-zero by every workload and held to a bound of at most a quarter —
// so BENCHMARK.json carries them under per_layer: loss (expected to be
// exactly 0), the read-side metrics only consumer-edge has, and the
// timings (Bound 0) that are processor speed and do not repeat within a
// tenth, some not within a quarter, from run to run on the shared 2-CPU
// reference host. -selfcheck holds every bound below.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "", "topology start to warm and ready: topology built, every sensor delivered once end to end, then the paced phase's 1s warm-up"},
	{"max_recs_per_s", "1/s", "higher", 0, "", "windowed phase: fully delivered records per second at 192 in flight (no bound: demoted, see README)"},
	{"cpu_s_per_mrec", "s", "lower", 0, "", "windowed phase: process user+sys CPU seconds per million fully delivered records, generator and consumers included (no bound: demoted, see README)"},
	{"allocs_per_rec", "count", "lower", 0.02, "", "paced phase: heap allocations per fully delivered record, whole process; reads 0.01 when lower"},
	{"alloc_bytes_per_rec", "B", "lower", 0.03, "", "paced phase: heap bytes allocated per fully delivered record, whole process"},
	{"live_heap_mb", "MiB", "lower", 0.20, "", "bytes of live heap objects (HeapAlloc after a forced GC) at the end of the paced phase, which offers every run the same number of records"},
	{"latency_p50_us", "us", "lower", 0.25, "", "paced phase: due time to delivery at the slowest DeliverAll consumer, median"},
	{"latency_p99_us", "us", "lower", 0.25, "", "paced phase: the same, 99th percentile"},
	{"loss_ratio", "ratio", "lower", 0.0005, "", "operations offered in the paced and windowed phases and not completed, over offered; expected 0 (absolute bound)"},
	{"query_p50_us", "us", "lower", 0, "consumer-edge", "paced phase: Client.Query round trip, connect included, median (no bound: demoted)"},
	{"query_p99_us", "us", "lower", 0, "consumer-edge", "paced phase: the same, 99th percentile (no bound: demoted)"},
	{"history_raw_recs_per_s", "1/s", "higher", 0, "consumer-edge", "paced phase: records per second of one whole-sensor HistoryStream (stored frames spliced) (no bound: demoted)"},
	{"history_filtered_recs_per_s", "1/s", "higher", 0, "consumer-edge", "paced phase: records per second of one event-filtered HistoryStream (decoded and re-encoded) (no bound: demoted)"},
}

// allocsFloor is the least allocs_per_rec reads. Below one allocation
// per hundred records the count is the process's background (timers,
// GC, the aggregator's emit), not per-record work: fanout-local sits at
// 0.003 and moves by a tenth from run to run, which a relative bound
// would call a regression.
const allocsFloor = 0.01

// specEndToEnd reports whether an end-to-end metric can sit in
// BENCHMARK.json's end_to_end list.
func specEndToEnd(m metricDef) bool { return m.Only == "" && m.Bound > 0 && m.Name != "loss_ratio" }

// perLayer are the single-layer metrics of the traced pass, named
// <layer>.<name> after this repository's packages.
var perLayer = []metricDef{
	{Name: "gen.late_p99_us", Unit: "us", Better: "lower", What: "paced phase: how late the generator released a tick, p99; validity of the run"},
	{Name: "gen.publish_busy_share", Unit: "ratio", Better: "lower", What: "paced phase: share of time a generator spent inside publish calls; high means back-pressure reached the source"},

	{Name: "ulm.text_encode_ns_per_rec", Unit: "ns", Better: "lower", What: "ladder: Record.String"},
	{Name: "ulm.text_parse_ns_per_rec", Unit: "ns", Better: "lower", What: "ladder: ulm.Parse"},
	{Name: "ulm.xml_encode_ns_per_rec", Unit: "ns", Better: "lower", What: "ladder: ulm.ToXML"},
	{Name: "ulm.bin_encode_ns_per_rec", Unit: "ns", Better: "lower", What: "ladder: ulm.AppendBinary"},
	{Name: "ulm.bin_decode_ns_per_rec", Unit: "ns", Better: "lower", What: "ladder: ulm.DecodeBinary"},
	{Name: "ulm.bin_decode_allocs_per_rec", Unit: "count", Better: "lower", What: "ladder: allocations of ulm.DecodeBinary"},

	{Name: "bus.publish_ns_per_rec", Unit: "ns", Better: "lower", What: "ladder: Bus.PublishBatch of one run to the workload's count of wildcard batch subscribers"},
	{Name: "bus.publish_allocs_per_rec", Unit: "count", Better: "lower", What: "ladder: allocations of the same"},
	{Name: "bus.delivered", Unit: "count", Better: "higher", What: "Bus.Stats().Delivered summed over the run's gateways"},
	{Name: "bus.suppressed", Unit: "count", Better: "lower", What: "Bus.Stats().Suppressed summed over the run's gateways"},

	{Name: "gateway.publish_ns_per_rec", Unit: "ns", Better: "lower", What: "ladder: Gateway.PublishBatch of one run, same subscribers as bus.publish"},
	{Name: "gateway.publish_self_ns_per_rec", Unit: "ns", Better: "lower", What: "ladder: gateway.publish minus bus.publish"},
	{Name: "gateway.query_ns", Unit: "ns", Better: "lower", What: "ladder: Gateway.Query in process"},
	{Name: "gateway.summary_ns", Unit: "ns", Better: "lower", What: "ladder: Gateway.Summary in process"},
	{Name: "gateway.snapshot_hit_ratio", Unit: "ratio", Better: "higher", What: "Gateway.Stats(): snapshot hits over snapshot reads"},

	{Name: "gateway.frame.recs_per_frame", Unit: "count", Better: "higher", What: "ladder: records per frame as the workload's publisher seals them, captured by SubscribeFrameStream"},
	{Name: "gateway.frame.bytes_per_rec", Unit: "B", Better: "lower", What: "ladder: frame bytes per record of the same frames"},
	{Name: "gateway.frame.sethops_ns_per_frame", Unit: "ns", Better: "lower", What: "ladder: Frame.SetHops"},
	{Name: "gateway.frame.bumptrace_ns_per_frame", Unit: "ns", Better: "lower", What: "ladder: Frame.BumpTrace on an untraced frame"},
	{Name: "gateway.frame.clone_ns_per_frame", Unit: "ns", Better: "lower", What: "ladder: Frame.Clone"},
	{Name: "gateway.frame.decode_ns_per_rec", Unit: "ns", Better: "lower", What: "ladder: Frame.Records"},
	{Name: "gateway.frame.publishframe_ns_per_frame", Unit: "ns", Better: "lower", What: "ladder: Gateway.PublishFrame in relay position with one frame subscriber"},
	{Name: "gateway.frame.decode_ratio", Unit: "ratio", Better: "lower", What: "FrameStats: Decodes over Relays+Decodes, the share of frames leaving the fast path"},

	{Name: "gateway.wire.publish_ns_per_rec", Unit: "ns", Better: "lower", What: "ladder: caller time in Publisher.PublishBatch and Flush"},
	{Name: "gateway.wire.loopback_recs_per_s", Unit: "1/s", Better: "higher", What: "ladder: publisher to server to frame stream, one hop"},
	{Name: "gateway.wire.query_rtt_us", Unit: "us", Better: "lower", What: "ladder: Client.Query against an idle loopback server"},
	{Name: "gateway.wire.sub_drops", Unit: "count", Better: "lower", What: "WireStats().SubDrops summed over the run's servers (the shed-check phase is where they come from)"},
	{Name: "gateway.wire.bad_frames", Unit: "count", Better: "lower", What: "WireStats().BadFrames summed over the run's servers"},

	{Name: "bridge.relay_hop_cpu_s_per_mrec", Unit: "s", Better: "lower", What: "relay-chain hop sweep: marginal cpu_s_per_mrec of one more relay hop"},
	{Name: "bridge.relay_hop_latency_us", Unit: "us", Better: "lower", What: "relay-chain taps: marginal p50 latency of one relay hop"},
	{Name: "bridge.target_publish_ns_per_rec", Unit: "ns", Better: "lower", What: "traced pass: time inside the bridge.Target the harness hands a bridge"},
	{Name: "bridge.mirrored", Unit: "count", Better: "higher", What: "bridge Stats().Mirrored summed"},
	{Name: "bridge.relayed_frames", Unit: "count", Better: "higher", What: "bridge Stats().RelayedFrames summed"},
	{Name: "bridge.remote_drops", Unit: "count", Better: "lower", What: "bridge Stats().RemoteDrops summed"},
	{Name: "bridge.loop_drops", Unit: "count", Better: "lower", What: "bridge Stats().LoopDrops summed"},

	{Name: "bridge.replicator.forward_ns_per_rec", Unit: "ns", Better: "lower", What: "traced pass: time inside the gateway.Forwarder wrapper around the Replicator"},
	{Name: "bridge.replicator.replicated", Unit: "count", Better: "higher", What: "ReplicatorStats.Replicated summed"},
	{Name: "bridge.replicator.shed", Unit: "count", Better: "lower", What: "ReplicatorStats.Shed summed"},
	{Name: "router.publish_ns_per_rec", Unit: "ns", Better: "lower", What: "ladder: caller time in Router.PublishBatch and Flush"},
	{Name: "router.publish_drops", Unit: "count", Better: "lower", What: "router Stats().PublishDrops"},
	{Name: "router.retries", Unit: "count", Better: "lower", What: "router Stats().PublishRetries"},
	{Name: "ring.owners_ns", Unit: "ns", Better: "lower", What: "ladder: Ring.Owners(sensor, 2) on a 3-node, 64-vnode ring"},

	{Name: "histstore.append_ns_per_rec", Unit: "ns", Better: "lower", What: "ladder: Store.AppendBatch of one run"},
	{Name: "histstore.append_bytes_per_rec", Unit: "B", Better: "lower", What: "ladder: on-disk bytes per appended record"},
	{Name: "consumer.archiver_take_ns_per_rec", Unit: "ns", Better: "lower", What: "ladder: Archiver.TakeTopicBatch into a history store (append included)"},
	{Name: "histstore.replay_raw_recs_per_s", Unit: "1/s", Better: "higher", What: "ladder: Store.ReplayFrames of whole segments (stored bytes handed out)"},
	{Name: "histstore.replay_cooked_recs_per_s", Unit: "1/s", Better: "higher", What: "ladder: Store.Replay with an event filter (decoded)"},
	{Name: "histstore.raw_frames", Unit: "count", Better: "higher", What: "histstore Stats().RawFrames of the run's archive"},

	{Name: "aggregate.fold_ns_per_rec", Unit: "ns", Better: "lower", What: "ladder: Gateway.PublishBatch with an Aggregator attached minus without"},
	{Name: "aggregate.sketch_add_ns", Unit: "ns", Better: "lower", What: "ladder: Sketch.Add"},
	{Name: "aggregate.site_observe_ns", Unit: "ns", Better: "lower", What: "ladder: Site.Observe of an emitted _agg/ record"},

	{Name: "telemetry.tax_ratio", Unit: "ratio", Better: "lower", What: "ladder: Gateway.PublishBatch with the default 1/1024 tracer over without one"},
	{Name: "telemetry.scrape_ms", Unit: "ms", Better: "lower", What: "traced pass: one Registry.WritePrometheus, mean over the run's registries"},
	{Name: "telemetry.stage.ingest_p50_us", Unit: "us", Better: "lower", What: "traced pass: stage histogram p50, scraped"},
	{Name: "telemetry.stage.bus_p50_us", Unit: "us", Better: "lower", What: "traced pass: stage histogram p50, scraped"},
	{Name: "telemetry.stage.wire_p50_us", Unit: "us", Better: "lower", What: "traced pass: stage histogram p50, scraped"},
	{Name: "telemetry.stage.relay_p50_us", Unit: "us", Better: "lower", What: "traced pass: stage histogram p50, scraped"},
	{Name: "telemetry.stage.mirror_p50_us", Unit: "us", Better: "lower", What: "traced pass: stage histogram p50, scraped"},
	{Name: "telemetry.stage.forward_p50_us", Unit: "us", Better: "lower", What: "traced pass: stage histogram p50, scraped"},

	{Name: "hop.0_latency_p50_us", Unit: "us", Better: "lower", What: "traced pass: due time to seen by the harness's tap on gateway 0 of the chain"},
	{Name: "hop.1_latency_p50_us", Unit: "us", Better: "lower", What: "the same on gateway 1"},
	{Name: "hop.2_latency_p50_us", Unit: "us", Better: "lower", What: "the same on gateway 2"},
	{Name: "hop.3_latency_p50_us", Unit: "us", Better: "lower", What: "the same on gateway 3"},
	{Name: "attrib.latency_unattributed_us", Unit: "us", Better: "lower", What: "traced pass: latency p50 minus the stage p50s along the path"},
	{Name: "attrib.cpu_attributed_share", Unit: "ratio", Better: "higher", What: "share of the traced pass's cpu_s_per_mrec the attribution table's layer rows add up to"},
	{Name: "attrib.cpu_unattributed_s_per_mrec", Unit: "s", Better: "lower", What: "the remainder of that table"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher", What: "traced over untraced max_recs_per_s"},
	{Name: "shed.goodput_recs_per_s", Unit: "1/s", Better: "higher", What: "shed-check phase: fully delivered records per second at 4x the paced rate"},
	{Name: "shed.loss_ratio", Unit: "ratio", Better: "lower", What: "shed-check phase: offered and not fully delivered, over offered; every one counted by a Stats()"},
}

// specPerLayer is BENCHMARK.json's per_layer list: the per-layer metrics
// and the end-to-end ones its end_to_end list cannot hold.
func specPerLayer() []metricDef {
	out := append([]metricDef(nil), perLayer...)
	for _, m := range endToEnd {
		if !specEndToEnd(m) {
			out = append(out, m)
		}
	}
	return out
}
