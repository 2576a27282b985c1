package gateway

import "jamm/internal/telemetry"

// MetricsSource adapts the gateway's Stats, FrameStats and the
// underlying bus counters into telemetry metric families.
// Register it once per gateway: reg.Register(gw.MetricsSource()).
func (g *Gateway) MetricsSource() telemetry.Source {
	return telemetry.SourceFunc(func(e telemetry.Emit) {
		st := g.Stats()
		e.Counter("jamm_gateway_published_total", "Records entering the gateway from sensors (including raw frame relays).", st.Published)
		e.Counter("jamm_gateway_delivered_total", "Records fanned out to consumers.", st.Delivered)
		e.Counter("jamm_gateway_suppressed_total", "Records withheld by change/threshold policies.", st.Suppressed)
		e.Counter("jamm_gateway_queries_total", "One-shot query requests served.", st.Queries)
		e.Counter("jamm_gateway_consumer_clamps_total", "Consumer-count decrements clamped at zero (accounting bug detector).", st.ConsumerClamps)

		fs := g.FrameStats()
		e.Counter("jamm_gateway_frame_relays_total", "v2 frames relayed without record decode.", fs.Relays)
		e.Counter("jamm_gateway_frame_relay_records_total", "Records carried by relayed frames.", fs.RelayRecords)
		e.Counter("jamm_gateway_frame_decodes_total", "v2 frames decoded into records for local consumers.", fs.Decodes)
		e.Counter("jamm_gateway_frame_decode_errors_total", "v2 frames that failed record decode.", fs.DecodeErrors)

		bs := g.bus.Stats()
		e.Counter("jamm_bus_published_total", "Records entering the bus.", bs.Published)
		e.Counter("jamm_bus_delivered_total", "Records fanned out to bus subscribers.", bs.Delivered)
		e.Counter("jamm_bus_suppressed_total", "Records withheld by subscription hooks.", bs.Suppressed)
	})
}

// MetricsSource adapts the wire server's loss counters, its accept and
// request counters and its connection gauges into telemetry metric
// families.
func (t *TCPServer) MetricsSource() telemetry.Source {
	return telemetry.SourceFunc(func(e telemetry.Emit) {
		ws := t.WireStats()
		e.Counter("jamm_wire_bad_records_total", "op=publish records that failed payload decode.", ws.BadRecords)
		e.Counter("jamm_wire_bad_lines_total", "Request lines that failed JSON parsing.", ws.BadLines)
		e.Counter("jamm_wire_sub_drops_total", "Records dropped on slow subscriber connections.", ws.SubDrops)
		e.Counter("jamm_wire_bad_frames_total", "Malformed v2 binary frames.", ws.BadFrames)
		e.Counter("jamm_wire_handshake_timeouts_total", "Connections dropped for sending nothing in the negotiation window.", ws.HandshakeTimeouts)
		e.Counter("jamm_wire_accepts_total", "Wire connections accepted.", ws.Accepts)
		for i := range t.requests {
			op := "unknown"
			if i < len(answeredOps) {
				op = answeredOps[i]
			}
			e.Counter(`jamm_wire_requests_total{op="`+op+`"}`, "Request/answer and history requests answered, by op.", t.requests[i].Load())
		}
		t.mu.Lock()
		subs := len(t.subs)
		t.mu.Unlock()
		e.Gauge("jamm_wire_connections", "Open wire connections.", float64(t.Conns()))
		e.Gauge("jamm_wire_subscriber_connections", "Open streaming subscriber connections.", float64(subs))
	})
}
