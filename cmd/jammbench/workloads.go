package main

import "time"

// workload is one frozen traffic mix. The names are permanent and the
// numbers are part of the benchmark: change one and every recorded
// result stops being comparable, so a new mix gets a new name.
type workload struct {
	Name string
	Why  string // one line, echoed into BENCHMARK.json

	Sensors int     // distinct sensor topics, published round-robin
	RunLen  int     // consecutive records of one sensor per publish call
	Fields  int     // user fields per record, SEQ included
	Rate    float64 // paced-phase offered load, records/s

	// Topology parameters; zero where a workload has no such part.
	Hops     int // bridges between the publisher's gateway and the consumer's (relay-chain)
	Gateways int // ring members (replicated-site)
	ReplicaK int // placement factor (replicated-site)
	VNodes   int // ring virtual nodes per gateway (replicated-site)
	Preload  int // records in the archive before the run (consumer-edge)
}

// Constants every workload shares.
const (
	runSeconds   = 15                   // BENCHMARK.json's run_seconds, and the default of -seconds
	creditWindow = 192                  // closed-loop phase: records in flight
	pacerTick    = time.Millisecond     // open-loop schedule grid
	catchUp      = 2                    // open-loop burst cap after a stall, x nominal
	shedFactor   = 4                    // shed-check phase offers this multiple of Rate
	window       = time.Second          // one measuring window
	phaseWarm    = time.Second          // load before the first window of a phase
	batchMax     = 64                   // gatewayd -batch default: bridge, publisher, router
	batchWait    = 2 * time.Millisecond // gatewayd's bridge batch wait
	traceSample  = 1024                 // gatewayd -trace-sample default
	tracedSample = 16                   // sampling in the traced pass
	preloadBatch = 64                   // records per archive frame in the preloaded set
)

var workloads = []workload{
	{
		Name:    "relay-chain",
		Why:     "small frames through 3 pure relays: per-frame frame/wire/bridge cost is nearly all the work; bus, text codec and histstore idle",
		Sensors: 64, RunLen: 4, Fields: 1, Rate: 50_000, Hops: 3,
	},
	{
		Name:    "fanout-local",
		Why:     "one in-process gateway, 32 subscribers, summaries and an aggregator: bus index, hooks and taps do the work, no byte crosses a socket",
		Sensors: 256, RunLen: 16, Fields: 4, Rate: 100_000,
	},
	{
		Name:    "replicated-site",
		Why:     "fat 12-field frames to a 3-gateway k=2 ring with archives: per-byte decode, clone, replica link and segment append dominate",
		Sensors: 192, RunLen: 32, Fields: 12, Rate: 30_000, Gateways: 3, ReplicaK: 2, VNodes: 64,
	},
	{
		Name:    "consumer-edge",
		Why:     "reads beside writes: v2, JSON/ULM, XML and on-change wire consumers plus a query/summary/history reader on one archiving gateway",
		Sensors: 64, RunLen: 8, Fields: 4, Rate: 20_000, Preload: 500_000,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
