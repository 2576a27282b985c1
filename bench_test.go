// Benchmark harness regenerating every quantitative result of the
// paper's evaluation. The paper has no numbered tables; its results are
// Figure 3 (read-size scatter), Figure 7 (the Matisse trace), and the
// quantitative claims embedded in §2-§6 of the paper (PAPER.md), which
// this file numbers E1-E10, one BenchmarkE<n> each (the README's opening
// command runs them all). Each benchmark prints the paper-vs-measured
// comparison once and then times the underlying operation.
//
//	go test -bench=. -benchmem
package jamm

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jamm/internal/archive"
	"jamm/internal/auth"
	"jamm/internal/bridge"
	"jamm/internal/bus"
	"jamm/internal/consumer"
	"jamm/internal/core"
	"jamm/internal/directory"
	"jamm/internal/dpss"
	"jamm/internal/gateway"
	"jamm/internal/iperf"
	"jamm/internal/manager"
	"jamm/internal/netlog"
	"jamm/internal/nlv"
	"jamm/internal/sim"
	"jamm/internal/simclock"
	"jamm/internal/simhost"
	"jamm/internal/simnet"
	"jamm/internal/ulm"
)

var benchEpoch = time.Date(2000, 5, 1, 0, 0, 0, 0, time.UTC)

// onceByName prints each experiment's summary exactly once even though
// the testing framework re-invokes benchmarks with growing b.N.
var (
	onceMu sync.Mutex
	onces  = map[string]*sync.Once{}
)

func reportOnce(name string, fn func()) {
	onceMu.Lock()
	o, ok := onces[name]
	if !ok {
		o = &sync.Once{}
		onces[name] = o
	}
	onceMu.Unlock()
	o.Do(fn)
}

// ---------------------------------------------------------------------------
// Figure 2: the three nlv graph primitives (lifeline, loadline, point).
// The "result" is that one chart can carry all three; the benchmark
// times rendering.

func fig2Records() []ulm.Record {
	rnd := rand.New(rand.NewSource(2))
	var recs []ulm.Record
	at := func(ms int) time.Time { return benchEpoch.Add(time.Duration(ms) * time.Millisecond) }
	for i := 0; i < 40; i++ {
		base := i * 250
		recs = append(recs,
			ulm.Record{Date: at(base), Host: "h", Prog: "p", Lvl: "Usage", Event: "REQ_SENT"},
			ulm.Record{Date: at(base + 40), Host: "h", Prog: "p", Lvl: "Usage", Event: "REQ_RECV"},
			ulm.Record{Date: at(base + 90), Host: "h", Prog: "p", Lvl: "Usage", Event: "RESP_SENT"},
			ulm.Record{Date: at(base + 130), Host: "h", Prog: "p", Lvl: "Usage", Event: "RESP_RECV"},
			ulm.Record{Date: at(base), Host: "h", Prog: "p", Lvl: "Usage", Event: "CPU_LOAD",
				Fields: []ulm.Field{{Key: "VAL", Value: fmt.Sprintf("%.1f", 50+40*rnd.Float64())}}},
		)
		if i%7 == 3 {
			recs = append(recs, ulm.Record{Date: at(base + 60), Host: "h", Prog: "p", Lvl: "Usage", Event: "RETRANSMIT"})
		}
	}
	ulm.SortByDate(recs)
	return recs
}

func BenchmarkFig2NlvPrimitives(b *testing.B) {
	recs := fig2Records()
	build := func() *nlv.Graph {
		g := nlv.New(100)
		g.AddLifeline("REQ_SENT", "REQ_RECV", "RESP_SENT", "RESP_RECV")
		g.AddLoadline("CPU_LOAD", "VAL", 4)
		g.AddPoints("RETRANSMIT")
		return g
	}
	reportOnce("fig2", func() {
		fmt.Println("--- Figure 2: nlv graph primitives (lifeline, loadline, point) ---")
		build().Render(os.Stdout, recs) //nolint:errcheck
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := build().Render(discard{}, recs); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// ---------------------------------------------------------------------------
// Figure 3: scatter plot of low-level read() sizes "clustering around
// two distinct values".

func fig3Reads() []ulm.Record {
	sched := sim.NewScheduler(benchEpoch)
	rnd := rand.New(rand.NewSource(3))
	net := simnet.New(sched, rnd, 10*time.Millisecond)
	sw := net.AddSwitch("sw")
	cNode := net.AddHost("viewer", simnet.HostConfig{RecvCapacityBps: 1e9})
	net.Connect(cNode, sw, simnet.RateGigE, 100*time.Microsecond)
	cHost := simhost.New(sched, "viewer", cNode, nil, simhost.Config{})
	mem := &netlog.MemoryDest{}
	log := netlog.New("mplay", netlog.WithHost("viewer"), netlog.WithClock(cHost.Clock.Now))
	log.SetDestination(mem)
	var servers []*dpss.Server
	for i := 0; i < 4; i++ {
		n := net.AddHost(fmt.Sprintf("s%d", i), simnet.HostConfig{RecvCapacityBps: 1e9})
		net.Connect(n, sw, simnet.RateGigE, 100*time.Microsecond)
		h := simhost.New(sched, fmt.Sprintf("s%d", i), n, nil, simhost.Config{})
		servers = append(servers, dpss.NewServer(h, nil, dpss.ServerConfig{}))
	}
	client, err := dpss.NewClient(net, cHost, log, rnd, servers, dpss.ClientConfig{FrameBytes: 2e6})
	if err != nil {
		panic(err)
	}
	client.Play(15, nil)
	sched.RunFor(2 * time.Minute)
	var reads []ulm.Record
	for _, r := range mem.Records() {
		if r.Event == dpss.EvRead {
			reads = append(reads, r)
		}
	}
	return reads
}

func BenchmarkFig3ReadScatter(b *testing.B) {
	reads := fig3Reads()
	reportOnce("fig3", func() {
		var full, small, other int
		for _, r := range reads {
			sz, _ := r.Float("SZ")
			switch {
			case sz == 64*1024:
				full++
			case sz > 6e3 && sz < 18e3:
				small++
			default:
				other++
			}
		}
		fmt.Println("--- Figure 3: read() sizes cluster at two distinct values ---")
		fmt.Printf("paper:    bimodal clustering of bytes-read per read() call\n")
		fmt.Printf("measured: %d reads — %d at 64KB (full request), %d near 12KB (TCP burst), %d elsewhere\n",
			len(reads), full, small, other)
		g := nlv.New(100)
		g.AddScatter(dpss.EvRead, "SZ", 10)
		g.Render(os.Stdout, reads) //nolint:errcheck
	})
	g := nlv.New(100)
	g.AddScatter(dpss.EvRead, "SZ", 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Render(discard{}, reads); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 7: the Matisse trace — frame lifelines, VMSTAT loadlines,
// retransmit points, and the correlation between retransmits and the
// frame-arrival gap.

func BenchmarkFig7MatisseTrace(b *testing.B) {
	reportOnce("fig7", func() {
		res, err := core.RunMatisse(core.MatisseOptions{
			Servers: 4, Frames: 150, Duration: 60 * time.Second, Seed: 7, Monitor: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		// The paper's analysis: the largest frame gap should contain (or
		// immediately follow) TCP retransmission events.
		var maxGap time.Duration
		var gapStart, gapEnd time.Duration
		for i := 1; i < len(res.Stats); i++ {
			if gap := res.Stats[i].End - res.Stats[i-1].End; gap > maxGap {
				maxGap = gap
				gapStart, gapEnd = res.Stats[i-1].End, res.Stats[i].End
			}
		}
		retransInGap := 0
		for _, rec := range res.Events {
			if rec.Event != "TCPD_RETRANSMITS" {
				continue
			}
			at := rec.Date.Sub(benchEpoch)
			if at >= gapStart-time.Second && at <= gapEnd+time.Second {
				retransInGap++
			}
		}
		fmt.Println("--- Figure 7: NetLogger real-time analysis of the Matisse run ---")
		fmt.Printf("paper:    TCP retransmit events correlated with the large gap in frame arrivals;\n")
		fmt.Printf("          high VMSTAT_SYS_TIME on the receiving host\n")
		fmt.Printf("measured: %d events collected; largest frame gap %.1fs with %d retransmit events in/around it;\n",
			len(res.Events), maxGap.Seconds(), retransInGap)
		fmt.Printf("          receiver peak system CPU %.0f%%\n", res.ReceiverSysPct)
		if retransInGap == 0 {
			fmt.Printf("          WARNING: no retransmit events near the stall\n")
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunMatisse(core.MatisseOptions{
			Servers: 4, Frames: 40, Duration: 30 * time.Second, Seed: int64(i), Monitor: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E1 (§6): Iperf — 1 vs 4 parallel streams, WAN vs LAN.

func iperfTopology(kind string, seed int64) (*simnet.Network, *simnet.Node, *simnet.Node) {
	sched := sim.NewScheduler(benchEpoch)
	net := simnet.New(sched, rand.New(rand.NewSource(seed)), 10*time.Millisecond)
	src := net.AddHost("sender", simnet.HostConfig{RecvCapacityBps: 1e9})
	dst := net.AddHost("receiver", simnet.HostConfig{RecvCapacityBps: 200e6, PerSocketOverhead: 2.0})
	if kind == "wan" {
		w := net.AddRouter("rw")
		e := net.AddRouter("re")
		net.Connect(src, w, simnet.RateOC12, time.Millisecond)
		net.Connect(w, e, simnet.RateOC48, 33*time.Millisecond)
		net.Connect(e, dst, simnet.RateGigE, time.Millisecond)
	} else {
		net.Connect(src, dst, simnet.RateGigE, 200*time.Microsecond)
	}
	return net, src, dst
}

func runIperf(kind string, streams int, seed int64) iperf.Result {
	net, src, dst := iperfTopology(kind, seed)
	res, err := iperf.Run(net, src, dst, iperf.Config{Streams: streams, Duration: 30 * time.Second, Rwnd: 2e6})
	if err != nil {
		panic(err)
	}
	return res
}

func BenchmarkE1IperfStreams(b *testing.B) {
	reportOnce("e1", func() {
		fmt.Println("--- E1 (§6): iperf, parallel streams vs aggregate throughput ---")
		fmt.Printf("%-14s %-8s %-18s %-10s\n", "topology", "streams", "paper (Mbit/s)", "measured")
		rows := []struct {
			topo  string
			n     int
			paper string
		}{
			{"wan", 1, "140"},
			{"wan", 4, "30"},
			{"lan", 1, "200"},
			{"lan", 4, "200"},
		}
		for _, r := range rows {
			res := runIperf(r.topo, r.n, 1)
			fmt.Printf("%-14s %-8d %-18s %.0f\n", r.topo, r.n, r.paper, res.Mbps())
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runIperf("wan", 4, int64(i))
	}
}

// ---------------------------------------------------------------------------
// E2 (§6): Matisse frame rate, 4 servers (bursty 1-6 fps) vs 1 server.

func BenchmarkE2FrameRate(b *testing.B) {
	reportOnce("e2", func() {
		fmt.Println("--- E2 (§6): Matisse frame rate, 4 vs 1 DPSS servers ---")
		fmt.Printf("%-10s %-28s %-22s\n", "servers", "paper", "measured fps (min-max, mean)")
		for _, servers := range []int{4, 1} {
			res, err := core.RunMatisse(core.MatisseOptions{
				Servers: servers, Frames: 150, Duration: 60 * time.Second, Seed: 7,
			})
			if err != nil {
				b.Fatal(err)
			}
			min, max := res.MinMaxFPS()
			paper := "bursty, 1-2 to 6 fps"
			if servers == 1 {
				paper = "stable after switch to 1"
			}
			fmt.Printf("%-10d %-28s %.0f-%.0f, mean %.1f (retrans=%d)\n",
				servers, paper, min, max, res.MeanFPS(), res.Retransmits)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunMatisse(core.MatisseOptions{
			Servers: 4, Frames: 60, Duration: 30 * time.Second, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E3 (§4.3): clock synchronization accuracy — GPS-NTP on the subnet
// (~0.25 ms) vs a time source several router hops away (~1 ms).

func clockSyncError(hops int, seed int64) time.Duration {
	sched := sim.NewScheduler(benchEpoch)
	rnd := rand.New(rand.NewSource(seed))
	ref := simclock.New(sched, 0, 0)
	server := simclock.NewServer(ref, 1)
	clock := simclock.New(sched, 7*time.Millisecond, 30) // typical quartz drift
	var path simclock.Path
	if hops <= 0 {
		path = simclock.SubnetPath(rnd)
	} else {
		path = simclock.RoutedPath(rnd, hops)
	}
	d := simclock.NewDaemon(sched, clock, server, path, 4)
	d.Start(16 * time.Second)
	// Let it converge, then measure mean absolute true offset.
	sched.RunFor(5 * time.Minute)
	var sum time.Duration
	const samples = 60
	for i := 0; i < samples; i++ {
		sched.RunFor(10 * time.Second)
		off := clock.TrueOffset()
		if off < 0 {
			off = -off
		}
		sum += off
	}
	return sum / samples
}

func BenchmarkE3ClockSync(b *testing.B) {
	reportOnce("e3", func() {
		fmt.Println("--- E3 (§4.3): NTP clock synchronization accuracy ---")
		fmt.Printf("%-26s %-16s %-12s\n", "time source", "paper", "measured")
		// Average over several independent routes: asymmetry is random
		// per path, and the accuracy claim is about typical paths.
		mean := func(hops int) time.Duration {
			var sum time.Duration
			const paths = 8
			for seed := int64(1); seed <= paths; seed++ {
				sum += clockSyncError(hops, seed)
			}
			return sum / paths
		}
		sub := mean(0)
		routed := mean(3)
		fmt.Printf("%-26s %-16s %.3f ms\n", "GPS-NTP on subnet", "≈0.25 ms", float64(sub)/float64(time.Millisecond))
		fmt.Printf("%-26s %-16s %.3f ms\n", "3 router hops away", "≈1 ms", float64(routed)/float64(time.Millisecond))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clockSyncError(0, int64(i))
	}
}

// ---------------------------------------------------------------------------
// E4 (§2.2): the port monitor "greatly reduces the total amount of
// monitoring data" — always-on vs port-triggered sensors under a
// bursty FTP-like workload.

func portMonitorRun(triggered bool, seed int64) (events int) {
	g := core.New(core.Options{Seed: seed})
	site := g.AddSite("gw")
	server, err := g.AddHost(site, "ftp", core.HostSpec{Net: simnet.HostConfig{RecvCapacityBps: 1e9}})
	if err != nil {
		panic(err)
	}
	client, err := g.AddHost(site, "client", core.HostSpec{Net: simnet.HostConfig{RecvCapacityBps: 1e9}})
	if err != nil {
		panic(err)
	}
	g.ConnectRigs(client, server, simnet.RateGigE, time.Millisecond)

	mode := manager.ModeAlways
	var ports []int
	if triggered {
		mode = manager.ModePort
		ports = []int{21}
	}
	cfg := manager.Config{
		Sensors: []manager.SensorSpec{
			{Type: "netstat", Interval: manager.Duration(time.Second), Mode: mode, Ports: ports},
			{Type: "cpu", Interval: manager.Duration(time.Second), Mode: mode, Ports: ports},
		},
		PortPoll: manager.Duration(time.Second),
		PortIdle: manager.Duration(15 * time.Second),
	}
	if err := server.Manager.Apply(cfg); err != nil {
		panic(err)
	}
	col := consumer.NewCollector()
	if err := col.SubscribeAll(site.Gateway, gateway.Request{}); err != nil {
		panic(err)
	}
	// One hour with three 100 MB transfers — a grid host that is busy
	// a few minutes per hour.
	for i := 0; i < 3; i++ {
		delay := time.Duration(i)*20*time.Minute + 5*time.Minute
		g.Sched.After(delay, func() {
			g.Transfer(client, server, 30000, 21, 100e6, nil) //nolint:errcheck
		})
	}
	g.RunFor(time.Hour)
	return col.Len()
}

func BenchmarkE4PortMonitorReduction(b *testing.B) {
	reportOnce("e4", func() {
		always := portMonitorRun(false, 4)
		triggered := portMonitorRun(true, 4)
		fmt.Println("--- E4 (§2.2): port monitor data reduction, 1h with 3 transfers ---")
		fmt.Printf("paper:    port monitor 'greatly reduces the total amount of monitoring data'\n")
		fmt.Printf("measured: always-on %d events, port-triggered %d events (%.0fx reduction)\n",
			always, triggered, float64(always)/float64(triggered))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		portMonitorRun(true, int64(i))
	}
}

// ---------------------------------------------------------------------------
// E5 (§2.3): gateway fan-out — the monitored host pays once no matter
// how many consumers subscribe.

func BenchmarkE5GatewayFanout(b *testing.B) {
	run := func(consumers int) (published, delivered uint64) {
		gw := gateway.New("gw", nil)
		gw.Register("cpu@h", gateway.Meta{Host: "h"})
		for i := 0; i < consumers; i++ {
			if _, err := gw.Subscribe(gateway.Request{Sensor: "cpu@h"}, func(ulm.Record) {}); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 1000; i++ {
			gw.Publish("cpu@h", ulm.Record{Date: benchEpoch.Add(time.Duration(i) * time.Second),
				Host: "h", Prog: "p", Lvl: "Usage", Event: "E"})
		}
		st := gw.Stats()
		return st.Published, st.Delivered
	}
	reportOnce("e5", func() {
		fmt.Println("--- E5 (§2.3): gateway fan-out, 1000 events, N consumers ---")
		fmt.Printf("%-10s %-22s %-20s\n", "consumers", "host egress (events)", "gateway deliveries")
		for _, n := range []int{1, 4, 16, 64} {
			p, d := run(n)
			fmt.Printf("%-10d %-22d %-20d\n", n, p, d)
		}
		fmt.Printf("paper: 'the use of an event gateway reduces the amount of work on and the\n")
		fmt.Printf("amount of network traffic from the host being monitored' — egress is constant.\n")
	})
	// Timed: 1000 records through 16 consumers, ingested record-at-a-
	// time (a 1 Hz sensor stream) vs as 64-record batches (a batched
	// wire frame or bridge mirror) — the fan-out cost the batch-native
	// delivery plane amortizes.
	mkFanout := func(batchSubs bool) *gateway.Gateway {
		gw := gateway.New("gw", nil)
		gw.Register("cpu@h", gateway.Meta{Host: "h"})
		for i := 0; i < 16; i++ {
			var err error
			if batchSubs {
				_, err = gw.SubscribeBatch(gateway.Request{Sensor: "cpu@h"}, func([]ulm.Record) {})
			} else {
				_, err = gw.Subscribe(gateway.Request{Sensor: "cpu@h"}, func(ulm.Record) {})
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		return gw
	}
	recs := make([]ulm.Record, 1000)
	for i := range recs {
		recs[i] = ulm.Record{Date: benchEpoch.Add(time.Duration(i) * time.Second),
			Host: "h", Prog: "p", Lvl: "Usage", Event: "E"}
	}
	b.Run("record-at-a-time", func(b *testing.B) {
		gw := mkFanout(false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := range recs {
				gw.Publish("cpu@h", recs[k])
			}
		}
	})
	b.Run("batched-64", func(b *testing.B) {
		gw := mkFanout(true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for off := 0; off < len(recs); off += 64 {
				gw.PublishBatch("cpu@h", recs[off:min(off+64, len(recs))])
			}
		}
	})
}

// ---------------------------------------------------------------------------
// E6 (§2.2): gateway filtering — on-change delivery of a retransmit
// counter vs every-second delivery, plus threshold and delta filters.

func BenchmarkE6GatewayFilters(b *testing.B) {
	// One hour of 1 Hz netstat reports; the counter changes 12 times.
	mkRecs := func() []ulm.Record {
		recs := make([]ulm.Record, 3600)
		val := 0
		for i := range recs {
			if i > 0 && i%300 == 0 {
				val += 3
			}
			recs[i] = ulm.Record{Date: benchEpoch.Add(time.Duration(i) * time.Second),
				Host: "h", Prog: "netstat", Lvl: "Usage", Event: "NETSTAT_RETRANS",
				Fields: []ulm.Field{{Key: "VAL", Value: fmt.Sprint(val)}}}
		}
		return recs
	}
	recs := mkRecs()
	run := func(req gateway.Request) (delivered uint64) {
		gw := gateway.New("gw", nil)
		sub, err := gw.Subscribe(req, func(ulm.Record) {})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			gw.Publish("netstat@h", r)
		}
		d, _ := sub.Counts()
		return d
	}
	reportOnce("e6", func() {
		fmt.Println("--- E6 (§2.2): gateway delivery filters, 1h of 1 Hz netstat reports ---")
		fmt.Printf("%-34s %-12s\n", "request", "delivered")
		fmt.Printf("%-34s %-12d\n", "all events (raw sensor output)", run(gateway.Request{}))
		fmt.Printf("%-34s %-12d\n", "on-change (counter changed)", run(gateway.Request{Mode: gateway.DeliverOnChange}))
		fmt.Printf("%-34s %-12d\n", "threshold crossing >9", run(gateway.Request{Mode: gateway.DeliverThreshold, Above: gateway.Float64(9)}))
		fmt.Printf("%-34s %-12d\n", "changes by more than 20%", run(gateway.Request{Mode: gateway.DeliverThreshold, DeltaFrac: 0.2}))
		fmt.Printf("paper: 'most consumers only want to be notified when the counter changes,\n")
		fmt.Printf("and not every second'\n")
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(gateway.Request{Mode: gateway.DeliverOnChange})
	}
}

// ---------------------------------------------------------------------------
// E7 (§2.2): directory backends — the read-optimized (stock LDAP)
// backend degrades under many updates; the write-optimized (Globus)
// backend does not.

func dirWorkload(backend directory.Backend, reads, writes int) time.Duration {
	const entries = 500
	srv := directory.NewServer("d", backend)
	for i := 0; i < entries; i++ {
		e := directory.NewEntry(directory.DN(fmt.Sprintf("sensor=s%d,ou=sensors,o=jamm", i)),
			map[string]string{"objectclass": "jammSensor", "sensor": fmt.Sprintf("s%d", i), "status": "running"})
		if err := srv.Add("m", e); err != nil {
			panic(err)
		}
	}
	// Reads are the common consumer lookup: find one sensor by name.
	// Writes are the common manager refresh: update one entry's
	// lastmsg. The backends differ in write cost (snapshot rebuilds
	// the whole store per update), which is the paper's point.
	total := reads + writes
	start := time.Now()
	acc := 0
	for i := 0; i < total; i++ {
		acc += writes
		if acc >= total {
			acc -= total
			dn := directory.DN(fmt.Sprintf("sensor=s%d,ou=sensors,o=jamm", i%entries))
			srv.Modify("m", dn, map[string][]string{"lastmsg": {fmt.Sprint(i)}}) //nolint:errcheck
		} else {
			filter := directory.MustFilter(fmt.Sprintf("(sensor=s%d)", i%entries))
			srv.Search("m", "ou=sensors,o=jamm", directory.ScopeSubtree, filter) //nolint:errcheck
		}
	}
	return time.Since(start)
}

func BenchmarkE7DirectoryBackends(b *testing.B) {
	reportOnce("e7", func() {
		fmt.Println("--- E7 (§2.2): directory backends under read/write mixes (4k ops, 500 entries) ---")
		fmt.Printf("%-12s %-26s %-26s\n", "R:W mix", "snapshot (read-optimized)", "mutable (write-optimized)")
		mixes := []struct {
			name          string
			reads, writes int
		}{
			{"100:1", 3960, 40},
			{"10:1", 3600, 400},
			{"1:1", 2000, 2000},
			{"1:10", 400, 3600},
			{"write-only", 0, 4000},
		}
		for _, m := range mixes {
			snap := dirWorkload(directory.NewSnapshotBackend(), m.reads, m.writes)
			mut := dirWorkload(directory.NewMutableBackend(), m.reads, m.writes)
			fmt.Printf("%-12s %-26s %-26s\n", m.name,
				fmt.Sprintf("%6.1f ms", float64(snap.Microseconds())/1000),
				fmt.Sprintf("%6.1f ms", float64(mut.Microseconds())/1000))
		}
		fmt.Printf("paper: stock LDAP is 'optimized for read access, and do[es] not work well in an\n")
		fmt.Printf("environment with many updates'; Globus puts an update-optimized database under LDAP.\n")
	})
	b.Run("snapshot-write-heavy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dirWorkload(directory.NewSnapshotBackend(), 40, 360)
		}
	})
	b.Run("mutable-write-heavy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dirWorkload(directory.NewMutableBackend(), 40, 360)
		}
	})
}

// ---------------------------------------------------------------------------
// E8 (§2.2): gateway summary data — 1, 10 and 60 minute averages.

func BenchmarkE8SummaryWindows(b *testing.B) {
	build := func() *gateway.Gateway {
		now := benchEpoch
		gw := gateway.New("gw", func() time.Time { return now })
		gw.EnableSummary("cpu@h", "VMSTAT_SYS_TIME", "VAL")
		for i := 0; i < 2*3600; i++ {
			now = benchEpoch.Add(time.Duration(i) * time.Second)
			gw.Publish("cpu@h", ulm.Record{Date: now, Host: "h", Prog: "p", Lvl: "Usage",
				Event: "VMSTAT_SYS_TIME", Fields: []ulm.Field{{Key: "VAL", Value: fmt.Sprint(i % 100)}}})
		}
		return gw
	}
	gw := build()
	reportOnce("e8", func() {
		pts, err := gw.Summary("", "cpu@h", "VMSTAT_SYS_TIME", "VAL")
		if err != nil {
			b.Fatal(err)
		}
		fmt.Println("--- E8 (§2.2): gateway summary windows after 2h of 1 Hz CPU samples ---")
		for _, p := range pts {
			fmt.Printf("last %-6s avg=%6.2f min=%5.1f max=%5.1f n=%d\n", p.Window, p.Avg, p.Min, p.Max, p.Count)
		}
		fmt.Printf("paper: 'it can compute 1, 10, and 60 minute averages of CPU usage, and make\n")
		fmt.Printf("this information available to consumers'\n")
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gw.Summary("", "cpu@h", "VMSTAT_SYS_TIME", "VAL"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E9 (§3.0): ULM format overhead — ASCII vs the binary option "for high
// throughput event data that can not tolerate the parsing overhead of
// ASCII formats", plus the XML rendering planned in §7.0.

func BenchmarkE9UlmFormats(b *testing.B) {
	rec := ulm.Record{
		Date: benchEpoch, Host: "dpss1.lbl.gov", Prog: "testProg", Lvl: "Usage",
		Event:  "WriteData",
		Fields: []ulm.Field{{Key: "SEND.SZ", Value: "49332"}, {Key: "STREAM", Value: "2"}},
	}
	ascii := rec.String()
	bin := ulm.AppendBinary(nil, &rec)
	xml, err := ulm.ToXML(&rec)
	if err != nil {
		b.Fatal(err)
	}
	reportOnce("e9", func() {
		fmt.Println("--- E9 (§3.0): event encoding formats ---")
		fmt.Printf("%-8s %5d bytes/event\n", "ULM", len(ascii))
		fmt.Printf("%-8s %5d bytes/event\n", "binary", len(bin))
		fmt.Printf("%-8s %5d bytes/event\n", "XML", len(xml))
		fmt.Printf("paper: binary format motivated by ASCII parsing overhead; see ns/op below.\n")
	})
	b.Run("parse-ascii", func(b *testing.B) {
		b.SetBytes(int64(len(ascii)))
		for i := 0; i < b.N; i++ {
			if _, err := ulm.Parse(ascii); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-binary", func(b *testing.B) {
		b.SetBytes(int64(len(bin)))
		var out ulm.Record
		for i := 0; i < b.N; i++ {
			if _, err := ulm.DecodeBinary(bin, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse-xml", func(b *testing.B) {
		b.SetBytes(int64(len(xml)))
		for i := 0; i < b.N; i++ {
			if _, err := ulm.FromXML(xml); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("format-ascii", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = rec.String()
		}
	})
	b.Run("encode-binary", func(b *testing.B) {
		buf := make([]byte, 0, 256)
		for i := 0; i < b.N; i++ {
			buf = ulm.AppendBinary(buf[:0], &rec)
		}
	})
}

// ---------------------------------------------------------------------------
// E10 (§7.1): one authorization interface for directory lookups and
// gateway subscriptions, driven by certificate identity.

func BenchmarkE10AuthOverhead(b *testing.B) {
	policy := auth.NewPolicy()
	policy.AddCondition(auth.UseCondition{
		Resource:   "gateway/gw",
		Actions:    []string{auth.ActionStream, auth.ActionQuery, auth.ActionSummary},
		DNPatterns: []string{"*,O=LBNL"},
	})
	policy.AddCondition(auth.UseCondition{
		Resource:   "gateway/gw",
		Actions:    []string{auth.ActionSummary},
		Attributes: []auth.Attribute{{Name: "group", Value: "grid-users"}},
	})
	policy.GrantAttribute("CN=Rich Wolski,O=UTK", auth.Attribute{Name: "group", Value: "grid-users"})

	reportOnce("e10", func() {
		gw := gateway.New("gw", nil)
		gw.SetAuthorizer(policy)
		gw.EnableSummary("cpu@h", "E", "VAL", time.Minute)
		gw.Publish("cpu@h", ulm.Record{Date: benchEpoch, Host: "h", Prog: "p", Lvl: "Usage", Event: "E",
			Fields: []ulm.Field{{Key: "VAL", Value: "1"}}})
		type try struct {
			who    string
			what   string
			result error
		}
		_, insiderErr := gw.Subscribe(gateway.Request{Principal: "CN=Jason Lee,O=LBNL", Sensor: "cpu@h"}, func(ulm.Record) {})
		_, outsiderErr := gw.Subscribe(gateway.Request{Principal: "CN=Rich Wolski,O=UTK", Sensor: "cpu@h"}, func(ulm.Record) {})
		_, outsiderSumErr := gw.Summary("CN=Rich Wolski,O=UTK", "cpu@h", "E", "VAL")
		tries := []try{
			{"CN=Jason Lee,O=LBNL (insider)", "stream", insiderErr},
			{"CN=Rich Wolski,O=UTK (attr cert)", "stream", outsiderErr},
			{"CN=Rich Wolski,O=UTK (attr cert)", "summary", outsiderSumErr},
		}
		fmt.Println("--- E10 (§7.1): certificate-identity authorization at the gateway ---")
		for _, tr := range tries {
			verdict := "ALLOWED"
			if tr.result != nil {
				verdict = "DENIED"
			}
			fmt.Printf("%-36s %-10s %s\n", tr.who, tr.what, verdict)
		}
		fmt.Printf("paper: use conditions grant by DN components or attribute certificates; one\n")
		fmt.Printf("authorization interface serves both the LDAP wrapper and the gateway.\n")
	})
	b.Run("policy-authorize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			policy.Authorize("CN=Jason Lee,O=LBNL", "gateway/gw/cpu@h", auth.ActionStream) //nolint:errcheck
		}
	})
	b.Run("allow-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			auth.AllowAll.Authorize("CN=Jason Lee,O=LBNL", "gateway/gw/cpu@h", auth.ActionStream) //nolint:errcheck
		}
	})
}

// ---------------------------------------------------------------------------
// Core-path microbenchmarks: the event pipeline itself.

func BenchmarkGatewayPublish(b *testing.B) {
	gw := gateway.New("gw", nil)
	gw.Register("cpu@h", gateway.Meta{Host: "h"})
	var n int
	if _, err := gw.Subscribe(gateway.Request{Sensor: "cpu@h"}, func(ulm.Record) { n++ }); err != nil {
		b.Fatal(err)
	}
	rec := ulm.Record{Date: benchEpoch, Host: "h", Prog: "p", Lvl: "Usage", Event: "E",
		Fields: []ulm.Field{{Key: "VAL", Value: "42"}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gw.Publish("cpu@h", rec)
	}
}

// BenchmarkGatewayPublishParallel measures the sharded event-bus core
// under parallel publish: 64 subscriptions spread over 8 sensors, every
// goroutine publishing to its own rotation of sensors. The per-sensor
// subscription index means a publish touches only its own sensor's 8
// subscribers; per-shard locks keep publishers of different sensors off
// each other's critical sections.
func BenchmarkGatewayPublishParallel(b *testing.B) {
	gw := gateway.New("gw", nil)
	const sensors = 8
	names := make([]string, sensors)
	for i := range names {
		names[i] = fmt.Sprintf("cpu@h%d", i)
		gw.Register(names[i], gateway.Meta{Host: fmt.Sprintf("h%d", i)})
	}
	for i := 0; i < 64; i++ {
		if _, err := gw.Subscribe(gateway.Request{Sensor: names[i%sensors]}, func(ulm.Record) {}); err != nil {
			b.Fatal(err)
		}
	}
	rec := ulm.Record{Date: benchEpoch, Host: "h", Prog: "p", Lvl: "Usage", Event: "E",
		Fields: []ulm.Field{{Key: "VAL", Value: "42"}}}
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(seq.Add(1))
		for pb.Next() {
			gw.Publish(names[i%sensors], rec)
			i++
		}
	})
}

// BenchmarkGatewayPublishNoSubscribers is the steady-state floor: a
// publish with no matching subscribers must be 0 allocs/op.
func BenchmarkGatewayPublishNoSubscribers(b *testing.B) {
	gw := gateway.New("gw", nil)
	gw.Register("cpu@h", gateway.Meta{Host: "h"})
	rec := ulm.Record{Date: benchEpoch, Host: "h", Prog: "p", Lvl: "Usage", Event: "E"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gw.Publish("cpu@h", rec)
	}
}

// ---------------------------------------------------------------------------
// Remote event plane: two chained gateways. Records publish at gateway
// A, cross the wire protocol through a bus-to-bus bridge, and deliver
// out of gateway B's bus — the multi-host monitoring fabric of §2.3
// ("the gateway ran on a separate host from the grid resources").
// Batched frames amortize the per-record JSON/syscall cost; the
// benchmark compares them with wire-compatible single-record frames.

// chainedGateways wires gwA --TCP--> bridge --> gwB (with hops extra
// relay gateways spliced in between, each crossing the wire again) and
// returns the publish side, the delivered counter, and a teardown.
// proto pins the bridges' wire protocol; the intermediate gateways have
// no local consumers, so under v2 they sit in pure-relay position and
// never decode a record body.
func chainedGateways(tb testing.TB, batch int, proto gateway.Proto, hops int) (*gateway.Gateway, *atomic.Uint64, func()) {
	tb.Helper()
	gwA := gateway.New("gwA", nil)
	srv, err := gateway.ServeTCP(gwA, "127.0.0.1:0", nil)
	if err != nil {
		tb.Fatal(err)
	}
	servers := []*gateway.TCPServer{srv}
	var bridges []*bridge.Bridge
	opts := bridge.Options{BatchMax: batch, BatchWait: time.Millisecond}
	fail := func(args ...any) {
		for _, b := range bridges {
			b.Close()
		}
		for _, s := range servers {
			s.Close()
		}
		tb.Fatal(args...)
	}
	for i := 0; i < hops; i++ {
		mid := gateway.New(fmt.Sprintf("relay%d", i), nil)
		c := gateway.NewClient("bench", servers[len(servers)-1].Addr())
		c.Protocol = proto
		br := bridge.New(c, mid, opts)
		bridges = append(bridges, br)
		midSrv, err := gateway.ServeTCP(mid, "127.0.0.1:0", nil)
		if err != nil {
			fail(err)
		}
		servers = append(servers, midSrv)
	}
	gwB := gateway.New("gwB", nil)
	var delivered atomic.Uint64
	gwB.Bus().Subscribe("", nil, func(ulm.Record) { delivered.Add(1) })
	c := gateway.NewClient("bench", servers[len(servers)-1].Addr())
	c.Protocol = proto
	bridges = append(bridges, bridge.New(c, gwB, opts))
	for _, b := range bridges {
		if !b.WaitConnected(5 * time.Second) {
			fail("bridge never connected")
		}
	}
	cleanup := func() {
		var drops uint64
		for _, s := range servers {
			drops += s.WireStats().Drops()
		}
		for _, b := range bridges {
			b.Close()
		}
		for _, s := range servers {
			s.Close()
		}
		if drops != 0 {
			tb.Fatalf("%d wire drops during chained run", drops)
		}
	}
	return gwA, &delivered, cleanup
}

// chainedPublish pushes n records into gwA with source flow control
// (in-flight stays under the wire channel depth, so nothing is
// dropped) and waits until all n have been delivered at gateway B.
func chainedPublish(gwA *gateway.Gateway, delivered *atomic.Uint64, n int) {
	base := delivered.Load()
	rec := ulm.Record{Date: benchEpoch, Host: "h", Prog: "p", Lvl: "Usage", Event: "E",
		Fields: []ulm.Field{{Key: "VAL", Value: "42"}}}
	for i := 0; i < n; i++ {
		for uint64(i)-(delivered.Load()-base) > 192 {
			time.Sleep(20 * time.Microsecond)
		}
		gwA.Publish("cpu@h", rec)
	}
	for delivered.Load()-base < uint64(n) {
		time.Sleep(50 * time.Microsecond)
	}
}

func BenchmarkBridgeChainedGateways(b *testing.B) {
	reportOnce("bridge-chained", func() {
		const n = 20000
		rate := func(batch int, proto gateway.Proto, hops int) float64 {
			gwA, delivered, cleanup := chainedGateways(b, batch, proto, hops)
			defer cleanup()
			start := time.Now()
			chainedPublish(gwA, delivered, n)
			return float64(n) / time.Since(start).Seconds()
		}
		jsonSingle := rate(1, gateway.ProtoJSON, 0)
		jsonBatched := rate(64, gateway.ProtoJSON, 0)
		jsonRelay := rate(64, gateway.ProtoJSON, 2)
		v2Batched := rate(64, gateway.ProtoV2, 0)
		v2Relay := rate(64, gateway.ProtoV2, 2)
		fmt.Println("--- Remote event plane: gwA --wire--> bridge --> gwB, 20k records ---")
		fmt.Printf("%-28s %12.0f records/s\n", "json single-record frames", jsonSingle)
		fmt.Printf("%-28s %12.0f records/s (%.1fx)\n", "json batched frames (64)", jsonBatched, jsonBatched/jsonSingle)
		fmt.Printf("%-28s %12.0f records/s (%.1fx vs json batched)\n", "v2 binary frames (64)", v2Batched, v2Batched/jsonBatched)
		fmt.Printf("%-28s %12.0f records/s (each middle re-encodes every record)\n", "json + 2 relay gateways", jsonRelay)
		fmt.Printf("%-28s %12.0f records/s (%.1fx vs json 3-hop; middles never decode)\n", "v2 + 2 relay gateways", v2Relay, v2Relay/jsonRelay)
		fmt.Printf("paper: the relay hop dominates end-to-end monitoring cost (cs/0304015);\n")
		fmt.Printf("batching amortizes the per-record syscall, binary framing removes the\n")
		fmt.Printf("codec, and relay hops forward frame bytes untouched.\n")
	})
	for _, cfg := range []struct {
		name  string
		batch int
		proto gateway.Proto
		hops  int
	}{
		{"json-single-frame", 1, gateway.ProtoJSON, 0},
		{"json-batched-64", 64, gateway.ProtoJSON, 0},
		{"v2-batched-64", 64, gateway.ProtoV2, 0},
		{"v2-relay-3hop", 64, gateway.ProtoV2, 2},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			gwA, delivered, cleanup := chainedGateways(b, cfg.batch, cfg.proto, cfg.hops)
			defer cleanup()
			b.ResetTimer()
			chainedPublish(gwA, delivered, b.N)
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// ---------------------------------------------------------------------------
// Batch-native delivery plane: the in-process bus fanning one sensor's
// records out to N subscribers, record-at-a-time vs whole batches. One
// bench iteration moves batchSize records through the fan-out either
// way, so ns/op compares directly; the batch path pays one shard-lock
// acquisition, one subscriber merge, and one callback per subscriber
// per batch instead of per record.

func BenchmarkBusBatchFanout(b *testing.B) {
	const (
		fanout    = 16
		batchSize = 64
	)
	recs := make([]ulm.Record, batchSize)
	for i := range recs {
		recs[i] = ulm.Record{Date: benchEpoch.Add(time.Duration(i) * time.Second),
			Host: "h", Prog: "p", Lvl: "Usage", Event: "E",
			Fields: []ulm.Field{{Key: "VAL", Value: "42"}}}
	}
	mkSingle := func() (*bus.Bus, *atomic.Uint64) {
		bs := bus.New(bus.Options{})
		var n atomic.Uint64
		for i := 0; i < fanout; i++ {
			bs.Subscribe("cpu@h", nil, func(ulm.Record) { n.Add(1) })
		}
		return bs, &n
	}
	mkBatch := func() (*bus.Bus, *atomic.Uint64) {
		bs := bus.New(bus.Options{})
		var n atomic.Uint64
		for i := 0; i < fanout; i++ {
			bs.SubscribeBatch("cpu@h", nil, func(rs []ulm.Record) { n.Add(uint64(len(rs))) })
		}
		return bs, &n
	}
	reportOnce("bus-batch-fanout", func() {
		const rounds = 2000
		rate := func(run func()) float64 {
			start := time.Now()
			for i := 0; i < rounds; i++ {
				run()
			}
			return float64(rounds*batchSize) / time.Since(start).Seconds()
		}
		sb, _ := mkSingle()
		single := rate(func() {
			for k := range recs {
				sb.Publish("cpu@h", recs[k])
			}
		})
		bb, _ := mkBatch()
		batched := rate(func() { bb.PublishBatch("cpu@h", recs) })
		fmt.Println("--- Batch delivery: bus fan-out to 16 subscribers, 64-record batches ---")
		fmt.Printf("%-26s %14.0f records/s\n", "record-at-a-time Publish", single)
		fmt.Printf("%-26s %14.0f records/s (%.1fx)\n", "PublishBatch", batched, batched/single)
		fmt.Printf("batching amortizes the shard lock, subscriber merge, and callback per batch.\n")
	})
	b.Run("single", func(b *testing.B) {
		bs, n := mkSingle()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := range recs {
				bs.Publish("cpu@h", recs[k])
			}
		}
		if n.Load() == 0 {
			b.Fatal("nothing delivered")
		}
	})
	b.Run("batch", func(b *testing.B) {
		bs, n := mkBatch()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bs.PublishBatch("cpu@h", recs)
		}
		if n.Load() == 0 {
			b.Fatal("nothing delivered")
		}
	})
}

func BenchmarkArchiveAppendQuery(b *testing.B) {
	store := archive.NewStore(archive.Policy{SampleEvery: 10})
	rec := ulm.Record{Date: benchEpoch, Host: "h", Prog: "p", Lvl: "Usage", Event: "E"}
	b.Run("append", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec.Date = benchEpoch.Add(time.Duration(i) * time.Second)
			store.Append(rec)
		}
	})
	b.Run("query", func(b *testing.B) {
		q := archive.Query{Hosts: []string{"h"}}
		for i := 0; i < b.N; i++ {
			store.Query(q)
		}
	})
}
