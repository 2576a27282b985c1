package site

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jamm/internal/activation"
	"jamm/internal/directory"
	"jamm/internal/gateway"
	"jamm/internal/histstore"
	"jamm/internal/router"
	"jamm/internal/transport"
	"jamm/internal/ulm"
)

// waitFor polls cond until it holds or ten seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := transport.Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// busyAddr returns a loopback address something listens on until the
// test ends.
func busyAddr(t *testing.T) string {
	t.Helper()
	ln, err := transport.Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

func cpuRecords(n int) []ulm.Record {
	base := time.Date(2000, 5, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]ulm.Record, n)
	for i := range recs {
		recs[i] = ulm.Record{
			Date: base.Add(time.Duration(i) * time.Millisecond), Host: "h1", Prog: "jamm.cpu", Lvl: "Usage",
			Event: "VMSTAT_SYS_TIME", Fields: []ulm.Field{{Key: "VAL", Value: strconv.Itoa(i)}},
		}
	}
	return recs
}

// TestGatewayDrainedShutdown starts a gateway with every part its
// shutdown orders — a summary, an archive, an aggregator, self-metrics,
// directory advertisements and a peer bridge — loads it while a wire
// subscriber is attached, and closes it at once: the subscriber and the
// reopened archive hold every record, and the directory holds none of
// the gateway's ownership entries. A second wire subscriber takes every
// topic, _agg/ and _sys/ included: every record the bus took in while
// it was attached reached it or was counted dropped, so no source
// published past the drain.
func TestGatewayDrainedShutdown(t *testing.T) {
	dirSrv := directory.NewServer("dir", directory.NewMutableBackend())
	dirTCP, err := directory.ServeTCP(dirSrv, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dirTCP.Close()
	dc := directory.NewClient("test", dirTCP.Addr())

	upCfg := DefaultGatewayConfig()
	upCfg.Name, upCfg.Addr = "gw.up", "127.0.0.1:0"
	up, err := StartGateway(upCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()

	const sensor, advertise, n = "cpu@h1", "gw-a.test:9100", 200
	archive := t.TempDir()
	cfg := DefaultGatewayConfig()
	cfg.Name, cfg.Addr, cfg.Advertise = "gw-a", "127.0.0.1:0", advertise
	cfg.Summaries = []string{sensor + "/VMSTAT_SYS_TIME/VAL"}
	cfg.Archive = archive
	cfg.Aggregate, cfg.AggregateEmit = true, time.Millisecond
	cfg.SysEmit = time.Millisecond
	cfg.Dirs = []string{dirTCP.Addr()}
	cfg.Peers = []string{up.Addr()}
	cfg.OpsAddr = "127.0.0.1:0"
	h, err := StartGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var got atomic.Int64
	c := gateway.NewClient("test", h.Addr())
	defer c.Close()
	stream, err := c.SubscribeBatchStream(gateway.Request{Sensor: sensor}, gateway.StreamOptions{}, func(_ string, recs []ulm.Record) {
		got.Add(int64(len(recs)))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	var all atomic.Uint64
	var sawAgg, sawSys atomic.Bool
	published := func() uint64 { return h.gw.Bus().Stats().Published }
	before := published()
	allStream, err := c.SubscribeBatchStream(gateway.Request{}, gateway.StreamOptions{}, func(topic string, recs []ulm.Record) {
		all.Add(uint64(len(recs)))
		if strings.HasPrefix(topic, "_agg/") {
			sawAgg.Store(true)
		} else if strings.HasPrefix(topic, "_sys/") {
			sawSys.Store(true)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer allStream.Close()
	after := published()
	waitFor(t, "the peer bridge", func() bool { return h.bridges[0].Connected() })
	waitFor(t, "_agg/ and _sys/ records", func() bool { return sawAgg.Load() && sawSys.Load() })

	owned := func() int {
		es, err := dc.Search(directory.DN(cfg.DirBase), directory.ScopeSubtree, "("+router.OwnerAttr+"="+advertise+")")
		if err != nil {
			t.Fatal(err)
		}
		return len(es)
	}
	recs := cpuRecords(n)
	h.gw.PublishBatch(sensor, recs[:10])
	waitFor(t, "the ownership entry", func() bool { return owned() > 0 })
	for i := 10; i < n; i += 10 {
		h.gw.PublishBatch(sensor, recs[i:i+10])
	}
	h.Close() // with most of the records still in flight
	<-stream.Done()
	<-allStream.Done()
	if g := got.Load(); g != n {
		t.Errorf("subscriber got %d records, want %d (drops %d)", g, n, stream.RemoteDrops())
	}
	// The bus counts a record when it is published, so the records
	// published while the catch-all subscription was being opened may or
	// may not have reached it: they bound the count from both sides.
	end, drops := published(), h.srv.WireStats().Drops()
	if g := all.Load(); g+drops < end-after || g > end-before {
		t.Errorf("catch-all subscriber got %d records and %d were dropped; the bus published %d to %d while it was attached",
			g, drops, end-after, end-before)
	}
	if k := owned(); k != 0 {
		t.Errorf("directory still holds %d ownership entries of the closed gateway", k)
	}
	hist, err := histstore.Open(archive, histstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer hist.Close()
	es, err := hist.Query(histstore.Query{Sensor: sensor})
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != n {
		t.Errorf("reopened archive holds %d records of %s, want %d", len(es), sensor, n)
	}
	if matches, _ := filepath.Glob(filepath.Join(archive, "seg-*.idx")); len(matches) == 0 {
		t.Error("archive not sealed: no seg-*.idx")
	}
}

// sensorConfig writes a sensor manager config running one CPU sensor.
func sensorConfig(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sensors.json")
	if err := os.WriteFile(path, []byte(`{"sensors": [{"type": "cpu", "interval": "50ms"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSensorHostForwardsAndAnswersControl runs a sensor host forwarding
// to a gateway: its sensor's records all arrive upstream, drained at
// shutdown, and the control service answers status and stop.
func TestSensorHostForwardsAndAnswersControl(t *testing.T) {
	upCfg := DefaultGatewayConfig()
	upCfg.Addr = "127.0.0.1:0"
	up, err := StartGateway(upCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()

	cfg := DefaultSensorHostConfig()
	cfg.Addr, cfg.Control, cfg.Forward = "127.0.0.1:0", "127.0.0.1:0", up.Addr()
	cfg.ConfigSource = sensorConfig(t)
	h, err := StartSensorHost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	upstream := func() (n uint64) {
		for _, si := range up.gw.Sensors() {
			if strings.HasPrefix(si.Name, cfg.Name+"/") {
				n += si.Published
			}
		}
		return n
	}
	waitFor(t, "records upstream", func() bool { return upstream() >= 3 })

	ctl := activation.Dial(h.ControlAddr(), nil)
	defer ctl.Close()
	status, err := ctl.Invoke("manager", "status", nil)
	if err != nil || !strings.Contains(status, "running=true") {
		t.Fatalf("status = %q, %v; want a running sensor", status, err)
	}
	name := strings.Fields(status)[0]
	if _, err := ctl.Invoke("manager", "stop", activation.Args{"name": name}); err != nil {
		t.Fatal(err)
	}
	if status, err = ctl.Invoke("manager", "status", nil); err != nil || !strings.Contains(status, "running=false") {
		t.Fatalf("status after stop = %q, %v; want the sensor stopped", status, err)
	}

	h.Close()
	published := h.gw.Stats().Published
	for deadline := time.Now().Add(10 * time.Second); upstream() != published; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("upstream holds %d of the host's records, want %d", upstream(), published)
		}
	}
}

// TestStartErrors checks that each bad config is an error from Start,
// not an exit, and that a failed Start lets go of what it had opened:
// the same addresses serve a good start afterwards.
func TestStartErrors(t *testing.T) {
	addr, ctlAddr, busy, dead := freeAddr(t), freeAddr(t), busyAddr(t), freeAddr(t)
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	sensors := sensorConfig(t)
	upCfg := DefaultGatewayConfig()
	upCfg.Addr = "127.0.0.1:0"
	up, err := StartGateway(upCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	gw := func(edit func(*GatewayConfig)) func() (interface{ Close() }, error) {
		return func() (interface{ Close() }, error) {
			cfg := DefaultGatewayConfig()
			cfg.Addr = addr
			edit(&cfg)
			return StartGateway(cfg)
		}
	}
	host := func(edit func(*SensorHostConfig)) func() (interface{ Close() }, error) {
		return func() (interface{ Close() }, error) {
			cfg := DefaultSensorHostConfig()
			cfg.Addr, cfg.Control, cfg.ConfigSource = addr, ctlAddr, sensors
			edit(&cfg)
			return StartSensorHost(cfg)
		}
	}
	for _, tc := range []struct {
		name  string
		start func() (interface{ Close() }, error)
	}{
		{"bad wire-proto", gw(func(c *GatewayConfig) { c.WireProto = "smoke" })},
		{"malformed summary", gw(func(c *GatewayConfig) { c.Summaries = []string{"cpu@h1/VAL"} })},
		{"replicas without ring", gw(func(c *GatewayConfig) { c.Replicas = 2 })},
		{"archive not a directory", gw(func(c *GatewayConfig) { c.Archive = notDir; c.Aggregate = true })},
		{"address in use", gw(func(c *GatewayConfig) { c.Addr = busy; c.Archive = t.TempDir() })},
		{"ops address in use", gw(func(c *GatewayConfig) {
			c.OpsAddr, c.Archive, c.Aggregate, c.SysEmit = busy, t.TempDir(), true, time.Second
			c.Peers, c.AggPeers, c.Dirs = []string{dead}, []string{dead}, []string{dead}
		})},
		{"jammd bad wire-proto", host(func(c *SensorHostConfig) { c.WireProto = "smoke" })},
		{"jammd config fetch", host(func(c *SensorHostConfig) { c.ConfigSource = notDir + ".missing" })},
		{"jammd forwarder without gateways", host(func(c *SensorHostConfig) { c.Ring = "," })},
		{"jammd control address in use", host(func(c *SensorHostConfig) { c.Control = busy; c.Peers = []string{dead} })},
		{"jammd ops address in use", host(func(c *SensorHostConfig) { c.OpsAddr = busy; c.Forward = up.Addr() })},
	} {
		h, err := tc.start()
		if err == nil {
			h.Close()
			t.Errorf("%s: started, want an error", tc.name)
			continue
		}
		t.Logf("%s: %v", tc.name, err)
	}
	cfg := DefaultGatewayConfig()
	cfg.Addr = addr
	h, err := StartGateway(cfg)
	if err != nil {
		t.Fatalf("good start on %s after the failed ones: %v", addr, err)
	}
	h.Close()
	ln, err := transport.Listen(ctlAddr, nil)
	if err != nil {
		t.Fatalf("control address %s still held after the failed starts: %v", ctlAddr, err)
	}
	ln.Close()
}
