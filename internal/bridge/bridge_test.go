package bridge

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"jamm/internal/bus"
	"jamm/internal/consumer"
	"jamm/internal/gateway"
	"jamm/internal/ulm"
)

var epoch = time.Date(2000, 5, 1, 0, 0, 0, 0, time.UTC)

func mkRec(event string, at time.Duration, val float64) ulm.Record {
	return ulm.Record{
		Date: epoch.Add(at), Host: "h1.lbl.gov", Prog: "jamm.cpu", Lvl: ulm.LvlUsage,
		Event:  event,
		Fields: []ulm.Field{{Key: "VAL", Value: fmt.Sprintf("%g", val)}},
	}
}

func startRemote(t *testing.T) (*gateway.Gateway, *gateway.TCPServer) {
	t.Helper()
	g := gateway.New("remote", nil)
	srv, err := gateway.ServeTCP(g, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return g, srv
}

func testOptions() Options {
	return Options{
		BatchMax: 8, BatchWait: time.Millisecond,
		MinBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
	}
}

func waitCount(t *testing.T, mu *sync.Mutex, n *int, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		got := *n
		mu.Unlock()
		if got >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	t.Fatalf("timed out: have %d records, want %d", *n, want)
}

// A bridged local bus transparently mirrors the remote gateway's
// topics: publish at the remote, observe on a plain local bus
// subscription, with topics preserved.
func TestBridgeMirrorsRemoteTopics(t *testing.T) {
	remote, srv := startRemote(t)
	local := bus.New(bus.Options{})
	br := New(gateway.NewClient("mirror", srv.Addr()), local, testOptions())
	defer br.Close()

	var mu sync.Mutex
	var n int
	var topics []string
	local.SubscribeBatchTopics("", nil, func(topic string, recs []ulm.Record) {
		mu.Lock()
		for range recs {
			n++
			topics = append(topics, topic)
		}
		mu.Unlock()
	})
	if !br.WaitConnected(5 * time.Second) {
		t.Fatal("bridge never connected")
	}
	remote.Publish("cpu@h1", mkRec("E", 0, 1))
	remote.Publish("mem@h1", mkRec("E", time.Second, 2))
	waitCount(t, &mu, &n, 2)
	mu.Lock()
	defer mu.Unlock()
	if topics[0] != "cpu@h1" || topics[1] != "mem@h1" {
		t.Fatalf("mirrored topics = %v", topics)
	}
	if st := br.Stats(); st.Mirrored != 2 || st.Connects != 1 || !st.Connected {
		t.Fatalf("bridge stats = %+v", st)
	}
}

// Bridging into a gateway (not a raw bus) makes mirrored records first
// class: they land in the last-event cache and are queryable — the
// chained-gateway topology.
func TestBridgeIntoGatewayChains(t *testing.T) {
	remote, srv := startRemote(t)
	downstream := gateway.New("downstream", nil)
	br := New(gateway.NewClient("chain", srv.Addr()), downstream, testOptions())
	defer br.Close()
	if !br.WaitConnected(5 * time.Second) {
		t.Fatal("bridge never connected")
	}
	remote.Publish("cpu@h1", mkRec("E", 0, 42))
	deadline := time.Now().Add(5 * time.Second)
	for downstream.Stats().Published == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	rec, found, err := downstream.Query("", "cpu@h1", "E")
	if err != nil || !found {
		t.Fatalf("query at downstream gateway: %v found=%v", err, found)
	}
	if v, _ := rec.Float("VAL"); v != 42 {
		t.Fatalf("mirrored VAL = %v", v)
	}
}

// A bounced gateway does not orphan the mirror: the bridge reconnects
// with backoff, resubscribes, and events published after the restart
// still arrive.
func TestBridgeReconnectsAfterServerRestart(t *testing.T) {
	remote, srv := startRemote(t)
	addr := srv.Addr()
	local := bus.New(bus.Options{})
	var mu sync.Mutex
	var n int
	local.Subscribe("", nil, func(ulm.Record) {
		mu.Lock()
		n++
		mu.Unlock()
	})
	br := New(gateway.NewClient("mirror", addr), local, testOptions())
	defer br.Close()
	if !br.WaitConnected(5 * time.Second) {
		t.Fatal("bridge never connected")
	}
	remote.Publish("cpu@h1", mkRec("E", 0, 1))
	waitCount(t, &mu, &n, 1)

	// Bounce the server on the same address (fresh gateway instance —
	// a restarted process has no memory either).
	srv.Close()
	remote2 := gateway.New("remote", nil)
	var srv2 *gateway.TCPServer
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var err error
		if srv2, err = gateway.ServeTCP(remote2, addr, nil); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if srv2 == nil {
		t.Fatalf("could not rebind %s", addr)
	}
	defer srv2.Close()

	deadline = time.Now().Add(5 * time.Second)
	for br.Stats().Connects < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if br.Stats().Connects < 2 {
		t.Fatal("bridge never resubscribed after restart")
	}
	remote2.Publish("cpu@h1", mkRec("E", time.Second, 2))
	waitCount(t, &mu, &n, 2)
}

// Scoped requests mirror only what they name, and Prefix namespaces
// the mirrored topics.
func TestBridgeScopedAndPrefixed(t *testing.T) {
	remote, srv := startRemote(t)
	local := bus.New(bus.Options{})
	opts := testOptions()
	opts.Requests = []gateway.Request{{Sensor: "cpu@h1"}}
	opts.Prefix = "lbl/"
	br := New(gateway.NewClient("mirror", srv.Addr()), local, opts)
	defer br.Close()

	var mu sync.Mutex
	var n int
	local.Subscribe("lbl/cpu@h1", nil, func(ulm.Record) {
		mu.Lock()
		n++
		mu.Unlock()
	})
	if !br.WaitConnected(5 * time.Second) {
		t.Fatal("bridge never connected")
	}
	remote.Publish("cpu@h1", mkRec("E", 0, 1))
	remote.Publish("mem@h1", mkRec("E", 0, 1)) // out of scope
	waitCount(t, &mu, &n, 1)
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		if br.Stats().Mirrored > 1 {
			t.Fatal("out-of-scope topic mirrored")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The paper's process monitor works unchanged against a bridged bus:
// a PROC_DIED event on a remote host triggers local actions.
func TestBridgeProcessMonitorOverBridgedBus(t *testing.T) {
	remote, srv := startRemote(t)
	local := bus.New(bus.Options{})
	br := New(gateway.NewClient("monitor", srv.Addr()), local, testOptions())
	defer br.Close()

	pm := consumer.NewProcessMonitor("ftpd", consumer.Action{Kind: "page"})
	pm.SubscribeBus(local, "")
	defer pm.Close()
	if !br.WaitConnected(5 * time.Second) {
		t.Fatal("bridge never connected")
	}
	died := ulm.Record{
		Date: epoch, Host: "dpss1.lbl.gov", Prog: "procmon", Lvl: ulm.LvlUsage,
		Event:  "PROC_DIED",
		Fields: []ulm.Field{{Key: "PROC", Value: "ftpd"}},
	}
	remote.Publish("proc@dpss1", died)
	deadline := time.Now().Add(5 * time.Second)
	for len(pm.Actions()) == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	acts := pm.Actions()
	if len(acts) != 1 || acts[0].Kind != "page" || acts[0].Proc != "ftpd" {
		t.Fatalf("actions over bridged bus = %+v", acts)
	}
}

// A mutual peer cycle (A mirrors B, B mirrors A) must not amplify
// forever: the hop counter bounds the loop and the overflow is counted
// as LoopDrops.
func TestBridgeMutualMirrorLoopBounded(t *testing.T) {
	gwA, srvA := startRemote(t)
	gwB, srvB := startRemote(t)
	opts := testOptions()
	opts.MaxHops = 3
	brAtoB := New(gateway.NewClient("b-mirrors-a", srvA.Addr()), gwB, opts)
	defer brAtoB.Close()
	brBtoA := New(gateway.NewClient("a-mirrors-b", srvB.Addr()), gwA, opts)
	defer brBtoA.Close()
	if !brAtoB.WaitConnected(5*time.Second) || !brBtoA.WaitConnected(5*time.Second) {
		t.Fatal("bridges never connected")
	}
	gwA.Publish("cpu@h1", mkRec("E", 0, 1))
	deadline := time.Now().Add(5 * time.Second)
	for brAtoB.Stats().LoopDrops+brBtoA.Stats().LoopDrops == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if brAtoB.Stats().LoopDrops+brBtoA.Stats().LoopDrops == 0 {
		t.Fatal("loop never hit the hop limit")
	}
	// The cycle is dead: mirrored counts stop growing.
	time.Sleep(50 * time.Millisecond)
	m1 := brAtoB.Stats().Mirrored + brBtoA.Stats().Mirrored
	time.Sleep(100 * time.Millisecond)
	m2 := brAtoB.Stats().Mirrored + brBtoA.Stats().Mirrored
	if m2 != m1 {
		t.Fatalf("mirror loop still amplifying: %d -> %d", m1, m2)
	}
	if m2 > uint64(opts.MaxHops) {
		t.Fatalf("mirrored %d records for one publish with MaxHops=%d", m2, opts.MaxHops)
	}
}

// Close is idempotent and stops the mirror promptly.
func TestBridgeClose(t *testing.T) {
	remote, srv := startRemote(t)
	local := bus.New(bus.Options{})
	br := New(gateway.NewClient("mirror", srv.Addr()), local, testOptions())
	if !br.WaitConnected(5 * time.Second) {
		t.Fatal("bridge never connected")
	}
	br.Close()
	br.Close()
	if br.Connected() {
		t.Fatal("still connected after Close")
	}
	remote.Publish("cpu@h1", mkRec("E", 0, 1))
	time.Sleep(20 * time.Millisecond)
	if st := br.Stats(); st.Mirrored != 0 {
		t.Fatalf("mirrored after Close = %d", st.Mirrored)
	}
}

// TestBridgeZeroCopyRelayChain is the wire-v2 tentpole at the bridge
// layer: a three-gateway chain A → B → C where B is in pure-relay
// position (no local consumers, no filter, no prefix). Frames must
// cross B without a single record decode — B's FrameStats shows relays
// and zero decodes — while C, which has a real subscriber, decodes
// exactly once. The hop counter still advances per bridge hop, riding
// the frame header instead of the record bodies.
func TestBridgeZeroCopyRelayChain(t *testing.T) {
	gwA, srvA := startRemote(t)
	gwB, srvB := startRemote(t)
	gwC := gateway.New("tail", nil)

	brAB := New(gateway.NewClient("b-mirrors-a", srvA.Addr()), gwB, testOptions())
	defer brAB.Close()
	brBC := New(gateway.NewClient("c-mirrors-b", srvB.Addr()), gwC, testOptions())
	defer brBC.Close()
	if !brAB.WaitConnected(5*time.Second) || !brBC.WaitConnected(5*time.Second) {
		t.Fatal("bridges never connected")
	}

	var mu sync.Mutex
	var n int
	var hops int
	if _, err := gwC.SubscribeBatch(gateway.Request{}, func(recs []ulm.Record) {
		mu.Lock()
		n += len(recs)
		for _, r := range recs {
			if raw, ok := r.Get(HopField); ok {
				fmt.Sscanf(raw, "%d", &hops)
			}
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	gwA.PublishBatch("cpu@h1", []ulm.Record{mkRec("E", 0, 1), mkRec("E", time.Second, 2)})
	waitCount(t, &mu, &n, 2)

	// B moved the records without ever decoding them.
	fsB := gwB.FrameStats()
	if fsB.Decodes != 0 {
		t.Fatalf("relay gateway decoded %d frames, want 0", fsB.Decodes)
	}
	if fsB.Relays == 0 || fsB.RelayRecords < 2 {
		t.Fatalf("relay gateway FrameStats = %+v, want relays covering 2 records", fsB)
	}
	if st := brBC.Stats(); st.RelayedFrames == 0 || st.Mirrored < 2 {
		t.Fatalf("tail bridge stats = %+v, want relayed frames", st)
	}
	// C decoded (it has a bus subscriber) — exactly where the chain ends.
	if fsC := gwC.FrameStats(); fsC.Decodes == 0 {
		t.Fatalf("tail gateway FrameStats = %+v, want decodes", fsC)
	}
	// Two bridge hops folded into the record on final decode.
	mu.Lock()
	defer mu.Unlock()
	if hops != 2 {
		t.Fatalf("decoded hop count = %d, want 2", hops)
	}
	// Relay accounting still reaches gateway stats at every hop.
	if gwB.Stats().Published < 2 {
		t.Fatalf("relay gateway Published = %d, want >= 2", gwB.Stats().Published)
	}
}

// TestBridgeMixedVersionChain: pinning the middle server to the JSON
// protocol must not break the chain — the downstream bridge falls back
// to a decoded batch stream per request and records still arrive, just
// without the zero-copy property at that hop.
func TestBridgeMixedVersionChain(t *testing.T) {
	gwA, srvA := startRemote(t)
	gwB, srvB := startRemote(t)
	srvB.SetMaxVersion(1) // middle hop speaks only JSON-per-line
	gwC := gateway.New("tail", nil)

	brAB := New(gateway.NewClient("b-mirrors-a", srvA.Addr()), gwB, testOptions())
	defer brAB.Close()
	brBC := New(gateway.NewClient("c-mirrors-b", srvB.Addr()), gwC, testOptions())
	defer brBC.Close()
	if !brAB.WaitConnected(5*time.Second) || !brBC.WaitConnected(5*time.Second) {
		t.Fatal("bridges never connected")
	}

	var mu sync.Mutex
	var n int
	if _, err := gwC.SubscribeBatch(gateway.Request{}, func(recs []ulm.Record) {
		mu.Lock()
		n += len(recs)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	gwA.Publish("cpu@h1", mkRec("E", 0, 7))
	waitCount(t, &mu, &n, 1)

	// The downstream bridge degraded gracefully: no relayed frames, but
	// the mirror works.
	if st := brBC.Stats(); st.RelayedFrames != 0 || st.Mirrored < 1 {
		t.Fatalf("tail bridge stats = %+v, want decoded fallback", st)
	}
}

// TestBridgePrefixDisablesRelay: a prefix rewrite changes every
// record's topic, so the bridge must never forward raw frames (their
// sensor is baked into the bytes) — it stays on the decoded path.
func TestBridgePrefixDisablesRelay(t *testing.T) {
	remote, srv := startRemote(t)
	downstream := gateway.New("downstream", nil)
	opts := testOptions()
	opts.Prefix = "site/"
	br := New(gateway.NewClient("mirror", srv.Addr()), downstream, opts)
	defer br.Close()
	if !br.WaitConnected(5 * time.Second) {
		t.Fatal("bridge never connected")
	}
	remote.Publish("cpu@h1", mkRec("E", 0, 5))
	deadline := time.Now().Add(5 * time.Second)
	for downstream.Stats().Published == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if _, found, err := downstream.Query("", "site/cpu@h1", "E"); err != nil || !found {
		t.Fatalf("prefixed query: %v found=%v", err, found)
	}
	if st := br.Stats(); st.RelayedFrames != 0 {
		t.Fatalf("prefixed bridge relayed %d raw frames; prefixes require decode", st.RelayedFrames)
	}
}

// gatedTarget holds every mirrored publish while its gate is shut, so
// the bridge stops reading and the remote server's bounded subscription
// queue overflows however fast the host is.
type gatedTarget struct {
	bus    *bus.Bus
	mu     sync.Mutex
	opened chan struct{} // closed while the gate is open
}

func newGatedTarget() *gatedTarget {
	g := &gatedTarget{bus: bus.New(bus.Options{}), opened: make(chan struct{})}
	close(g.opened)
	return g
}

func (g *gatedTarget) shut() {
	g.mu.Lock()
	g.opened = make(chan struct{})
	g.mu.Unlock()
}

// open lets held and later publishes through; it may be called on an
// open gate.
func (g *gatedTarget) open() {
	g.mu.Lock()
	select {
	case <-g.opened:
	default:
		close(g.opened)
	}
	g.mu.Unlock()
}

func (g *gatedTarget) wait() {
	g.mu.Lock()
	opened := g.opened
	g.mu.Unlock()
	<-opened
}

func (g *gatedTarget) Publish(topic string, rec ulm.Record) {
	g.wait()
	g.bus.Publish(topic, rec)
}

func (g *gatedTarget) PublishBatch(topic string, recs []ulm.Record) {
	g.wait()
	g.bus.PublishBatch(topic, recs)
}

// TestBridgeStatsMonotonicAcrossStreamTeardown is the regression test
// for Stats double/under-counting RemoteDrops when a stream finishes
// mid-snapshot: the finished-stream accumulation used to race the
// live-stream sum, so a snapshot taken while a round was torn down
// could miss (or with a different interleaving, double-count) a
// stream's drops. Cumulative counters must be monotonic under
// concurrent snapshots while streams die and reconnect.
func TestBridgeStatsMonotonicAcrossStreamTeardown(t *testing.T) {
	remote, srv := startRemote(t)
	addr := srv.Addr()
	target := newGatedTarget()
	br := New(gateway.NewClient("mirror", addr), target, testOptions())
	defer br.Close()
	defer target.open() // before Close, which waits for a held publish
	if !br.WaitConnected(5 * time.Second) {
		t.Fatal("bridge never connected")
	}

	// Concurrent snapshotters: cumulative counters must never dip.
	stop := make(chan struct{})
	violation := make(chan string, 1)
	var pollers sync.WaitGroup
	for i := 0; i < 2; i++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			var lastDrops, lastDecode uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				time.Sleep(50 * time.Microsecond)
				st := br.Stats()
				if st.RemoteDrops < lastDrops || st.DecodeErrors < lastDecode {
					select {
					case violation <- fmt.Sprintf("stats dipped: drops %d -> %d, decode %d -> %d",
						lastDrops, st.RemoteDrops, lastDecode, st.DecodeErrors):
					default:
					}
					return
				}
				lastDrops, lastDecode = st.RemoteDrops, st.DecodeErrors
			}
		}()
	}

	gw, server := remote, srv
	for round := 0; round < 2; round++ {
		// Overrun the server's bounded subscription channel so this
		// round's stream accumulates remote drops: with the gate shut
		// the bridge reads nothing, so enough records fill the TCP
		// socket buffers and then the subscription channel. Once the
		// server has dropped, the gate opens and the bridge reads on to
		// the drop count the server reports after its next write.
		before := br.Stats().RemoteDrops
		srvBefore := server.WireStats().SubDrops
		target.shut()
		deadline := time.Now().Add(10 * time.Second)
		for i := 0; server.WireStats().SubDrops == srvBefore && time.Now().Before(deadline); i++ {
			for j := 0; j < 2000; j++ {
				gw.Publish("cpu@h1", mkRec("E", time.Duration(i*2000+j), float64(j)))
			}
			time.Sleep(time.Millisecond)
		}
		target.open()
		for br.Stats().RemoteDrops == before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if br.Stats().RemoteDrops == before {
			t.Fatalf("round %d: no remote drops observed (channel never overflowed?)", round)
		}
		// Bounce the server: the stream finishes and its counters are
		// folded into the accumulated totals while the pollers snapshot.
		server.Close()
		gw = gateway.New("remote", nil)
		server = nil
		deadline = time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			var err error
			if server, err = gateway.ServeTCP(gw, addr, nil); err == nil {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if server == nil {
			t.Fatalf("could not rebind %s", addr)
		}
		deadline = time.Now().Add(5 * time.Second)
		for br.Stats().Connects < uint64(round+2) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	server.Close()
	close(stop)
	pollers.Wait()
	select {
	case v := <-violation:
		t.Fatal(v)
	default:
	}
	if br.Stats().RemoteDrops == 0 {
		t.Fatal("test never exercised nonzero RemoteDrops")
	}
}
