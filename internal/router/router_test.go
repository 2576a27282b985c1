package router

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"jamm/internal/consumer"
	"jamm/internal/directory"
	"jamm/internal/gateway"
	"jamm/internal/manager"
	"jamm/internal/ring"
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

// serverDir adapts an in-process directory server to the Directory
// interface; manager.ServerDirectory is the canonical adapter (daemon
// deployments use *directory.Client instead).
func serverDir(srv *directory.Server, principal string) manager.ServerDirectory {
	return manager.ServerDirectory{Srv: srv, Principal: principal}
}

const sensorBase = directory.DN("ou=sensors,o=jamm")

// shardedSite is a 3-gateway site with directory-advertised ownership.
type shardedSite struct {
	gws   []*gateway.Gateway
	srvs  []*gateway.TCPServer
	addrs []string
	dir   *directory.Server
	ring  *ring.Ring
}

func startSite(t *testing.T, n int) *shardedSite {
	t.Helper()
	s := &shardedSite{dir: directory.NewServer("dir", directory.NewMutableBackend())}
	for i := 0; i < n; i++ {
		gw := gateway.New(fmt.Sprintf("gw%d", i), nil)
		srv, err := gateway.ServeTCP(gw, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		ann := NewAnnouncer(serverDir(s.dir, "gw"), sensorBase, gw.Name(), srv.Addr())
		ann.Attach(gw)
		t.Cleanup(ann.Close)
		s.gws = append(s.gws, gw)
		s.srvs = append(s.srvs, srv)
		s.addrs = append(s.addrs, srv.Addr())
	}
	s.ring = ring.New(s.addrs, 64)
	return s
}

func (s *shardedSite) router(t *testing.T) *Router {
	t.Helper()
	rt, err := New(Options{
		Ring:      s.ring,
		Directory: serverDir(s.dir, "consumer"),
		Base:      sensorBase,
		Principal: "consumer",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// gwIndex returns the index of the gateway serving addr.
func (s *shardedSite) gwIndex(t *testing.T, addr string) int {
	t.Helper()
	for i, a := range s.addrs {
		if a == addr {
			return i
		}
	}
	t.Fatalf("address %s not in site", addr)
	return -1
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestShardedSiteEndToEnd is the 3-gateway acceptance test: a sensor
// published at any node of the ring lands at (exactly) its owning
// gateway, the directory advertises the ownership, and Query/Subscribe
// issued against the site reach the owner transparently.
func TestShardedSiteEndToEnd(t *testing.T) {
	site := startSite(t, 3)
	rt := site.router(t)

	// Publish a spread of sensors through the router; each must land
	// only at its ring owner. The ring's members are ephemeral ports, so
	// the names are picked once it exists: the twelfth is one the ring
	// gives a second owner if the first eleven all fell to one.
	var sensors []string
	owners := make(map[string]bool)
	for i := 0; len(sensors) < 12; i++ {
		name := fmt.Sprintf("cpu@h%d.lbl.gov", i)
		if owner := site.ring.Owner(name); len(sensors) < 11 || len(owners) > 1 || !owners[owner] {
			owners[owner] = true
			sensors = append(sensors, name)
		}
	}
	for i := range sensors {
		if err := rt.Publish(sensors[i], mkRec("E", time.Duration(i)*time.Second, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}
	// The wire publish path is fire-and-forget: wait for ingest.
	waitFor(t, "all records ingested", func() bool {
		var total uint64
		for _, gw := range site.gws {
			total += gw.Stats().Published
		}
		return total >= uint64(len(sensors))
	})

	owned := make(map[int]int) // gateway index -> sensors owned
	for _, sensor := range sensors {
		ownerIdx := site.gwIndex(t, site.ring.Owner(sensor))
		owned[ownerIdx]++
		for i, gw := range site.gws {
			_, found, err := gw.Query("", sensor, "E")
			if i == ownerIdx {
				if err != nil || !found {
					t.Fatalf("sensor %s missing at owner gw%d: %v", sensor, i, err)
				}
			} else if err == nil {
				t.Fatalf("sensor %s leaked to non-owner gw%d", sensor, i)
			}
		}
	}
	if len(owned) < 2 {
		t.Fatalf("placement degenerate: all sensors on %d gateway(s)", len(owned))
	}

	// The directory advertises every sensor's owner (implicit wire
	// registration fired the announcer; advertisements land async).
	for _, sensor := range sensors {
		sensor := sensor
		waitFor(t, "ownership entry for "+sensor, func() bool {
			entries, err := serverDir(site.dir, "t").Search(SensorDN(sensorBase, sensor), directory.ScopeBase, "")
			if err != nil || len(entries) != 1 {
				return false
			}
			addr, _ := entries[0].Get(OwnerAttr)
			return addr == site.ring.Owner(sensor)
		})
	}

	// Query through the router resolves the owner transparently.
	for _, sensor := range sensors {
		rec, found, err := rt.Query(sensor, "E")
		if err != nil || !found {
			t.Fatalf("routed query %s: %v found=%v", sensor, err, found)
		}
		if rec.Host != "h1.lbl.gov" {
			t.Fatalf("routed query returned %+v", rec)
		}
	}

	// List merges all gateways.
	infos, err := rt.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(sensors) {
		t.Fatalf("merged listing has %d sensors, want %d", len(infos), len(sensors))
	}

	// Scoped subscribe reaches the owning gateway.
	var mu sync.Mutex
	var got []float64
	stop, err := rt.Subscribe(gateway.Request{Sensor: sensors[0]}, func(rec ulm.Record) {
		v, _ := rec.Float("VAL")
		mu.Lock()
		got = append(got, v)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	// The scoped fan-in rides a reconnecting bridge; republish until
	// the delivery proves the path is up.
	waitFor(t, "scoped subscription delivery", func() bool {
		if err := rt.Publish(sensors[0], mkRec("E", time.Hour, 42)); err != nil {
			return false
		}
		rt.Flush() //nolint:errcheck
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= 1 && got[len(got)-1] == 42
	})
	stop()
}

// TestShardedSiteWildcardFanOut: a wildcard subscription merges every
// gateway's stream (via bridges) into one callback.
func TestShardedSiteWildcardFanOut(t *testing.T) {
	site := startSite(t, 3)
	rt := site.router(t)

	var mu sync.Mutex
	seen := make(map[string]bool)
	stop, err := rt.Subscribe(gateway.Request{}, func(rec ulm.Record) {
		mu.Lock()
		seen[rec.Event] = true
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	// One record published directly at each gateway (not through the
	// router) — the merge must observe all three origins.
	time.Sleep(50 * time.Millisecond) // let the fan-in bridges connect
	for i, gw := range site.gws {
		gw.Publish(fmt.Sprintf("s%d@h", i), mkRec(fmt.Sprintf("EV%d", i), 0, float64(i)))
	}
	waitFor(t, "wildcard merge of all gateways", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return seen["EV0"] && seen["EV1"] && seen["EV2"]
	})
}

// TestDirectoryOwnershipWinsOverRing: a sensor registered away from its
// ring placement (a pinned or rebalanced sensor) is found through the
// directory-advertised owner.
func TestDirectoryOwnershipWinsOverRing(t *testing.T) {
	site := startSite(t, 3)
	rt := site.router(t)

	sensor := "pinned@h9.lbl.gov"
	ringOwner := site.gwIndex(t, site.ring.Owner(sensor))
	other := (ringOwner + 1) % len(site.gws)

	// Register + publish directly at the non-owner gateway; its
	// announcer advertises the placement (asynchronously — the publish
	// path never blocks on directory I/O).
	site.gws[other].Register(sensor, gateway.Meta{Host: "h9.lbl.gov", Type: "pinned"})
	site.gws[other].Publish(sensor, mkRec("E", 0, 7))
	waitFor(t, "pinned advertisement", func() bool {
		return rt.Owner(sensor) == site.addrs[other]
	})
	rec, found, err := rt.Query(sensor, "E")
	if err != nil || !found {
		t.Fatalf("routed query of pinned sensor: %v found=%v", err, found)
	}
	if v, _ := rec.Float("VAL"); v != 7 {
		t.Fatalf("pinned VAL = %v", v)
	}

	// Unregister withdraws the advertisement; resolution falls back to
	// ring placement.
	site.gws[other].Unregister(sensor)
	waitFor(t, "withdrawal", func() bool {
		return rt.Owner(sensor) == site.ring.Owner(sensor)
	})
}

// TestRouterPublishSurvivesGatewayBounce: a bounced owner costs one
// failed frame; the retry path re-resolves and republishes.
func TestRouterPublishSurvivesGatewayBounce(t *testing.T) {
	site := startSite(t, 3)
	rt := site.router(t)

	sensor := "cpu@h0.lbl.gov"
	if err := rt.Publish(sensor, mkRec("E", 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}

	// Bounce the owning gateway on the same address.
	ownerIdx := site.gwIndex(t, site.ring.Owner(sensor))
	addr := site.addrs[ownerIdx]
	site.srvs[ownerIdx].Close()
	gw2 := gateway.New("gw-reborn", nil)
	var srv2 *gateway.TCPServer
	waitFor(t, "rebind", func() bool {
		var err error
		srv2, err = gateway.ServeTCP(gw2, addr, nil)
		return err == nil
	})
	defer srv2.Close()

	// The first publish after the bounce may ride the dead connection's
	// buffer; keep publishing until the reborn gateway sees ingest.
	waitFor(t, "publish resumes after bounce", func() bool {
		if err := rt.Publish(sensor, mkRec("E", time.Second, 2)); err != nil {
			return false
		}
		rt.Flush() //nolint:errcheck
		return gw2.Stats().Published > 0
	})
	// The bounce is never silent: the failed connection's records are
	// counted and the retry path is visible.
	if st := rt.Stats(); st.PublishRetries == 0 {
		t.Fatalf("router stats after bounce = %+v, want retries > 0", st)
	}
}

func TestRouterRejectsEmptyRing(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("router accepted an empty ring")
	}
	if _, err := New(Options{Ring: ring.New(nil, 0)}); err == nil {
		t.Fatal("router accepted a zero-member ring")
	}
}

func TestAnnouncerWithdrawAll(t *testing.T) {
	dir := directory.NewServer("dir", directory.NewMutableBackend())
	d := serverDir(dir, "gw")
	a := NewAnnouncer(d, sensorBase, "gw0", "127.0.0.1:9100")
	a.Announce("cpu@h1", gateway.Meta{Host: "h1", Type: "cpu", Interval: time.Second}) //nolint:errcheck
	a.Announce("mem@h1", gateway.Meta{Host: "h1"})                                     //nolint:errcheck
	// Re-announce is an upsert, not a duplicate.
	a.Announce("cpu@h1", gateway.Meta{Host: "h1", Type: "cpu2"}) //nolint:errcheck
	entries, err := d.Search(sensorBase, directory.ScopeSubtree, "(objectclass=jammSensor)")
	if err != nil || len(entries) != 2 {
		t.Fatalf("announced entries = %d (%v), want 2", len(entries), err)
	}
	typ, _ := entries[0].Get("type")
	if typ != "cpu2" {
		t.Fatalf("re-announce did not refresh: type=%q", typ)
	}
	a.WithdrawAll()
	entries, _ = d.Search(sensorBase, directory.ScopeSubtree, "(objectclass=jammSensor)")
	if len(entries) != 0 {
		t.Fatalf("WithdrawAll left %d entries", len(entries))
	}
}

// TestCollectorOverShardedSite: the paper's event collector works
// unchanged against a sharded site through the router — scoped
// subscriptions land at owners, the wildcard merges everything.
func TestCollectorOverShardedSite(t *testing.T) {
	site := startSite(t, 3)
	rt := site.router(t)

	col := consumer.NewCollector()
	defer col.Close()
	if err := col.SubscribeSite(rt, gateway.Request{}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the fan-in bridges connect
	for i := 0; i < 6; i++ {
		if err := rt.Publish(fmt.Sprintf("cpu@h%d", i), mkRec("E", time.Duration(i)*time.Second, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	rt.Flush() //nolint:errcheck
	waitFor(t, "collector merge", func() bool { return len(col.Records()) >= 6 })
}

// TestScopedSubscriptionSurvivesGatewayBounce: a routed subscription
// naming one sensor must not die silently when the owning gateway
// restarts — the bridge underneath reconnects and resubscribes.
func TestScopedSubscriptionSurvivesGatewayBounce(t *testing.T) {
	site := startSite(t, 3)
	rt := site.router(t)

	sensor := "cpu@h0.lbl.gov"
	var mu sync.Mutex
	var got []float64
	stop, err := rt.Subscribe(gateway.Request{Sensor: sensor}, func(rec ulm.Record) {
		v, _ := rec.Float("VAL")
		mu.Lock()
		got = append(got, v)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	ownerIdx := site.gwIndex(t, site.ring.Owner(sensor))
	waitFor(t, "pre-bounce delivery", func() bool {
		site.gws[ownerIdx].Publish(sensor, mkRec("E", 0, 1))
		mu.Lock()
		defer mu.Unlock()
		return len(got) > 0
	})

	// Bounce the owner on the same address.
	addr := site.addrs[ownerIdx]
	site.srvs[ownerIdx].Close()
	gw2 := gateway.New("gw-reborn", nil)
	var srv2 *gateway.TCPServer
	waitFor(t, "rebind", func() bool {
		var err error
		srv2, err = gateway.ServeTCP(gw2, addr, nil)
		return err == nil
	})
	defer srv2.Close()

	// Events published at the reborn gateway must reach the same
	// subscription once the bridge resubscribes.
	waitFor(t, "post-bounce delivery", func() bool {
		gw2.Publish(sensor, mkRec("E", time.Hour, 99))
		mu.Lock()
		defer mu.Unlock()
		return len(got) > 0 && got[len(got)-1] == 99
	})
}
