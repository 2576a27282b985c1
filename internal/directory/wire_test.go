package directory

import (
	"net"
	"sync"
	"testing"
	"time"

	"jamm/internal/auth"
	"jamm/internal/gateway"
	"jamm/internal/transport"
)

func startWire(t *testing.T) (*Server, *TCPServer) {
	t.Helper()
	srv := NewServer("primary", NewMutableBackend())
	ts, err := ServeTCP(srv, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	return srv, ts
}

func TestWireCRUDRoundTrip(t *testing.T) {
	_, ts := startWire(t)
	c := NewClient("tester", ts.Addr())
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if err := c.Add(sensorEntry("h1", "cpu")); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := c.Add(sensorEntry("h1", "cpu")); err == nil {
		t.Error("duplicate Add succeeded over wire")
	}
	got, err := c.Search("o=jamm", ScopeSubtree, "(type=cpu)")
	if err != nil || len(got) != 1 {
		t.Fatalf("Search = %v, %v", got, err)
	}
	if err := c.Modify(got[0].DN, map[string][]string{"status": {"stopped"}}); err != nil {
		t.Fatalf("Modify: %v", err)
	}
	got, _ = c.Search("o=jamm", ScopeSubtree, "(status=stopped)")
	if len(got) != 1 {
		t.Fatalf("modified entry not found")
	}
	if err := c.Delete(got[0].DN); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	got, _ = c.Search("o=jamm", ScopeSubtree, "")
	if len(got) != 0 {
		t.Errorf("%d entries after delete", len(got))
	}
}

func TestWireBadFilterReported(t *testing.T) {
	_, ts := startWire(t)
	c := NewClient("tester", ts.Addr())
	if _, err := c.Search("o=jamm", ScopeSubtree, "(((broken"); err == nil {
		t.Error("bad filter accepted")
	}
}

func TestWireFailover(t *testing.T) {
	// First address is dead; client must fail over to the live server.
	_, ts := startWire(t)
	c := NewClient("tester", "127.0.0.1:1", ts.Addr())
	c.Timeout = 2 * time.Second
	if err := c.Add(sensorEntry("h1", "cpu")); err != nil {
		t.Fatalf("Add with failover: %v", err)
	}
	got, err := c.Search("o=jamm", ScopeSubtree, "")
	if err != nil || len(got) != 1 {
		t.Fatalf("Search with failover = %v, %v", got, err)
	}
}

func TestWireAllServersDown(t *testing.T) {
	c := NewClient("tester", "127.0.0.1:1")
	c.Timeout = time.Second
	if err := c.Ping(); err == nil {
		t.Error("Ping with no live servers succeeded")
	}
}

func TestWireWatchStreams(t *testing.T) {
	srv, ts := startWire(t)
	c := NewClient("tester", ts.Addr())
	events, stop, err := c.Watch("o=jamm", "(type=cpu)")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	srv.Add("x", sensorEntry("h1", "cpu")) //nolint:errcheck
	srv.Add("x", sensorEntry("h1", "mem")) //nolint:errcheck — filtered
	select {
	case ch := <-events:
		if ch.Kind != ChangeAdd {
			t.Errorf("kind = %v", ch.Kind)
		}
		if v, _ := ch.Entry.Get("type"); v != "cpu" {
			t.Errorf("entry = %+v", ch.Entry)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no change event over wire")
	}
	stop()
	// Channel eventually closes after stop.
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, open := <-events:
			if !open {
				return
			}
		case <-deadline:
			t.Fatal("watch channel did not close after stop")
		}
	}
}

func TestWireReferralFollowed(t *testing.T) {
	// Site B holds the ANL subtree; site A refers to it.
	srvB := NewServer("anl", NewMutableBackend())
	tsB, err := ServeTCP(srvB, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tsB.Close()
	srvB.Add("x", NewEntry("sensor=cpu,host=ha,ou=sensors,o=anl", map[string]string{"type": "cpu"})) //nolint:errcheck

	srvA := NewServer("lbl", NewMutableBackend())
	srvA.AddReferral("ou=sensors,o=anl", tsB.Addr())
	tsA, err := ServeTCP(srvA, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tsA.Close()

	c := NewClient("tester", tsA.Addr())
	got, err := c.Search("ou=sensors,o=anl", ScopeSubtree, "(type=cpu)")
	if err != nil {
		t.Fatalf("referred search: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("referred search returned %d entries", len(got))
	}

	// With following disabled the referral surfaces as an error.
	c.FollowReferrals = false
	if _, err := c.Search("ou=sensors,o=anl", ScopeSubtree, ""); err == nil {
		t.Error("referral not surfaced when following disabled")
	}
}

func TestWireReplicaFailoverReads(t *testing.T) {
	primary := NewServer("primary", NewMutableBackend())
	replica := NewServer("replica", NewMutableBackend())
	primary.AttachServerReplica(replica)       //nolint:errcheck
	primary.Add("x", sensorEntry("h1", "cpu")) //nolint:errcheck

	tsP, err := ServeTCP(primary, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	tsR, err := ServeTCP(replica, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tsR.Close()

	c := NewClient("tester", tsP.Addr(), tsR.Addr())
	c.Timeout = 2 * time.Second
	// Kill the primary: reads must keep working via the replica.
	tsP.Close()
	got, err := c.Search("o=jamm", ScopeSubtree, "")
	if err != nil || len(got) != 1 {
		t.Fatalf("read after primary death = %v, %v", got, err)
	}
}

// recordingAuthz is a gateway Authorizer that remembers who asked.
type recordingAuthz struct {
	auth.Authorizer
	mu       sync.Mutex
	subjects []string
}

func (r *recordingAuthz) Authorize(subject, resource, action string) error {
	r.mu.Lock()
	r.subjects = append(r.subjects, subject)
	r.mu.Unlock()
	return nil
}

// One certificate is one principal: the gateway's Authorizer and the
// directory's AccessFunc see the same string for the same TLS client —
// the full subject DN — so a DN-keyed policy or gridmap written for one
// matches at the other.
func TestWireTLSPrincipalMatchesGateway(t *testing.T) {
	ca, err := auth.NewCA("Site CA")
	if err != nil {
		t.Fatal(err)
	}
	serverCert, err := ca.IssueServer("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	clientCert, err := ca.IssueClient("Jason Lee", []string{"DSD"}, []string{"LBNL"})
	if err != nil {
		t.Fatal(err)
	}
	clientTLS := ca.ClientTLS(clientCert, "127.0.0.1")

	gw := gateway.New("gw", nil)
	gw.Register("cpu", gateway.Meta{Host: "h1"})
	authz := &recordingAuthz{Authorizer: auth.AllowAll}
	gw.SetAuthorizer(authz)
	gwSrv, err := gateway.ServeTCP(gw, "", ca.ServerTLS(serverCert, true))
	if err != nil {
		t.Fatal(err)
	}
	defer gwSrv.Close()
	gc := gateway.NewClient("someone else", gwSrv.Addr())
	gc.TLS = clientTLS
	if _, _, err := gc.Query("cpu", "E"); err != nil {
		t.Fatalf("gateway query: %v", err)
	}

	var atDirectory []string
	srv := NewServer("dir", NewMutableBackend())
	srv.SetAccess(func(principal string, op Op, dn DN) error {
		atDirectory = append(atDirectory, principal) // one request at a time
		return nil
	})
	dirSrv, err := ServeTCP(srv, "", ca.ServerTLS(serverCert, true))
	if err != nil {
		t.Fatal(err)
	}
	defer dirSrv.Close()
	dc := NewClient("someone else", dirSrv.Addr())
	dc.TLS = clientTLS
	if err := dc.Add(sensorEntry("h1", "cpu")); err != nil {
		t.Fatalf("directory add: %v", err)
	}

	authz.mu.Lock()
	defer authz.mu.Unlock()
	if len(authz.subjects) == 0 || len(atDirectory) == 0 {
		t.Fatalf("authorization hooks not consulted: gateway %v, directory %v", authz.subjects, atDirectory)
	}
	want := auth.SubjectDN(clientCert.Leaf)
	if authz.subjects[0] != want || atDirectory[0] != want {
		t.Fatalf("one certificate, two principals: gateway saw %q, directory saw %q, want %q", authz.subjects[0], atDirectory[0], want)
	}
}

// A peer that connects and sends nothing is hung up on once the
// first-read window closes.
func TestWireSilentPeerDropped(t *testing.T) {
	old := transport.FirstReadTimeout
	transport.FirstReadTimeout = 50 * time.Millisecond
	// Restored after startWire's cleanup has stopped the server.
	t.Cleanup(func() { transport.FirstReadTimeout = old })
	_, ts := startWire(t)
	conn, err := net.Dial("tcp", ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	_, err = conn.Read(make([]byte, 1))
	if ne, ok := err.(net.Error); err == nil || ok && ne.Timeout() {
		t.Fatalf("silent connection not dropped after the first-read window (read: %v)", err)
	}
}

// Close does not wait out a connected peer that has said nothing.
func TestWireCloseWithSilentPeer(t *testing.T) {
	_, ts := startWire(t)
	conn, err := net.Dial("tcp", ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	done := make(chan struct{})
	go func() { ts.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hangs on a connected, silent peer")
	}
}
