package activation

import (
	"crypto/tls"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"jamm/internal/auth"
	"jamm/internal/transport"
)

func newTestServer(t *testing.T) (*Server, *Registry) {
	t.Helper()
	reg := NewRegistry()
	reg.Register("echo", func() (Service, error) {
		return Func(func(m string, a Args) (string, error) {
			return m + ":" + a["x"], nil
		}), nil
	}, 0)
	srv, err := Serve(reg, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, reg
}

func TestRemoteInvoke(t *testing.T) {
	srv, reg := newTestServer(t)
	cli := Dial(srv.Addr(), nil)
	defer cli.Close()

	got, err := cli.Invoke("echo", "ping", Args{"x": "7"})
	if err != nil {
		t.Fatal(err)
	}
	if got != "ping:7" {
		t.Fatalf("remote Invoke = %q", got)
	}
	if !reg.Active("echo") {
		t.Fatal("remote invocation did not activate the service")
	}
}

func TestRemoteErrorPropagation(t *testing.T) {
	srv, reg := newTestServer(t)
	reg.Register("bad", func() (Service, error) {
		return Func(func(m string, a Args) (string, error) {
			return "", &strs{"kapow"}
		}), nil
	}, 0)
	cli := Dial(srv.Addr(), nil)
	defer cli.Close()
	_, err := cli.Invoke("bad", "m", nil)
	if err == nil || !strings.Contains(err.Error(), "kapow") {
		t.Fatalf("remote error = %v", err)
	}
	// Unknown service also crosses the wire as an error.
	if _, err := cli.Invoke("ghost", "m", nil); err == nil {
		t.Fatal("unknown remote service did not error")
	}
	// The connection survives remote errors.
	if got, err := cli.Invoke("echo", "ok", Args{"x": "1"}); err != nil || got != "ok:1" {
		t.Fatalf("call after error = %q, %v", got, err)
	}
}

type strs struct{ s string }

func (e *strs) Error() string { return e.s }

func TestRemoteReconnectAfterServerRestart(t *testing.T) {
	reg := NewRegistry()
	reg.Register("echo", func() (Service, error) {
		return Func(func(m string, a Args) (string, error) { return "ok", nil }), nil
	}, 0)
	srv, err := Serve(reg, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli := Dial(addr, nil)
	cli.SetTimeout(2 * time.Second)
	defer cli.Close()
	if _, err := cli.Invoke("echo", "m", nil); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// First call after close fails and drops the cached connection...
	if _, err := cli.Invoke("echo", "m", nil); err == nil {
		t.Fatal("invoke against closed server succeeded")
	}
	// ...restart on the same address; the client redials.
	srv2, err := Serve(reg, addr, nil)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	if _, err := cli.Invoke("echo", "m", nil); err != nil {
		t.Fatalf("invoke after restart: %v", err)
	}
}

func TestRemoteConcurrentClients(t *testing.T) {
	srv, _ := newTestServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli := Dial(srv.Addr(), nil)
			defer cli.Close()
			for j := 0; j < 20; j++ {
				if _, err := cli.Invoke("echo", "m", Args{"x": "y"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestRemoteOverTLS(t *testing.T) {
	ca, err := auth.NewCA("Activation CA")
	if err != nil {
		t.Fatal(err)
	}
	serverCert, err := ca.IssueServer("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	clientCert, err := ca.IssueClient("agent", nil, []string{"LBNL"})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Register("echo", func() (Service, error) {
		return Func(func(m string, a Args) (string, error) { return "secure", nil }), nil
	}, 0)
	srv, err := Serve(reg, "127.0.0.1:0", ca.ServerTLS(serverCert, true))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli := Dial(srv.Addr(), ca.ClientTLS(clientCert, "127.0.0.1"))
	defer cli.Close()
	got, err := cli.Invoke("echo", "m", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != "secure" {
		t.Fatalf("TLS Invoke = %q", got)
	}

	// A client with no certificate is refused.
	bareCfg := &tls.Config{RootCAs: ca.Pool(), ServerName: "127.0.0.1", MinVersion: tls.VersionTLS12}
	bare := Dial(srv.Addr(), bareCfg)
	defer bare.Close()
	if _, err := bare.Invoke("echo", "m", nil); err == nil {
		t.Fatal("certificate-less client accepted")
	}
}

// A peer that connects and sends nothing is hung up on once the
// first-read window closes; a client that has invoked once may idle
// past it and invoke again on the same connection.
func TestRemoteSilentPeerDropped(t *testing.T) {
	old := transport.FirstReadTimeout
	transport.FirstReadTimeout = 50 * time.Millisecond
	// Restored after newTestServer's cleanup has stopped the server.
	t.Cleanup(func() { transport.FirstReadTimeout = old })
	srv, _ := newTestServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	_, err = conn.Read(make([]byte, 1))
	if ne, ok := err.(net.Error); err == nil || ok && ne.Timeout() {
		t.Fatalf("silent connection not dropped after the first-read window (read: %v)", err)
	}

	cli := Dial(srv.Addr(), nil)
	defer cli.Close()
	if _, err := cli.Invoke("echo", "a", Args{"x": "1"}); err != nil {
		t.Fatal(err)
	}
	first := cli.conn
	time.Sleep(3 * transport.FirstReadTimeout)
	if got, err := cli.Invoke("echo", "b", Args{"x": "2"}); err != nil || got != "b:2" {
		t.Fatalf("invoke after idling = %q, %v", got, err)
	}
	if cli.conn != first {
		t.Fatal("the idle connection was dropped and redialled")
	}
}

// Close does not wait out a connected peer that has said nothing.
func TestRemoteCloseWithSilentPeer(t *testing.T) {
	srv, _ := newTestServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hangs on a connected, silent peer")
	}
}
