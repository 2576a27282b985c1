package transport

import (
	"crypto/tls"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jamm/internal/auth"
)

const testWait = 5 * time.Second

// echo is a handler that copies the peer's bytes back until it hangs up.
func echo(conn net.Conn) { io.Copy(conn, conn) } //nolint:errcheck

func waitConns(t *testing.T, s *Server, want int) {
	t.Helper()
	for deadline := time.Now().Add(testWait); s.Conns() != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("Conns() = %d, want %d", s.Conns(), want)
		}
	}
}

// roundTrip proves the connection is live end to end.
func roundTrip(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetDeadline(time.Now().Add(testWait)) //nolint:errcheck
	if _, err := conn.Write([]byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := io.ReadFull(conn, make([]byte, 1)); err != nil {
		t.Fatalf("read: %v", err)
	}
}

// testTLS returns a mutual-auth server config and a client config
// presenting a certificate for cn/org.
func testTLS(t *testing.T, cn, org string) (server, client *tls.Config) {
	t.Helper()
	ca, err := auth.NewCA("Transport CA")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ca.IssueServer("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	cc, err := ca.IssueClient(cn, nil, []string{org})
	if err != nil {
		t.Fatal(err)
	}
	return ca.ServerTLS(sc, true), ca.ClientTLS(cc, "127.0.0.1")
}

// Conns follows connections as they open and close (it feeds
// jamm_wire_connections), over plain TCP and over TLS, and the handler
// gets the accepted connection itself, not a wrapper.
func TestServeTracksConnections(t *testing.T) {
	serverTLS, clientTLS := testTLS(t, "Brian Tierney", "LBNL")
	for _, tc := range []struct {
		name           string
		server, client *tls.Config
	}{{"plain", nil, nil}, {"tls", serverTLS, clientTLS}} {
		t.Run(tc.name, func(t *testing.T) {
			var concrete atomic.Bool
			s, err := Serve("", tc.server, func(conn net.Conn) {
				switch conn.(type) {
				case *net.TCPConn, *tls.Conn:
					concrete.Store(true)
				}
				echo(conn)
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			a, err := Dial(s.Addr(), testWait, tc.client)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := Dial(s.Addr(), testWait, tc.client)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			roundTrip(t, a)
			roundTrip(t, b)
			waitConns(t, s, 2)
			if !concrete.Load() {
				t.Fatal("handler got a wrapped connection")
			}
			a.Close()
			waitConns(t, s, 1)
			b.Close()
			waitConns(t, s, 0)
		})
	}
}

// The principal of a TLS peer is its certificate's subject DN whatever
// it claims; a plain peer is who it says it is.
func TestPeerPrincipal(t *testing.T) {
	serverTLS, clientTLS := testTLS(t, "Brian Tierney", "LBNL")
	for _, tc := range []struct {
		name           string
		server, client *tls.Config
		want           string
	}{
		{"plain", nil, nil, "claimed"},
		{"tls", serverTLS, clientTLS, "CN=Brian Tierney,O=LBNL"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := make(chan string, 1)
			s, err := Serve("", tc.server, func(conn net.Conn) { got <- PeerPrincipal(conn, "claimed") })
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			conn, err := Dial(s.Addr(), testWait, tc.client)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			select {
			case p := <-got:
				if p != tc.want {
					t.Fatalf("principal = %q, want %q", p, tc.want)
				}
			case <-time.After(testWait):
				t.Fatal("handler never ran")
			}
		})
	}
}

// StopAccepting refuses new connections and leaves live ones working;
// Close after it returns nil, and Close is idempotent.
func TestStopAcceptingKeepsLiveConnections(t *testing.T) {
	s, err := Serve("", nil, echo)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Dial(s.Addr(), testWait, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	roundTrip(t, conn)
	s.StopAccepting()
	s.StopAccepting()
	if late, err := Dial(s.Addr(), time.Second, nil); err == nil {
		late.Close()
		t.Fatal("dial succeeded after StopAccepting")
	}
	roundTrip(t, conn)
	if s.Conns() != 1 {
		t.Fatalf("Conns() = %d after StopAccepting, want 1", s.Conns())
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after StopAccepting: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection still open after Close")
	}
}

// Close does not return while a handler is still running, and it is
// what unblocks a handler parked in a read.
func TestCloseWaitsForHandlers(t *testing.T) {
	var finished atomic.Bool
	s, err := Serve("", nil, func(conn net.Conn) {
		conn.Read(make([]byte, 1)) //nolint:errcheck // parked until Close
		time.Sleep(20 * time.Millisecond)
		finished.Store(true)
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Dial(s.Addr(), testWait, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	waitConns(t, s, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !finished.Load() {
		t.Fatal("Close returned before the handler did")
	}
	if s.Conns() != 0 {
		t.Fatalf("Conns() = %d after Close, want 0", s.Conns())
	}
}

// Close racing a storm of connects: every handler that started is
// waited for, none runs after Close returns, nothing deadlocks (run
// with -race).
func TestCloseRacingAccept(t *testing.T) {
	for round := 0; round < 20; round++ {
		var running atomic.Int32
		s, err := Serve("", nil, func(conn net.Conn) {
			running.Add(1)
			defer running.Add(-1)
			echo(conn)
		})
		if err != nil {
			t.Fatal(err)
		}
		var dialers sync.WaitGroup
		closed := make(chan struct{})
		for i := 0; i < 8; i++ {
			dialers.Add(1)
			go func() {
				defer dialers.Done()
				for {
					select {
					case <-closed:
						return
					default:
					}
					conn, err := Dial(s.Addr(), time.Second, nil)
					if err != nil {
						return // the listener is gone
					}
					conn.Close()
				}
			}()
		}
		time.Sleep(time.Duration(round%4) * time.Millisecond)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		close(closed)
		if n := running.Load(); n != 0 {
			t.Fatalf("round %d: %d handlers still running after Close", round, n)
		}
		dialers.Wait()
		if n := running.Load(); n != 0 || s.Conns() != 0 {
			t.Fatalf("round %d: %d handlers started after Close, Conns() = %d", round, n, s.Conns())
		}
	}
}

// A peer that connects and says nothing fails the handler's first read
// once AwaitFirst's deadline passes; after GotFirst it may idle.
func TestAwaitFirstBoundsOnlyTheFirstRead(t *testing.T) {
	old := FirstReadTimeout
	FirstReadTimeout = 50 * time.Millisecond
	defer func() { FirstReadTimeout = old }()
	s, err := Serve("", nil, func(conn net.Conn) {
		AwaitFirst(conn)
		buf := make([]byte, 1)
		if _, err := conn.Read(buf); err != nil {
			return
		}
		GotFirst(conn)
		echo(conn)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	silent, err := Dial(s.Addr(), testWait, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	silent.SetReadDeadline(time.Now().Add(testWait)) //nolint:errcheck
	if _, err := silent.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("silent peer: read = %v, want EOF from the server hanging up", err)
	}

	talker, err := Dial(s.Addr(), testWait, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer talker.Close()
	if _, err := talker.Write([]byte("a")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * FirstReadTimeout) // idle well past the first-read bound
	roundTrip(t, talker)
}
