package gateway

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"jamm/internal/telemetry"
	"jamm/internal/transport"
)

// A Client keeps its request/answer connections. What the tests below
// hold it to: warm calls share one accepted connection; concurrent
// callers never see each other's answers and leave at most
// clientIdleConns behind; a kept connection that went stale costs one
// counted redial and no error; a timeout is an answer, not a reason to
// send again; Handoff and SeedState go out exactly once; Close lets go
// of everything.

// TestWarmQueriesShareOneConnection reads the reuse off the server's own
// counters — 1000 requests on 1 accepted connection — the ratio an
// operator sees at /metrics.
func TestWarmQueriesShareOneConnection(t *testing.T) {
	g, srv := startServer(t)
	g.Publish("cpu", mkRec("LOAD", time.Second, 42))
	c := NewClient("", srv.Addr())
	defer c.Close()
	const n = 1000
	for i := 0; i < n; i++ {
		if rec, found, err := c.Query("cpu", "LOAD"); err != nil || !found || rec.Event != "LOAD" {
			t.Fatalf("query %d: %v found=%v rec=%v", i, err, found, rec)
		}
	}
	if ws := srv.WireStats(); ws.Accepts != 1 || ws.Requests != n {
		t.Fatalf("%d requests on %d accepted connections, want %d on 1", ws.Requests, ws.Accepts, n)
	}
	if r := c.Redials(); r != 0 {
		t.Fatalf("%d redials against a server that never hung up", r)
	}
	reg := telemetry.NewRegistry()
	reg.Register(srv.MetricsSource())
	var b strings.Builder
	reg.WritePrometheus(&b) //nolint:errcheck
	for _, want := range []string{"jamm_wire_accepts_total 1\n", fmt.Sprintf("jamm_wire_requests_total{op=\"query\"} %d\n", n), "jamm_wire_requests_total{op=\"ping\"} 0\n"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestConcurrentCallsOnOneClient: every caller gets the answer to its
// own question, the idle list never outgrows its cap, and Close — which
// may be called again — leaves the server with no connection.
func TestConcurrentCallsOnOneClient(t *testing.T) {
	g, srv := startServer(t)
	const callers, calls = 8, 50
	for i := 0; i < callers; i++ {
		g.Publish(fmt.Sprint("s", i), mkRec(fmt.Sprint("E", i), time.Second, float64(i)))
	}
	c := NewClient("", srv.Addr())
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < calls; k++ {
				rec, found, err := c.Query(fmt.Sprint("s", i), fmt.Sprint("E", i))
				if v, _ := rec.Float("VAL"); err != nil || !found || v != float64(i) {
					t.Errorf("caller %d, call %d: %v found=%v rec=%v: not the answer to its question", i, k, err, found, rec)
					return
				}
				c.mu.Lock()
				idle := len(c.idle)
				c.mu.Unlock()
				if idle > clientIdleConns {
					t.Errorf("%d idle connections, cap %d", idle, clientIdleConns)
					return
				}
			}
		}()
	}
	wg.Wait()
	if ws := srv.WireStats(); ws.Requests != callers*calls {
		t.Fatalf("%d requests answered, want %d", ws.Requests, callers*calls)
	}
	if len(c.idle) == 0 || len(c.idle) > clientIdleConns {
		t.Fatalf("%d connections kept after the callers finished, want 1..%d", len(c.idle), clientIdleConns)
	}
	for i := 0; i < 2; i++ {
		if err := c.Close(); err != nil {
			t.Fatalf("Close %d: %v", i, err)
		}
	}
	waitUntil(t, "the server to see every connection closed", func() bool { return srv.Conns() == 0 })
	// A closed client still answers; it just keeps nothing.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after Close: %v", err)
	}
	if len(c.idle) != 0 {
		t.Fatal("a closed client kept a connection")
	}
}

// TestStaleConnectionRedialsOnce: the server restarts between two calls.
// The second finds its kept connection dead before any answer byte, goes
// out again on a fresh dial and succeeds; one redial is counted.
func TestStaleConnectionRedialsOnce(t *testing.T) {
	g, srv := startServer(t)
	g.Publish("cpu", mkRec("LOAD", time.Second, 42))
	c := NewClient("", srv.Addr())
	defer c.Close()
	if _, _, err := c.Query("cpu", "LOAD"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	srv.Close() // returns once the kept connection's handler has gone
	srv2, err := ServeTCP(g, addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if _, found, err := c.Query("cpu", "LOAD"); err != nil || !found {
		t.Fatalf("query after the restart: %v found=%v", err, found)
	}
	if r := c.Redials(); r != 1 {
		t.Fatalf("%d redials, want 1", r)
	}
	if ws := srv2.WireStats(); ws.Accepts != 1 || ws.Requests != 1 {
		t.Fatalf("the new server saw %d requests on %d connections, want 1 on 1", ws.Requests, ws.Accepts)
	}
	// The fresh connection is the kept one now.
	if _, _, err := c.Query("cpu", "LOAD"); err != nil || c.Redials() != 1 || srv2.WireStats().Accepts != 1 {
		t.Fatalf("third query: %v, %d redials, %d accepts", err, c.Redials(), srv2.WireStats().Accepts)
	}
}

// TestTimeoutOnKeptConnectionIsNotRetried: the server's answer is held
// at the gate past the client's deadline. The call returns the timeout —
// the request may well have been served — and the connection, which still
// owes an answer, is not kept.
func TestTimeoutOnKeptConnectionIsNotRetried(t *testing.T) {
	g, c, gate := gatedSite(t, ProtoAuto)
	defer c.Close()
	g.Publish("cpu", mkRec("LOAD", time.Second, 42))
	if _, _, err := c.Query("cpu", "LOAD"); err != nil {
		t.Fatal(err)
	}
	c.Timeout = 20 * time.Millisecond
	gate.shut()
	_, _, err := c.Query("cpu", "LOAD")
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("query with its answer held: %v, want a timeout", err)
	}
	gate.await(t) // the one held answer
	gate.open()
	if r := c.Redials(); r != 0 {
		t.Fatalf("a timed-out request was sent again (%d redials)", r)
	}
	if len(c.idle) != 0 {
		t.Fatal("the connection that timed out was kept")
	}
	c.Timeout = 5 * time.Second
	if _, found, err := c.Query("cpu", "LOAD"); err != nil || !found {
		t.Fatalf("query after the timeout: %v found=%v", err, found)
	}
}

// hangUpServer answers pings and hangs up on any other request the
// moment it has read it. It counts the request lines it read, by op.
type hangUpServer struct {
	*transport.Server
	mu   sync.Mutex
	seen map[string]int
}

func startHangUpServer(t *testing.T) *hangUpServer {
	t.Helper()
	s := &hangUpServer{seen: map[string]int{}}
	var err error
	s.Server, err = transport.Serve("", nil, func(conn net.Conn) {
		sc := bufio.NewScanner(conn)
		for sc.Scan() {
			_, op, _ := strings.Cut(sc.Text(), `"op":"`)
			op, _, _ = strings.Cut(op, `"`)
			s.mu.Lock()
			s.seen[op]++
			s.mu.Unlock()
			if op != "ping" {
				return
			}
			if _, err := conn.Write([]byte("{\"ok\":true}\n")); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func (s *hangUpServer) count(op string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen[op]
}

// TestHandoffAndSeedStateAreSentOnce: with a warm connection in the idle
// list, Handoff and SeedState still dial their own, and a server that
// hangs up after reading them is not asked twice — while a Query in the
// same position is, once.
func TestHandoffAndSeedStateAreSentOnce(t *testing.T) {
	s := startHangUpServer(t)
	c := NewClient("", s.Addr())
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Handoff("cpu"); err == nil {
		t.Fatal("handoff succeeded against a server that hung up")
	}
	if err := c.SeedState("cpu", nil, "agg"); err == nil {
		t.Fatal("seed_state succeeded against a server that hung up")
	}
	// The server counts a line before it hangs up, so a second sending
	// would be counted by the time the call returned.
	if h, ss := s.count("handoff"), s.count("seed_state"); h != 1 || ss != 1 || c.Redials() != 0 {
		t.Fatalf("handoff sent %d times, seed_state %d, %d redials: want 1, 1, 0", h, ss, c.Redials())
	}
	if n := s.Accepts(); n != 3 {
		t.Fatalf("%d connections, want 3: the kept one, and one each for handoff and seed_state", n)
	}
	// The kept connection is still there, and a Query on it is hung up on
	// before any answer: sent again once, on a fresh dial, then given up.
	if _, _, err := c.Query("cpu", "LOAD"); err == nil {
		t.Fatal("query succeeded against a server that hung up")
	}
	if q := s.count("query"); q != 2 || c.Redials() != 1 || s.Accepts() != 4 {
		t.Fatalf("query sent %d times, %d redials, %d connections: want 2, 1, 4", q, c.Redials(), s.Accepts())
	}
}
