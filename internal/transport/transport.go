// Package transport is the site's connection plumbing, written once:
// the one listen call, the one dialer, and the listen → accept → track →
// close shell every JAMM server (event gateway, sensor directory,
// activation daemon, NetLogger collector, the daemons' ops endpoints)
// stands on. A server supplies only what it does with an accepted
// connection. It is also the seam a simulated network would replace —
// nothing outside this package opens or accepts a socket.
package transport

import (
	"crypto/tls"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"jamm/internal/auth"
)

// FirstReadTimeout bounds a request/response server's first read on a
// new connection: a peer that connects and sends nothing must not hold
// a goroutine and a descriptor forever. Once the peer has said anything
// the connection is idle-tolerant. A variable so tests can shrink it.
var FirstReadTimeout = 30 * time.Second

// AwaitFirst arms the first-read deadline on a freshly accepted
// connection; the handler calls GotFirst once its first read returns.
func AwaitFirst(conn net.Conn) {
	if FirstReadTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(FirstReadTimeout)) //nolint:errcheck
	}
}

// GotFirst clears the deadline AwaitFirst armed.
func GotFirst(conn net.Conn) {
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck
}

// Listen opens a TCP listener on addr ("" selects an ephemeral loopback
// port). A non-nil tlsCfg makes it a TLS listener.
func Listen(addr string, tlsCfg *tls.Config) (net.Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tlsCfg != nil {
		ln = tls.NewListener(ln, tlsCfg)
	}
	return ln, nil
}

// Dial connects to addr within timeout (0 = no bound); a non-nil tlsCfg
// completes a TLS handshake inside the same bound.
func Dial(addr string, timeout time.Duration, tlsCfg *tls.Config) (net.Conn, error) {
	d := net.Dialer{Timeout: timeout}
	if tlsCfg == nil {
		return d.Dial("tcp", addr)
	}
	conn, err := tls.DialWithDialer(&d, "tcp", addr, tlsCfg)
	if err != nil {
		return nil, err
	}
	return conn, nil
}

// PeerPrincipal names the peer of an accepted connection: the subject
// DN of a verified TLS client certificate — remote identity is the
// certificate, not a client claim — and otherwise what the peer claimed.
func PeerPrincipal(conn net.Conn, claimed string) string {
	if tc, ok := conn.(*tls.Conn); ok && tc.Handshake() == nil {
		if dn := auth.PeerDN(tc.ConnectionState()); dn != "" {
			return dn
		}
	}
	return claimed
}

// Server is the shell of a listening server: it owns the listener, the
// set of live connections and the handlers' wait group.
type Server struct {
	ln     net.Listener
	handle func(net.Conn)

	accepts atomic.Uint64

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	stopped bool // listener closed (StopAccepting or Close)
	closed  bool
	wg      sync.WaitGroup
}

// Serve listens on addr and runs handle on its own goroutine for every
// accepted connection. handle gets the accepted net.Conn itself (a
// *net.TCPConn or *tls.Conn, never a wrapper, so a gathered write still
// reaches writev); the shell closes it when handle returns.
func Serve(addr string, tlsCfg *tls.Config, handle func(net.Conn)) (*Server, error) {
	ln, err := Listen(addr, tlsCfg)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, handle: handle, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Conns returns the number of live connections.
func (s *Server) Conns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Accepts returns how many connections the server has accepted.
func (s *Server) Accepts() uint64 { return s.accepts.Load() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.accepts.Add(1)
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serve(conn)
	}
}

func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	s.handle(conn)
}

// StopAccepting closes the listener; live connections stay open — the
// first phase of a drained shutdown.
func (s *Server) StopAccepting() { s.stop(false) } //nolint:errcheck

// Close stops the listener, closes every live connection and waits for
// their handlers. It is idempotent, and nil after StopAccepting.
func (s *Server) Close() error {
	err := s.stop(true)
	s.wg.Wait()
	return err
}

func (s *Server) stop(closeConns bool) error {
	s.mu.Lock()
	already := s.stopped
	s.stopped = true
	if closeConns && !s.closed {
		s.closed = true
		for c := range s.conns {
			c.Close()
		}
	}
	s.mu.Unlock()
	if already {
		return nil
	}
	return s.ln.Close()
}
