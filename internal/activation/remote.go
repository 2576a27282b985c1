package activation

import (
	"crypto/tls"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"

	"jamm/internal/transport"
)

// The remote transport: invocation requests and responses are gob
// streams over a TCP (optionally TLS) connection, standing in for the
// JRMP wire protocol of Java RMI. One connection carries any number of
// sequential invocations.

type rpcRequest struct {
	Service string
	Method  string
	Args    Args
}

type rpcResponse struct {
	Result string
	Err    string
}

// Server exposes a Registry over the network. The embedded transport
// shell owns the listener and the connections (Addr, Close).
type Server struct {
	*transport.Server
	reg *Registry
}

// Serve starts serving reg on addr ("127.0.0.1:0" for ephemeral). A
// non-nil tlsCfg enables TLS.
func Serve(reg *Registry, addr string, tlsCfg *tls.Config) (*Server, error) {
	s := &Server{reg: reg}
	var err error
	if s.Server, err = transport.Serve(addr, tlsCfg, s.serveConn); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Server) serveConn(conn net.Conn) {
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	// A peer that connects and sends nothing is dropped when the
	// first-read deadline fails the decode; one that has spoken may idle.
	transport.AwaitFirst(conn)
	for {
		var req rpcRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		transport.GotFirst(conn)
		result, err := s.reg.Invoke(req.Service, req.Method, req.Args)
		resp := rpcResponse{Result: result}
		if err != nil {
			resp.Err = err.Error()
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// Client is a remote stub for services in one remote registry. It is
// safe for concurrent use; invocations are serialized on one
// connection, reconnecting on failure.
type Client struct {
	addr    string
	tlsCfg  *tls.Config
	timeout time.Duration

	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// Dial returns a client for the registry at addr. No connection is made
// until the first invocation.
func Dial(addr string, tlsCfg *tls.Config) *Client {
	return &Client{addr: addr, tlsCfg: tlsCfg, timeout: 10 * time.Second}
}

// SetTimeout bounds each invocation round trip.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
}

func (c *Client) connectLocked() error {
	if c.conn != nil {
		return nil
	}
	conn, err := transport.Dial(c.addr, c.timeout, c.tlsCfg)
	if err != nil {
		return err
	}
	c.conn = conn
	c.enc = gob.NewEncoder(conn)
	c.dec = gob.NewDecoder(conn)
	return nil
}

func (c *Client) dropLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.enc, c.dec = nil, nil, nil
	}
}

// Invoke calls method on the named remote service. A transport error
// invalidates the cached connection; the next call redials.
func (c *Client) Invoke(service, method string, args Args) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.connectLocked(); err != nil {
		return "", fmt.Errorf("activation: dial %s: %w", c.addr, err)
	}
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout)) //nolint:errcheck
	}
	if err := c.enc.Encode(rpcRequest{Service: service, Method: method, Args: args}); err != nil {
		c.dropLocked()
		return "", fmt.Errorf("activation: send: %w", err)
	}
	var resp rpcResponse
	if err := c.dec.Decode(&resp); err != nil {
		c.dropLocked()
		return "", fmt.Errorf("activation: receive: %w", err)
	}
	if resp.Err != "" {
		return "", fmt.Errorf("activation: remote: %s", resp.Err)
	}
	return resp.Result, nil
}

// Close releases the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked()
	return nil
}
