package directory

import (
	"bufio"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"jamm/internal/transport"
)

// Wire protocol: newline-delimited JSON over TCP (optionally TLS). One
// request per line; one response per line, except "watch" which streams
// change lines until the connection closes. This substitutes for LDAP's
// BER encoding while preserving its operations.

type wireRequest struct {
	Op        string              `json:"op"` // search, add, modify, delete, watch, ping
	Principal string              `json:"principal,omitempty"`
	Base      DN                  `json:"base,omitempty"`
	Scope     string              `json:"scope,omitempty"`
	Filter    string              `json:"filter,omitempty"`
	Entry     *Entry              `json:"entry,omitempty"`
	DNField   DN                  `json:"dn,omitempty"`
	Attrs     map[string][]string `json:"attrs,omitempty"`
}

type wireResponse struct {
	OK       bool    `json:"ok"`
	Error    string  `json:"error,omitempty"`
	Referral string  `json:"referral,omitempty"`
	Entries  []Entry `json:"entries,omitempty"`
	Change   *Change `json:"change,omitempty"`
}

func parseScope(s string) (Scope, error) {
	switch s {
	case "base":
		return ScopeBase, nil
	case "one":
		return ScopeOneLevel, nil
	case "sub", "":
		return ScopeSubtree, nil
	}
	return 0, fmt.Errorf("directory: bad scope %q", s)
}

// TCPServer serves a directory Server over the wire protocol. The
// embedded transport shell owns the listener and the connections (Addr,
// Close).
type TCPServer struct {
	*transport.Server
	srv *Server
}

// ServeTCP starts serving srv on addr ("127.0.0.1:0" for ephemeral).
// If tlsCfg is non-nil the listener requires TLS; an authenticated peer
// certificate's subject DN overrides the request principal.
func ServeTCP(srv *Server, addr string, tlsCfg *tls.Config) (*TCPServer, error) {
	t := &TCPServer{srv: srv}
	var err error
	if t.Server, err = transport.Serve(addr, tlsCfg, t.serveConn); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *TCPServer) serveConn(conn net.Conn) {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	enc := json.NewEncoder(conn)
	// A peer that connects and sends nothing is dropped when the
	// first-read deadline fails the scan; one that has spoken may idle.
	transport.AwaitFirst(conn)
	for sc.Scan() {
		transport.GotFirst(conn)
		var req wireRequest
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			enc.Encode(wireResponse{Error: "bad request: " + err.Error()}) //nolint:errcheck
			return
		}
		principal := transport.PeerPrincipal(conn, req.Principal)
		if req.Op == "watch" {
			t.serveWatch(conn, enc, principal, req)
			return // watch owns the connection until it closes
		}
		resp := t.handle(principal, req)
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

func (t *TCPServer) handle(principal string, req wireRequest) wireResponse {
	fail := func(err error) wireResponse {
		var ref ErrReferral
		if errors.As(err, &ref) {
			return wireResponse{Error: err.Error(), Referral: ref.Address}
		}
		return wireResponse{Error: err.Error()}
	}
	switch req.Op {
	case "ping":
		return wireResponse{OK: true}
	case "search":
		scope, err := parseScope(req.Scope)
		if err != nil {
			return fail(err)
		}
		filter := Filter(All)
		if req.Filter != "" {
			filter, err = ParseFilter(req.Filter)
			if err != nil {
				return fail(err)
			}
		}
		entries, err := t.srv.Search(principal, req.Base, scope, filter)
		if err != nil {
			return fail(err)
		}
		return wireResponse{OK: true, Entries: entries}
	case "add":
		if req.Entry == nil {
			return fail(fmt.Errorf("directory: add without entry"))
		}
		if err := t.srv.Add(principal, *req.Entry); err != nil {
			return fail(err)
		}
		return wireResponse{OK: true}
	case "modify":
		if err := t.srv.Modify(principal, req.DNField, req.Attrs); err != nil {
			return fail(err)
		}
		return wireResponse{OK: true}
	case "delete":
		if err := t.srv.Delete(principal, req.DNField); err != nil {
			return fail(err)
		}
		return wireResponse{OK: true}
	}
	return fail(fmt.Errorf("directory: unknown op %q", req.Op))
}

func (t *TCPServer) serveWatch(conn net.Conn, enc *json.Encoder, principal string, req wireRequest) {
	if err := t.srv.authorize(principal, OpSearch, req.Base); err != nil {
		enc.Encode(wireResponse{Error: err.Error()}) //nolint:errcheck
		return
	}
	filter := Filter(All)
	if req.Filter != "" {
		var err error
		filter, err = ParseFilter(req.Filter)
		if err != nil {
			enc.Encode(wireResponse{Error: err.Error()}) //nolint:errcheck
			return
		}
	}
	w := t.srv.WatchSubtree(req.Base, filter)
	defer w.Cancel()
	// Cancel the watch as soon as the client goes away, so the event
	// loop below unblocks even when no changes are flowing.
	go func() {
		io.Copy(io.Discard, conn) //nolint:errcheck
		w.Cancel()
	}()
	if err := enc.Encode(wireResponse{OK: true}); err != nil {
		return
	}
	for ch := range w.Events() {
		ch := ch
		if err := enc.Encode(wireResponse{OK: true, Change: &ch}); err != nil {
			return
		}
	}
}

// Client talks to one or more directory servers with failover: the
// paper notes replication is critical because "failure of the sensor
// directory server could take down the entire system". Operations try
// each address in order until one answers.
type Client struct {
	Addresses []string
	Principal string
	Timeout   time.Duration
	TLS       *tls.Config
	// FollowReferrals makes Search chase one referral hop.
	FollowReferrals bool
}

// NewClient returns a client over the given server addresses.
func NewClient(principal string, addresses ...string) *Client {
	return &Client{Addresses: addresses, Principal: principal, Timeout: 5 * time.Second, FollowReferrals: true}
}

// roundTrip runs one request against the first reachable server.
func (c *Client) roundTrip(req wireRequest) (wireResponse, error) {
	req.Principal = c.Principal
	var lastErr error
	for _, addr := range c.Addresses {
		resp, err := c.roundTripAddr(addr, req)
		if err != nil {
			lastErr = err
			continue // dead server: fail over
		}
		return resp, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("directory: no server addresses configured")
	}
	return wireResponse{}, lastErr
}

func (c *Client) roundTripAddr(addr string, req wireRequest) (wireResponse, error) {
	conn, err := transport.Dial(addr, c.Timeout, c.TLS)
	if err != nil {
		return wireResponse{}, err
	}
	defer conn.Close()
	if c.Timeout > 0 {
		conn.SetDeadline(time.Now().Add(c.Timeout)) //nolint:errcheck
	}
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		return wireResponse{}, err
	}
	var resp wireResponse
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		return wireResponse{}, err
	}
	return resp, nil
}

func respErr(resp wireResponse) error {
	if resp.OK {
		return nil
	}
	if resp.Referral != "" {
		return ErrReferral{Address: resp.Referral}
	}
	return fmt.Errorf("%s", resp.Error)
}

// Search queries the directory, following one referral hop if enabled.
func (c *Client) Search(base DN, scope Scope, filter string) ([]Entry, error) {
	req := wireRequest{Op: "search", Base: base, Scope: scope.String(), Filter: filter}
	resp, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	if resp.Referral != "" && c.FollowReferrals {
		resp, err = c.roundTripAddr(resp.Referral, req)
		if err != nil {
			return nil, err
		}
	}
	if err := respErr(resp); err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

// Add inserts an entry.
func (c *Client) Add(e Entry) error {
	resp, err := c.roundTrip(wireRequest{Op: "add", Entry: &e})
	if err != nil {
		return err
	}
	return respErr(resp)
}

// Modify replaces attributes of an entry.
func (c *Client) Modify(dn DN, attrs map[string][]string) error {
	resp, err := c.roundTrip(wireRequest{Op: "modify", DNField: dn, Attrs: attrs})
	if err != nil {
		return err
	}
	return respErr(resp)
}

// Delete removes an entry.
func (c *Client) Delete(dn DN) error {
	resp, err := c.roundTrip(wireRequest{Op: "delete", DNField: dn})
	if err != nil {
		return err
	}
	return respErr(resp)
}

// Ping checks liveness of any configured server.
func (c *Client) Ping() error {
	resp, err := c.roundTrip(wireRequest{Op: "ping"})
	if err != nil {
		return err
	}
	return respErr(resp)
}

// Watch opens a persistent search; changes arrive on the returned
// channel until stop is called or the server closes. The channel closes
// on stream end.
func (c *Client) Watch(base DN, filter string) (<-chan Change, func(), error) {
	req := wireRequest{Op: "watch", Principal: c.Principal, Base: base, Filter: filter}
	var lastErr error
	for _, addr := range c.Addresses {
		cn, err := transport.Dial(addr, c.Timeout, c.TLS)
		if err != nil {
			lastErr = err
			continue
		}
		if err := json.NewEncoder(cn).Encode(req); err != nil {
			cn.Close()
			lastErr = err
			continue
		}
		dec := json.NewDecoder(cn)
		var first wireResponse
		if err := dec.Decode(&first); err != nil {
			cn.Close()
			lastErr = err
			continue
		}
		if err := respErr(first); err != nil {
			cn.Close()
			return nil, nil, err
		}
		out := make(chan Change, 64)
		go func() {
			defer close(out)
			defer cn.Close()
			for {
				var resp wireResponse
				if err := dec.Decode(&resp); err != nil {
					return
				}
				if resp.Change != nil {
					out <- *resp.Change
				}
			}
		}()
		stop := func() { cn.Close() }
		return out, stop, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("directory: no server addresses configured")
	}
	return nil, nil, lastErr
}

// ClientTLS builds a client tls.Config trusting roots and presenting
// cert, for certificate-authenticated directory access (§7.1).
func ClientTLS(cert tls.Certificate, roots *x509.CertPool, serverName string) *tls.Config {
	return &tls.Config{
		Certificates: []tls.Certificate{cert},
		RootCAs:      roots,
		ServerName:   serverName,
		MinVersion:   tls.VersionTLS12,
	}
}
