// Package router is the client side of a multi-gateway sharded site:
// the paper's one-gateway-per-site event channel (§2.2-2.3) stretched
// over N gateways with sensors partitioned among them by consistent
// hashing (internal/ring). A Router's Publish, Query, Summary and
// Subscribe transparently target the gateway that owns the named
// sensor, so sensor managers and consumers keep the single-gateway
// programming model while the site scales horizontally.
//
// Ownership is resolved in two steps, the shape R-GMA and the Globus
// MDS line of work converged on: the sensor directory is consulted
// first (gateways advertise "sensor → gateway addr" entries via
// Announcer on Register/Unregister), and ring placement is the
// fallback for sensors not yet advertised. The directory therefore
// wins when a sensor lives somewhere ring placement would not predict
// — a rebalanced or manually pinned sensor — while brand-new sensors
// route correctly with no directory round trip.
//
// Wildcard subscriptions cannot be scoped to one owner; they fan out
// to every gateway of the ring and merge through bus-to-bus bridges
// (internal/bridge) into one local bus, with the bridges' reconnect
// machinery keeping the merged stream alive across gateway bounces.
package router

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jamm/internal/bridge"
	"jamm/internal/bus"
	"jamm/internal/directory"
	"jamm/internal/gateway"
	"jamm/internal/ring"
	"jamm/internal/telemetry"
	"jamm/internal/ulm"
)

// Options configures a Router.
type Options struct {
	// Ring is the site's gateway membership (wire addresses). Required.
	// It is the initial membership; SetRing/Rebalance swap it live.
	Ring *ring.Ring
	// ReplicaK is the site's placement factor: each sensor is placed on
	// its first ReplicaK ring owners (primary + ReplicaK-1 replicas),
	// and routed operations fail over along that candidate list when
	// the primary stops answering. 0 or 1 selects single-owner
	// placement — no replica candidates, the pre-replication behavior
	// bit for bit.
	ReplicaK int
	// Directory, when set, is consulted for directory-advertised
	// ownership before falling back to ring placement.
	Directory Directory
	// Base is the sensor subtree ownership entries live under
	// (typically "ou=sensors,o=jamm"). Used only with Directory.
	Base directory.DN
	// Principal identifies this client to gateways and the directory.
	Principal string
	// Format is the wire payload format (gateway.FormatULM default).
	Format string
	// BatchMax caps the records of a publish or subscribe frame on the
	// wire (default 64); a partial one leaves as soon as its connection
	// is idle. BatchWait is advisory: it travels in subscribe requests.
	BatchMax  int
	BatchWait time.Duration
	// Timeout bounds dials and request round trips (default 5s).
	Timeout time.Duration
	// Protocol is the wire protocol policy for the router's gateway
	// connections (gateway.ProtoAuto default: negotiate binary v2, fall
	// back to JSON).
	Protocol gateway.Proto
}

// Router routes gateway operations across a sharded multi-gateway
// site. It is safe for concurrent use. Close releases its persistent
// publisher connections and any wildcard fan-in bridges.
type Router struct {
	opts Options

	// ringp holds the current membership; SetRing swaps it without a
	// lock on the publish hot path.
	ringp atomic.Pointer[ring.Ring]

	mu      sync.Mutex
	clients map[string]*gateway.Client
	closed  bool

	// pubs maps gateway address → persistent batch publisher. Reads are
	// lock-free (the publish hot path runs from many sensor-manager
	// goroutines at once); r.mu serializes only creation and teardown.
	pubs sync.Map // string -> *gateway.Publisher

	// owners caches resolved sensor → placement candidate lists
	// (primary first) so the publish hot path pays neither a directory
	// round trip nor a ring walk per record. Entries are invalidated
	// when every candidate's connection fails, and wholesale on
	// SetRing.
	owners sync.Map // string -> []string

	publishDrops   atomic.Uint64
	publishRetries atomic.Uint64
	failovers      atomic.Uint64

	// tracer is the telemetry hook (SetTracer): batch/frame publishes
	// feed the forward-stage latency histogram. Forwarding does not
	// bump the trace hop — the receiving gateway's ingest is the next
	// hop-visible stage.
	tracer atomic.Pointer[telemetry.Tracer]
}

// Stats counts a router's loss and recovery events.
type Stats struct {
	// PublishDrops counts records lost on failed publisher connections
	// — including batch-buffered records whose Publish had already
	// returned nil when the batch's flush failed. Never silent: a
	// bounced gateway surfaces here even when the retry path recovers.
	PublishDrops uint64
	// PublishRetries counts publishes that failed on every cached
	// candidate and were retried against freshly resolved placement.
	PublishRetries uint64
	// Failovers counts operations answered by a non-primary placement
	// candidate — a replica absorbing a dead or stale primary's
	// traffic. Each one also rewrites the directory advertisement to
	// the answering gateway.
	Failovers uint64
}

// New returns a router over the given site.
func New(opts Options) (*Router, error) {
	if opts.Ring == nil || opts.Ring.Len() == 0 {
		return nil, fmt.Errorf("router: empty gateway ring")
	}
	if opts.BatchMax <= 0 {
		opts.BatchMax = 64
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	if opts.ReplicaK < 1 {
		opts.ReplicaK = 1
	}
	r := &Router{
		opts:    opts,
		clients: make(map[string]*gateway.Client),
	}
	r.ringp.Store(opts.Ring)
	return r, nil
}

// Ring returns the router's current gateway membership.
func (r *Router) Ring() *ring.Ring { return r.ringp.Load() }

// SetRing swaps the gateway membership — a gateway joined or left —
// and drops every cached placement, so subsequent operations resolve
// against the new ring. Publishers to departed gateways die on their
// next use and are retired (and their losses counted) by the normal
// drop path. Rebalance wraps this with the state handoff.
func (r *Router) SetRing(rg *ring.Ring) {
	if rg == nil || rg.Len() == 0 {
		return
	}
	r.ringp.Store(rg)
	r.owners.Range(func(k, _ any) bool { r.owners.Delete(k); return true })
}

// Owner resolves the gateway address owning sensor: the
// directory-advertised owner when an ownership entry exists, ring
// placement otherwise.
func (r *Router) Owner(sensor string) string {
	if cands := r.Owners(sensor); len(cands) > 0 {
		return cands[0]
	}
	return r.Ring().Owner(sensor)
}

// Owners resolves sensor's placement candidates in preference order:
// the directory-advertised owner and replicas first, then ring
// placement up to the placement factor, deduplicated. The first
// address is the routing primary; the rest are the failover ladder a
// routed operation walks when the primary stops answering.
func (r *Router) Owners(sensor string) []string {
	out := make([]string, 0, r.opts.ReplicaK+1)
	seen := make(map[string]struct{}, r.opts.ReplicaK+1)
	add := func(addr string) {
		if addr == "" {
			return
		}
		if _, dup := seen[addr]; dup {
			return
		}
		seen[addr] = struct{}{}
		out = append(out, addr)
	}
	if r.opts.Directory != nil {
		entries, err := r.opts.Directory.Search(SensorDN(r.opts.Base, sensor), directory.ScopeBase, "")
		if err == nil && len(entries) == 1 {
			if addr, ok := entries[0].Get(OwnerAttr); ok {
				add(addr)
			}
			for _, addr := range entries[0].GetAll(ReplicaAttr) {
				add(addr)
			}
		}
	}
	for _, addr := range r.Ring().Owners(sensor, r.opts.ReplicaK) {
		add(addr)
	}
	return out
}

// cachedOwners returns the cached placement candidates for sensor,
// resolving and caching on miss.
func (r *Router) cachedOwners(sensor string) []string {
	if v, ok := r.owners.Load(sensor); ok {
		return v.([]string)
	}
	cands := r.Owners(sensor)
	r.owners.Store(sensor, cands)
	return cands
}

// promote records a successful failover: sensor was answered (or its
// publish accepted) by the non-primary candidate at addr. The
// placement cache is dropped, and the directory advertisement is
// rewritten to the answering gateway — the flip that moves the whole
// site's routing off a dead primary at the cost of one router's
// discovery, instead of every router rediscovering the failure.
func (r *Router) promote(sensor, addr string) {
	r.failovers.Add(1)
	r.promoteTo(sensor, addr)
}

func (r *Router) client(addr string) *gateway.Client {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clientLocked(addr)
}

func (r *Router) clientLocked(addr string) *gateway.Client {
	c, ok := r.clients[addr]
	if !ok {
		c = gateway.NewClient(r.opts.Principal, addr)
		c.Timeout = r.opts.Timeout
		c.Protocol = r.opts.Protocol
		r.clients[addr] = c
	}
	return c
}

// publisher returns the persistent batch publisher for addr, dialing
// on first use. The found path is lock-free.
func (r *Router) publisher(addr string) (*gateway.Publisher, error) {
	if p, ok := r.pubs.Load(addr); ok {
		return p.(*gateway.Publisher), nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("router: closed")
	}
	if p, ok := r.pubs.Load(addr); ok { // lost the creation race
		return p.(*gateway.Publisher), nil
	}
	p, err := r.clientLocked(addr).NewBatchPublisher(r.opts.Format, r.opts.BatchMax, gateway.FlushWhenIdle)
	if err != nil {
		return nil, err
	}
	r.pubs.Store(addr, p)
	return p, nil
}

func (r *Router) dropPublisher(addr string, p *gateway.Publisher) {
	if r.pubs.CompareAndDelete(addr, p) {
		// First goroutine to retire this publisher accounts its losses.
		p.Close() //nolint:errcheck
		r.publishDrops.Add(p.Dropped())
	}
}

// Stats returns a snapshot of the router's loss/recovery counters.
func (r *Router) Stats() Stats {
	return Stats{
		PublishDrops:   r.publishDrops.Load(),
		PublishRetries: r.publishRetries.Load(),
		Failovers:      r.failovers.Load(),
	}
}

// SetTracer attaches (or, with nil, detaches) the telemetry tracer.
func (r *Router) SetTracer(t *telemetry.Tracer) { r.tracer.Store(t) }

// Publish routes one sensor record to the owning gateway over a
// persistent (batched) publisher connection, failing over along the
// sensor's placement candidates (replicas, under ReplicaK > 1) when a
// connection is dead. After every cached candidate fails, placement is
// re-resolved and the fresh ladder walked once more, so a bounced or
// rebalanced gateway costs one failed frame, not a wedged publisher.
func (r *Router) Publish(sensor string, rec ulm.Record) error {
	one := [1]ulm.Record{rec}
	if err := r.PublishBatch(sensor, one[:]); err != nil {
		return fmt.Errorf("router: publish %s: %w", sensor, err)
	}
	return nil
}

// PublishBatch routes a batch of one sensor's records to the owning
// gateway over its persistent batched publisher — the bulk form
// forwarding daemons use, one routing decision and one buffered append
// per batch. A dead connection fails over to the next placement
// candidate, and a wholly failed ladder is retried once against
// freshly resolved placement — but only while none of the batch
// reached the wire, so a failure mid-way through a multi-frame batch
// never duplicates the frames already written: the un-sent remainder
// is counted in Stats.PublishDrops instead (observable, never silent).
func (r *Router) PublishBatch(sensor string, recs []ulm.Record) error {
	if len(recs) == 0 {
		return nil
	}
	if tr := r.tracer.Load(); tr != nil {
		t0 := time.Now()
		defer func() {
			d := time.Since(t0)
			tr.Observe("forward", d)
			if id, hop, ok := telemetry.RecordTrace(recs); ok {
				tr.Event(id, hop, sensor, "forward", d)
			}
		}()
	}
	send := func(p *gateway.Publisher) (int, error) { return p.PublishBatch(sensor, recs) }
	err, terminal := r.publishOnce(sensor, r.cachedOwners(sensor), len(recs), send)
	if err == nil || terminal {
		return err
	}
	// Nothing reached the wire on any cached candidate: the placement
	// may be stale (gateways moved or died) — re-resolve and walk the
	// fresh ladder once.
	r.publishRetries.Add(1)
	r.owners.Delete(sensor)
	err, _ = r.publishOnce(sensor, r.cachedOwners(sensor), len(recs), send)
	if err != nil {
		return fmt.Errorf("router: publish batch %s: %w", sensor, err)
	}
	return nil
}

// PublishFrame routes one sealed wire-v2 frame to the gateway owning
// its sensor. Where the owner connection negotiated v2 the frame's
// bytes splice straight into the publisher's output buffer — sealed
// once by whoever built it, relayed without a record decode; a v1
// connection decodes and re-encodes transparently. Failover and the
// stale-placement retry follow PublishBatch.
func (r *Router) PublishFrame(f *gateway.Frame) error {
	if tr := r.tracer.Load(); tr != nil {
		t0 := time.Now()
		defer func() {
			d := time.Since(t0)
			tr.Observe("forward", d)
			if id, hop, ok := f.Trace(); ok {
				tr.Event(id, hop, f.Sensor, "forward", d)
			}
		}()
	}
	send := func(p *gateway.Publisher) (int, error) { return p.PublishFrame(f) }
	err, terminal := r.publishOnce(f.Sensor, r.cachedOwners(f.Sensor), f.Count, send)
	if err == nil || terminal {
		return err
	}
	r.publishRetries.Add(1)
	r.owners.Delete(f.Sensor)
	err, _ = r.publishOnce(f.Sensor, r.cachedOwners(f.Sensor), f.Count, send)
	if err != nil {
		return fmt.Errorf("router: publish frame %s: %w", f.Sensor, err)
	}
	return nil
}

// publishOnce walks the candidate ladder once, sending via send (which
// reports how many records reached the publisher before an error). It
// returns terminal=true when retrying elsewhere would duplicate
// records already written — the caller must not re-send. A success at
// a non-primary candidate promotes it.
func (r *Router) publishOnce(sensor string, cands []string, total int, send func(p *gateway.Publisher) (int, error)) (err error, terminal bool) {
	var lastErr error
	for i, addr := range cands {
		p, perr := r.publisher(addr)
		if perr != nil {
			lastErr = perr
			continue
		}
		written, serr := send(p)
		if serr == nil {
			if i > 0 {
				r.promote(sensor, addr)
			}
			return nil, false
		}
		r.dropPublisher(addr, p)
		if written > 0 {
			return fmt.Errorf("router: publish %s via %s: %d/%d records written before failure (remainder counted dropped, not retried): %w",
				sensor, addr, written, total, serr), true
		}
		lastErr = serr
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no placement candidates")
	}
	return lastErr, false
}

// Flush pushes every publisher's buffered batch to its gateway.
func (r *Router) Flush() error {
	var firstErr error
	r.pubs.Range(func(_, v any) bool {
		if err := v.(*gateway.Publisher).Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
		return true
	})
	return firstErr
}

// Query fetches the most recent event of the named type from the
// gateway owning sensor, walking the placement candidates until one
// answers: a stale directory advertisement degrades to the ring-placed
// owner, and under ReplicaK > 1 a dead primary degrades to a replica
// serving its mirrored cache (or archive tail). An answer from a
// non-primary candidate promotes it in the directory.
func (r *Router) Query(sensor, event string) (ulm.Record, bool, error) {
	var (
		rec   ulm.Record
		found bool
		err   error
	)
	for i, addr := range r.Owners(sensor) {
		rec, found, err = r.client(addr).Query(sensor, event)
		if err == nil && found {
			if i > 0 {
				r.promote(sensor, addr)
			}
			return rec, true, nil
		}
	}
	return rec, found, err
}

// Summary fetches windowed statistics from the gateway owning sensor,
// failing over along the placement candidates like Query.
func (r *Router) Summary(sensor, event, field string) ([]gateway.SummaryPoint, error) {
	var (
		pts []gateway.SummaryPoint
		err error
	)
	for i, addr := range r.Owners(sensor) {
		pts, err = r.client(addr).Summary(sensor, event, field)
		if err == nil {
			if i > 0 {
				r.promote(sensor, addr)
			}
			return pts, nil
		}
	}
	return pts, err
}

// List merges the sensor listings of every gateway on the ring, sorted
// by name. Listing errors from individual gateways are returned after
// the merged listing of the reachable ones (partial sites stay
// observable during a gateway bounce). Replica gateways list their
// mirrored holdings too; the merge keeps one row per sensor,
// preferring the primary's (non-mirrored) row, so the site-wide
// listing counts each sensor once whatever the placement factor.
func (r *Router) List() ([]gateway.SensorInfo, error) {
	var out []gateway.SensorInfo
	byName := make(map[string]int)
	var firstErr error
	for _, addr := range r.Ring().Nodes() {
		infos, err := r.client(addr).List()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("router: list %s: %w", addr, err)
			}
			continue
		}
		for _, info := range infos {
			if j, dup := byName[info.Name]; dup {
				if out[j].Mirrored && !info.Mirrored {
					out[j] = info
				}
				continue
			}
			byName[info.Name] = len(out)
			out = append(out, info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, firstErr
}

// History routes a historical query across the site: a request naming
// a sensor asks only the gateway owning it (directory-advertised owner
// first, ring placement as fallback — the archive lives where the
// sensor publishes), while a wildcard request fans out to every
// gateway of the ring and merges the results by timestamp. Partial
// sites stay queryable: per-gateway errors on a wildcard query are
// returned after the merged records of the reachable gateways.
func (r *Router) History(hr gateway.HistoryRequest) ([]gateway.TopicRecord, error) {
	if hr.Sensor != "" {
		var (
			recs []gateway.TopicRecord
			err  error
		)
		for i, addr := range r.Owners(hr.Sensor) {
			recs, err = r.client(addr).History(hr)
			if err == nil && len(recs) > 0 {
				if i > 0 {
					r.promote(hr.Sensor, addr)
				}
				return recs, nil
			}
		}
		return recs, err
	}
	nodes := r.Ring().Nodes()
	var out []gateway.TopicRecord
	var firstErr error
	errs := 0
	for _, addr := range nodes {
		recs, err := r.client(addr).History(hr)
		if err != nil {
			errs++
			if firstErr == nil {
				firstErr = fmt.Errorf("router: history %s: %w", addr, err)
			}
			continue
		}
		out = append(out, recs...)
	}
	if r.opts.ReplicaK > 1 {
		// Replicated archives answer the same records from several
		// gateways: collapse to one copy per record, and treat a dead
		// gateway as covered (its replicas answered for it) rather than
		// a partial result — unless nobody answered at all.
		out = dedupeTopicRecords(out)
		if errs < len(nodes) {
			firstErr = nil
		}
	}
	// Each gateway's slice arrives time-sorted; the merged site-wide
	// answer must be too.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Rec.Date.Before(out[j].Rec.Date) })
	return out, firstErr
}

// dedupeTopicRecords collapses duplicate records — the same sensor's
// record archived by the primary and by its replicas — to one copy, by
// record identity (sensor plus canonical binary encoding), preserving
// first-seen order.
func dedupeTopicRecords(in []gateway.TopicRecord) []gateway.TopicRecord {
	seen := make(map[string]struct{}, len(in))
	out := in[:0]
	var key []byte
	for i := range in {
		key = append(key[:0], in[i].Sensor...)
		key = append(key, 0)
		key = ulm.AppendBinary(key, &in[i].Rec)
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		out = append(out, in[i])
	}
	return out
}

// Subscribe opens a streaming subscription routed across the site. A
// request naming a sensor subscribes at the owning gateway; a wildcard
// request fans out to every gateway on the ring. Both ride bus-to-bus
// bridges merging into one local bus, so the subscription survives
// gateway bounces: the bridge reconnects with backoff and re-issues
// the request instead of dying silently. The returned stop function
// tears the subscription down.
func (r *Router) Subscribe(req gateway.Request, fn func(ulm.Record)) (stop func(), err error) {
	if fn == nil {
		return nil, fmt.Errorf("router: nil subscription callback")
	}
	if req.Principal == "" {
		req.Principal = r.opts.Principal
	}
	local := bus.New(bus.Options{})
	sub := local.Subscribe("", nil, fn)
	var bridges []*bridge.Bridge
	if req.Sensor != "" {
		// A named-sensor subscription re-homes on every reconnect
		// round: when the owner dies, the bridge's next round binds to
		// the first placement candidate that answers (a replica
		// mirroring the sensor) instead of hammering the dead address.
		bridges = []*bridge.Bridge{r.bridgeWith(r.Owner(req.Sensor), local, req, r.rebindFor(req.Sensor))}
	} else {
		bridges = r.mirror(local, req)
	}
	return func() {
		for _, b := range bridges {
			b.Close()
		}
		sub.Cancel()
	}, nil
}

// Mirror mirrors every gateway of the site into target (a local bus or
// gateway) — the fan-in a site-wide consumer (collector, archiver,
// overview monitor) attaches to. The caller owns the returned bridges.
func (r *Router) Mirror(target bridge.Target) []*bridge.Bridge {
	return r.mirror(target, gateway.Request{Principal: r.opts.Principal})
}

func (r *Router) mirror(target bridge.Target, req gateway.Request) []*bridge.Bridge {
	nodes := r.Ring().Nodes()
	bridges := make([]*bridge.Bridge, 0, len(nodes))
	for _, addr := range nodes {
		bridges = append(bridges, r.bridgeTo(addr, target, req))
	}
	return bridges
}

// bridgeTo starts one reconnecting bridge mirroring req from the
// gateway at addr into target.
func (r *Router) bridgeTo(addr string, target bridge.Target, req gateway.Request) *bridge.Bridge {
	return r.bridgeWith(addr, target, req, nil)
}

func (r *Router) bridgeWith(addr string, target bridge.Target, req gateway.Request, rebind func() *gateway.Client) *bridge.Bridge {
	c := gateway.NewClient(r.opts.Principal, addr)
	c.Timeout = r.opts.Timeout
	c.Protocol = r.opts.Protocol
	return bridge.New(c, target, bridge.Options{
		Requests:  []gateway.Request{req},
		Format:    r.opts.Format,
		BatchMax:  r.opts.BatchMax,
		BatchWait: r.opts.BatchWait,
		Rebind:    rebind,
	})
}

// rebindFor picks the subscription upstream for sensor at the start of
// each bridge reconnect round: the first placement candidate answering
// a ping. Nobody answering keeps the round's previous client (the
// bridge backs off and asks again).
func (r *Router) rebindFor(sensor string) func() *gateway.Client {
	return func() *gateway.Client {
		for _, addr := range r.Owners(sensor) {
			c := r.client(addr)
			if c.Ping() == nil {
				return c
			}
		}
		return nil
	}
}

// WaitConnected blocks until every bridge is connected or the timeout
// elapses, reporting whether all connected. It is a convenience for
// tests and assembly code that must not publish before the wildcard
// fan-in is live.
func WaitConnected(bridges []*bridge.Bridge, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for _, b := range bridges {
		if !b.WaitConnected(time.Until(deadline)) {
			return false
		}
	}
	return true
}

// Close flushes and releases the router's persistent connections: its
// publishers, and the request/answer connections its per-gateway
// clients keep. Those clients are the router's — the bridges of
// Subscribe that rebind through them only borrow them.
func (r *Router) Close() {
	r.mu.Lock()
	r.closed = true
	for _, c := range r.clients {
		c.Close() //nolint:errcheck
	}
	r.mu.Unlock()
	r.pubs.Range(func(k, v any) bool {
		r.pubs.Delete(k)
		p := v.(*gateway.Publisher)
		p.Close() //nolint:errcheck
		r.publishDrops.Add(p.Dropped())
		return true
	})
}
