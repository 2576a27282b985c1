package bridge

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"jamm/internal/boundq"
	"jamm/internal/gateway"
	"jamm/internal/ring"
	"jamm/internal/telemetry"
	"jamm/internal/ulm"
)

// Replicator is the publish side of k-replica placement: attached to a
// gateway as its Forwarder, it mirrors every primary ingest to the
// sensor's other ring owners, so each replica's gateway (cache,
// summaries, archive, subscribers) tracks the primary's. Delivery is
// asynchronous — Forward runs on the publishing goroutine and must not
// block, so records queue per replica link under a bounded record
// budget (internal/boundq, the queue wire subscriptions use) and a
// drained/bounced link reconnects with backoff while the queue absorbs
// (or, at the budget, sheds and counts) the traffic.
// Where both ends speak wire v2, a frame-plane ingest replicates as
// the frame itself: the sealed bytes are spliced into the replica
// link's output buffer with only the replica flag patched — the
// zero-copy relay plane carrying replication too.
type Replicator struct {
	self string
	k    int
	opts ReplicatorOptions

	ring atomic.Pointer[ring.Ring]

	mu     sync.Mutex
	links  map[string]*replicaLink
	closed bool

	replicated atomic.Uint64
	shed       atomic.Uint64

	// tracer is the telemetry hook (SetTracer): replica sends feed the
	// mirror-stage latency histogram. Replica copies are terminal —
	// the trace hop is NOT bumped, matching JAMM.HOPS.
	tracer atomic.Pointer[telemetry.Tracer]
}

// ReplicatorOptions tunes a Replicator.
type ReplicatorOptions struct {
	// Principal authenticates the replica links (a policy's publish
	// action must admit it).
	Principal string
	// Format is the wire payload format (gateway.FormatULM default;
	// v2 framing negotiates on top of it).
	Format string
	// BatchMax caps the records of a replica link's frame (default 64);
	// a partial one leaves as soon as the link is idle. BatchWait is
	// advisory and unused.
	BatchMax  int
	BatchWait time.Duration
	// QueueRecords bounds each link's pending-record budget (default
	// 8192); past it, new records are shed and counted.
	QueueRecords int
	// MinBackoff/MaxBackoff bound a dead link's reconnect backoff
	// (defaults 50ms / 5s).
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// Dial, when set, builds the client for a replica address — the
	// hook for TLS or test instrumentation. Nil dials plain TCP.
	Dial func(addr string) *gateway.Client
}

// ReplicatorStats counts a replicator's traffic.
type ReplicatorStats struct {
	// Replicated counts records handed to replica links' publishers.
	Replicated uint64
	// Shed counts records dropped at a link's queue budget or by a
	// failed send — replication loss, visible, never silent.
	Shed uint64
	// Links counts replica links ever opened.
	Links int
}

// NewReplicator builds a replicator for the gateway at self
// (host:port, as it appears in the ring), replicating to each sensor's
// ring owners up to placement factor k. It satisfies
// gateway.Forwarder; attach with gw.SetForwarder. k <= 1 replicates
// nothing (single-owner placement).
func NewReplicator(self string, rg *ring.Ring, k int, opts ReplicatorOptions) *Replicator {
	if opts.BatchMax <= 0 {
		opts.BatchMax = 64
	}
	if opts.QueueRecords <= 0 {
		opts.QueueRecords = 8192
	}
	if opts.MinBackoff <= 0 {
		opts.MinBackoff = 50 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 5 * time.Second
	}
	r := &Replicator{self: self, k: k, opts: opts, links: make(map[string]*replicaLink)}
	r.ring.Store(rg)
	return r
}

// SetRing swaps the placement ring — membership changed; subsequent
// ingests replicate to the new owner set. Existing links persist (an
// address that stays a replica target keeps its queue).
func (r *Replicator) SetRing(rg *ring.Ring) { r.ring.Store(rg) }

// SetTracer attaches (or, with nil, detaches) the telemetry tracer.
func (r *Replicator) SetTracer(t *telemetry.Tracer) { r.tracer.Store(t) }

// Stats returns a snapshot of the replicator's counters.
func (r *Replicator) Stats() ReplicatorStats {
	r.mu.Lock()
	n := len(r.links)
	r.mu.Unlock()
	return ReplicatorStats{Replicated: r.replicated.Load(), Shed: r.shed.Load(), Links: n}
}

// Forward implements gateway.Forwarder: fan one primary ingest out to
// the sensor's replica owners. Exactly one of recs/f is set; both are
// borrowed: records are kept as one deep copy the links share, a frame
// as one reference per link (Frame.Retain). Never blocks — each link's
// queue sheds at its budget.
func (r *Replicator) Forward(sensor string, recs []ulm.Record, f *gateway.Frame) {
	rg := r.ring.Load()
	if rg == nil || r.k <= 1 {
		return
	}
	var buf [8]string // on the stack up to k = 8
	targets := slices.DeleteFunc(rg.AppendOwners(buf[:0], sensor, r.k), func(o string) bool { return o == r.self })
	if len(targets) > r.k-1 {
		targets = targets[:r.k-1]
	}
	if len(targets) == 0 {
		return
	}
	it := repItem{sensor: sensor, f: f, n: len(recs)}
	if f != nil {
		it.n = f.Count
	} else {
		it.recs = make([]ulm.Record, len(recs))
		for i := range recs {
			it.recs[i] = recs[i].Clone()
		}
	}
	for _, addr := range targets {
		if l := r.link(addr); l != nil {
			if !l.q.Push(it) {
				r.shed.Add(uint64(it.n))
			}
		}
	}
}

func (r *Replicator) link(addr string) *replicaLink {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	if l, ok := r.links[addr]; ok {
		return l
	}
	l := &replicaLink{r: r, addr: addr, q: boundq.New[repItem](r.opts.QueueRecords), done: make(chan struct{})}
	r.links[addr] = l
	l.wg.Add(1)
	go l.run()
	return l
}

// Close stops every replica link, flushing what their publishers hold.
func (r *Replicator) Close() {
	r.mu.Lock()
	r.closed = true
	links := make([]*replicaLink, 0, len(r.links))
	for _, l := range r.links {
		links = append(links, l)
	}
	r.mu.Unlock()
	for _, l := range links {
		l.close()
	}
}

// repItem is one queued replication unit: a deep-copied record batch
// the links share, or a wire frame each link retains when its queue
// admits it and releases once it is sent or shed.
type repItem struct {
	sensor string
	recs   []ulm.Record
	f      *gateway.Frame
	n      int // record count, for the queue budget
}

// Records and Own make repItem a boundq.Item.
func (it repItem) Records() int { return it.n }

func (it repItem) Own() repItem {
	if it.f != nil {
		it.f = it.f.Retain()
	}
	return it
}

// replicaLink is the pipe to one replica gateway: the site's bounded
// record queue (internal/boundq, shared with wire subscriptions)
// drained by a goroutine that owns the (re)connecting publisher. The
// QueueRecords budget bounds what a slow or dead replica pins: the
// frames it admits, at most twice their bytes (see gateway.Frame); an
// empty queue admits even a frame bigger than the whole budget.
type replicaLink struct {
	r    *Replicator
	addr string
	q    *boundq.Queue[repItem]

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// shedAll counts items as replication loss and releases their frames.
func (l *replicaLink) shedAll(items []repItem) {
	for _, it := range items {
		l.r.shed.Add(uint64(it.n))
		it.f.Release()
	}
}

func (l *replicaLink) close() {
	l.closeOnce.Do(func() { close(l.done) })
	l.wg.Wait()
}

func (l *replicaLink) client() *gateway.Client {
	if l.r.opts.Dial != nil {
		return l.r.opts.Dial(l.addr)
	}
	return &gateway.Client{Addr: l.addr, Principal: l.r.opts.Principal}
}

// run drains the queue into a replica-marked publisher, reconnecting
// with backoff when the replica bounces. Items in flight when a send
// fails are shed and counted — replication favors the primary's
// liveness over completeness; anti-entropy closes archive gaps later.
func (l *replicaLink) run() {
	defer l.wg.Done()
	var pub *gateway.Publisher
	var items []repItem
	backoff := l.r.opts.MinBackoff
	defer func() {
		// Final drain: ship what's queued if the link is up; a down link
		// sheds it, counted. The closed queue admits nothing behind it.
		items = l.q.Close()
		if pub != nil {
			l.send(pub, items)
			pub.Close()
		} else {
			l.shedAll(items)
		}
	}()
	for {
		select {
		case <-l.done:
			return
		case <-l.q.Ready():
		}
		for {
			l.q.Settle() // the previous take was sent or shed
			items = l.q.PopAll(items)
			if len(items) == 0 {
				break
			}
			if pub == nil {
				p, err := l.client().NewBatchPublisher(l.r.opts.Format, l.r.opts.BatchMax, gateway.FlushWhenIdle)
				if err != nil {
					// Replica down: requeue nothing (the items predate the
					// outage), shed these, back off before the next try.
					l.shedAll(items)
					if !l.sleep(backoff) {
						return
					}
					backoff *= 2
					if backoff > l.r.opts.MaxBackoff {
						backoff = l.r.opts.MaxBackoff
					}
					continue
				}
				p.MarkReplica()
				pub = p
				backoff = l.r.opts.MinBackoff
			}
			if !l.send(pub, items) {
				pub.Close()
				pub = nil
			}
		}
	}
}

// send ships one drained batch, releasing each frame once the
// publisher has copied it or it is shed, and reports whether the
// publisher is still usable.
func (l *replicaLink) send(pub *gateway.Publisher, items []repItem) bool {
	tr := l.r.tracer.Load()
	for i, it := range items {
		var (
			written int
			err     error
			t0      time.Time
		)
		if tr != nil {
			t0 = time.Now()
		}
		if it.f != nil {
			written, err = pub.PublishFrame(it.f)
		} else {
			written, err = pub.PublishBatch(it.sensor, it.recs)
		}
		if tr != nil {
			d := time.Since(t0)
			tr.Observe("mirror", d)
			if it.f != nil {
				if id, hop, ok := it.f.Trace(); ok {
					tr.Event(id, hop, it.f.Sensor, "mirror", d)
				}
			} else if id, hop, ok := telemetry.RecordTrace(it.recs); ok {
				tr.Event(id, hop, it.sensor, "mirror", d)
			}
		}
		it.f.Release()
		l.r.replicated.Add(uint64(written))
		if err != nil {
			// This item's unwritten records plus everything behind it.
			l.r.shed.Add(uint64(it.n - written))
			l.shedAll(items[i+1:])
			return false
		}
	}
	return true
}

// sleep waits d or until close, reporting whether to continue.
func (l *replicaLink) sleep(d time.Duration) bool {
	select {
	case <-l.done:
		return false
	case <-time.After(d):
		return true
	}
}
