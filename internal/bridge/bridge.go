// Package bridge stretches the event bus across processes: a Bridge
// subscribes to topics on a remote gateway over the wire protocol and
// republishes every received record into a local publish target, so a
// consumer's (or downstream gateway's) local bus transparently mirrors
// remote topics. This is the paper's hierarchy made concrete — sensor
// managers publish into a per-host gateway, site gateways mirror many
// hosts, and consumers far away mirror a site — with the wire cost
// amortized by batched frames and resilience to gateway restarts via
// reconnect-with-backoff and automatic resubscription.
package bridge

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"jamm/internal/aggregate"
	"jamm/internal/gateway"
	"jamm/internal/telemetry"
	"jamm/internal/ulm"
)

// Target is where mirrored records land. *bus.Bus satisfies it (raw
// mirror: subscribers on the local bus see remote topics) and so does
// *gateway.Gateway (full mirror: records also feed the local gateway's
// last-event cache, summaries, and filters — chained gateways). The
// bridge republishes whole wire frames through PublishBatch, so a
// mirrored batch costs the target one fan-out; recs follows the bus's
// borrowed-slice contract (not retained past the call).
type Target interface {
	Publish(topic string, rec ulm.Record)
	PublishBatch(topic string, recs []ulm.Record)
}

// FrameTarget is a target that can ingest whole wire-v2 binary frames
// without the bridge decoding them — *gateway.Gateway satisfies it. A
// bridge in pure-relay position (no prefix rewrite, pass-through
// requests, v2 negotiated on the upstream connection) forwards each
// received frame's bytes into such a target untouched: it reads the
// frame header for the hop count and bumps it there, but never decodes
// a record body.
type FrameTarget interface {
	PublishFrame(f *gateway.Frame) error
}

// Options configures a Bridge.
type Options struct {
	// Requests selects which remote topics to mirror; empty mirrors
	// everything (one wildcard subscription).
	Requests []gateway.Request
	// Format is the wire payload format (gateway.FormatULM default).
	Format string
	// BatchMax asks the remote server for batched event frames of up
	// to this many records (0 = single-record frames).
	BatchMax int
	// BatchWait is advisory (gateway.StreamOptions.BatchWait): the server
	// sends a partial batch as soon as the subscription's writer is idle.
	BatchWait time.Duration
	// MinBackoff/MaxBackoff bound the reconnect backoff after a lost
	// or refused connection (defaults 50ms / 5s). Backoff doubles per
	// consecutive failure and resets on a successful subscribe.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// Prefix, when set, is prepended to every mirrored topic — chained
	// gateways can namespace upstream sites ("lbl/" + "cpu@h1").
	Prefix string
	// Rebind, when set, picks the upstream gateway client for each
	// subscribe round — the subscription side of failover: after the
	// current upstream dies, the next round can bind to a replica
	// instead of hammering the dead primary's address forever. A nil
	// return keeps the current client. Unset pins the bridge to the
	// client it was built with.
	Rebind func() *gateway.Client
	// MaxHops bounds how many bridges a record may cross (default 16).
	// Each mirror stamps/increments the record's JAMM.HOPS field and a
	// record at the limit is dropped and counted (Stats.LoopDrops)
	// instead of republished, so a misconfigured peer cycle (gateway A
	// mirroring B mirroring A) degrades into a bounded counter rather
	// than infinite event amplification.
	MaxHops int
}

// NewAggregateMirror starts a bridge mirroring the remote gateway's
// `_agg/` aggregate topics into target — one prefix subscription per
// upstream, a few records per emit period. A subscriber-facing replica
// gateway rides this to re-serve the site's aggregate streams locally,
// so dashboards subscribe to their nearest gateway instead of each
// reaching upstream. opts.Requests is overwritten; everything else
// (backoff, batching, Rebind) applies as usual.
func NewAggregateMirror(client *gateway.Client, target Target, opts Options) *Bridge {
	opts.Requests = []gateway.Request{{Sensor: aggregate.TopicPrefix, Prefix: true}}
	return New(client, target, opts)
}

// HopField is the ULM field bridges use to count mirror hops.
const HopField = "JAMM.HOPS"

// DefaultMaxHops bounds mirror chains when Options.MaxHops is unset.
const DefaultMaxHops = 16

// Stats counts one bridge's traffic.
type Stats struct {
	// Mirrored counts records republished into the local target.
	Mirrored uint64
	// Connects counts successful subscribe rounds (1 = the initial
	// connection; more = reconnects after a server bounce).
	Connects uint64
	// RemoteDrops is the cumulative slow-consumer drop count reported
	// by the remote server for this bridge's subscriptions — loss that
	// happened upstream, observable here.
	RemoteDrops uint64
	// DecodeErrors counts received payloads that failed local decode.
	DecodeErrors uint64
	// LoopDrops counts records dropped at the MaxHops limit — nonzero
	// means a mirror cycle (or an implausibly deep chain) exists.
	LoopDrops uint64
	// RelayedFrames counts wire frames forwarded on the zero-copy path:
	// header inspected, hop count bumped, record bodies never decoded.
	// Records they carried are included in Mirrored.
	RelayedFrames uint64
	// Connected reports whether the bridge currently holds live
	// subscriptions.
	Connected bool
}

// Bridge mirrors topics from one remote gateway into a local target.
// Close stops it; a lost connection triggers reconnect with backoff
// and resubscription of every configured request.
type Bridge struct {
	client *gateway.Client
	target Target
	opts   Options
	// frameTarget is non-nil when target can ingest raw frames and the
	// bridge is in relay position (no prefix rewrite).
	frameTarget FrameTarget

	mirrored      atomic.Uint64
	loopDrops     atomic.Uint64
	connects      atomic.Uint64
	relayedFrames atomic.Uint64
	relayErrs     atomic.Uint64
	connected     atomic.Bool

	// tracer is the telemetry hook (SetTracer): when set, relays and
	// mirrors feed the relay-stage latency histogram, and traced
	// records get their hop bumped alongside JAMM.HOPS.
	tracer atomic.Pointer[telemetry.Tracer]

	// mu guards the live-stream set AND the finished-stream counter
	// totals together: a finished stream's counters are folded into the
	// totals in the same critical section that removes it from the live
	// set, so a Stats snapshot (one pass under mu) counts every stream
	// exactly once — never twice, never transiently zero — and the
	// cumulative counters stay monotonic.
	mu          sync.Mutex
	streams     []*gateway.Stream // live streams of the current round
	remoteDrops uint64            // accumulated from finished streams
	decodeErrs  uint64            // accumulated from finished streams

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New starts a bridge mirroring the remote gateway behind client into
// target. It returns immediately; the first connection attempt (and
// every reconnect) happens on the bridge's own goroutine. The bridge
// borrows client — and whatever Rebind hands it — for its streams and
// never builds one, so Close closes the streams and leaves the clients
// to whoever made them (a router shares one per gateway across bridges).
func New(client *gateway.Client, target Target, opts Options) *Bridge {
	if len(opts.Requests) == 0 {
		opts.Requests = []gateway.Request{{}}
	}
	if opts.MinBackoff <= 0 {
		opts.MinBackoff = 50 * time.Millisecond
	}
	if opts.MaxHops <= 0 {
		opts.MaxHops = DefaultMaxHops
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 5 * time.Second
	}
	b := &Bridge{client: client, target: target, opts: opts, done: make(chan struct{})}
	// The zero-copy relay position: the target ingests raw frames and no
	// topic rewrite is configured. Which requests actually relay is
	// decided per subscription (pass-through filter, v2 negotiated).
	if ft, ok := target.(FrameTarget); ok && opts.Prefix == "" {
		b.frameTarget = ft
	}
	b.wg.Add(1)
	go b.run()
	return b
}

// Stats returns a snapshot of the bridge's counters. RemoteDrops and
// DecodeErrors are snapshotted atomically under one lock — finished
// streams' accumulated totals plus the live streams' running counters —
// so a stream finishing mid-snapshot is counted exactly once and the
// cumulative counters never dip.
func (b *Bridge) Stats() Stats {
	st := Stats{
		Mirrored:      b.mirrored.Load(),
		LoopDrops:     b.loopDrops.Load(),
		Connects:      b.connects.Load(),
		RelayedFrames: b.relayedFrames.Load(),
		Connected:     b.connected.Load(),
	}
	b.mu.Lock()
	st.RemoteDrops = b.remoteDrops
	st.DecodeErrors = b.decodeErrs + b.relayErrs.Load()
	for _, s := range b.streams {
		st.RemoteDrops += s.RemoteDrops()
		st.DecodeErrors += s.DecodeErrors()
	}
	b.mu.Unlock()
	return st
}

// SetTracer attaches (or, with nil, detaches) the telemetry tracer.
func (b *Bridge) SetTracer(t *telemetry.Tracer) { b.tracer.Store(t) }

// Connected reports whether the bridge currently holds live
// subscriptions to the remote gateway.
func (b *Bridge) Connected() bool { return b.connected.Load() }

// WaitConnected blocks until the bridge is connected or the timeout
// elapses, reporting which.
func (b *Bridge) WaitConnected(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if b.connected.Load() {
			return true
		}
		select {
		case <-b.done:
			return false
		case <-time.After(2 * time.Millisecond):
		}
	}
	return b.connected.Load()
}

// Close stops the bridge and waits for its goroutine to exit.
func (b *Bridge) Close() {
	b.closeOnce.Do(func() { close(b.done) })
	b.wg.Wait()
}

func (b *Bridge) run() {
	defer b.wg.Done()
	backoff := b.opts.MinBackoff
	for {
		select {
		case <-b.done:
			return
		default:
		}
		if b.opts.Rebind != nil {
			if c := b.opts.Rebind(); c != nil {
				b.client = c
			}
		}
		streams, fail, err := b.subscribeAll()
		if err != nil {
			b.closeStreams(streams)
			if !b.sleep(backoff) {
				return
			}
			backoff *= 2
			if backoff > b.opts.MaxBackoff {
				backoff = b.opts.MaxBackoff
			}
			continue
		}
		backoff = b.opts.MinBackoff
		b.connects.Add(1)
		b.setStreams(streams)
		b.connected.Store(true)
		// Hold until any stream dies (server bounce) or Close.
		select {
		case <-b.done:
			b.connected.Store(false)
			b.closeStreams(b.currentStreams())
			return
		case <-fail:
			b.connected.Store(false)
			b.closeStreams(b.currentStreams())
		}
	}
}

// subscribeAll opens one streaming subscription per configured
// request. fail fires when any of them terminates.
func (b *Bridge) subscribeAll() ([]*gateway.Stream, <-chan struct{}, error) {
	opts := gateway.StreamOptions{Format: b.opts.Format, BatchMax: b.opts.BatchMax, BatchWait: b.opts.BatchWait}
	fail := make(chan struct{})
	var failOnce sync.Once
	streams := make([]*gateway.Stream, 0, len(b.opts.Requests))
	for _, req := range b.opts.Requests {
		st, err := b.subscribeOne(req, opts)
		if err != nil {
			return streams, nil, err
		}
		streams = append(streams, st)
		go func(st *gateway.Stream) {
			<-st.Done()
			failOnce.Do(func() { close(fail) })
		}(st)
	}
	return streams, fail, nil
}

// subscribeOne opens one streaming subscription, preferring the
// zero-copy frame stream when this bridge and this request are in
// relay position. A server that cannot speak v2 degrades to the
// decoded batch stream — per request, so a mixed-version chain relays
// where it can and mirrors where it must.
func (b *Bridge) subscribeOne(req gateway.Request, opts gateway.StreamOptions) (*gateway.Stream, error) {
	if b.frameTarget != nil && gateway.PassThrough(req) && gateway.V2Format(b.opts.Format) {
		st, err := b.client.SubscribeFrameStream(req, opts, b.relay)
		if err == nil {
			return st, nil
		}
		if err != gateway.ErrV2Unsupported {
			return nil, err
		}
		// Fall through: upstream only speaks JSON-per-line.
	}
	return b.client.SubscribeBatchStream(req, opts, b.mirror)
}

// relay forwards one received wire frame into the frame target
// untouched except for the hop count, which lives in the frame header:
// bump + checksum patch, no record decode. A frame at the MaxHops
// limit drops whole — the header carries the deepest record's count,
// so the check is exact for that record and conservative for its
// batchmates — counted per record like mirror's loop drops.
func (b *Bridge) relay(f *gateway.Frame) {
	hops := f.Hops()
	if hops >= b.opts.MaxHops {
		b.loopDrops.Add(uint64(f.Count))
		return
	}
	f.SetHops(hops + 1)
	// Bump any in-frame trace attribute alongside the header hop. The
	// ordering matters for cost: SetHops already re-checksummed, and
	// BumpTrace re-checksums only when it actually patched, so the
	// common untraced frame pays one CRC pass plus a needle scan while
	// the rare sampled frame pays two.
	f.BumpTrace()
	tr := b.tracer.Load()
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	if err := b.frameTarget.PublishFrame(f); err != nil {
		// The target needed the records decoded and they were garbage;
		// counted here AND at the target, silent at neither.
		b.relayErrs.Add(1)
		return
	}
	b.relayedFrames.Add(1)
	b.mirrored.Add(uint64(f.Count))
	if tr != nil {
		d := time.Since(t0)
		tr.Observe("relay", d)
		if id, hop, ok := f.Trace(); ok {
			tr.Event(id, hop, f.Sensor, "relay", d)
		}
	}
}

// mirror republishes one received batch into the local target as a
// whole — one target fan-out per wire run instead of one per record —
// incrementing each record's hop count and dropping records at the
// MaxHops limit (counted, never silent).
func (b *Bridge) mirror(sensor string, recs []ulm.Record) {
	out := make([]ulm.Record, 0, len(recs))
	for i := range recs {
		hops := hopCount(recs[i])
		if hops >= b.opts.MaxHops {
			b.loopDrops.Add(1)
			continue
		}
		out = append(out, withHops(recs[i], hops+1))
	}
	if len(out) == 0 {
		return
	}
	tr := b.tracer.Load()
	var tid uint64
	var thop int
	traced := false
	var t0 time.Time
	if tr != nil {
		for i := range out {
			if id, hop, ok := bumpRecTrace(&out[i]); ok && !traced {
				tid, thop, traced = id, hop, true
			}
		}
		t0 = time.Now()
	}
	b.target.PublishBatch(b.opts.Prefix+sensor, out)
	b.mirrored.Add(uint64(len(out)))
	if tr != nil {
		d := time.Since(t0)
		tr.Observe("relay", d)
		if traced {
			tr.Event(tid, thop, sensor, "relay", d)
		}
	}
}

// bumpRecTrace increments a mirrored record's trace-attribute hop in
// place — the decoded-path analogue of Frame.BumpTrace, bumping
// exactly where withHops bumped JAMM.HOPS. Safe because withHops
// already gave the record its own field slice.
func bumpRecTrace(rec *ulm.Record) (id uint64, hop int, ok bool) {
	v, present := rec.Get(telemetry.TraceField)
	if !present {
		return 0, 0, false
	}
	if id, hop, ok = telemetry.ParseTrace(v); !ok {
		return 0, 0, false
	}
	hop++
	rec.Set(telemetry.TraceField, telemetry.FormatTrace(id, hop))
	return id, hop, true
}

func hopCount(rec ulm.Record) int {
	raw, ok := rec.Get(HopField)
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// withHops returns rec with its hop field set to n, leaving the
// caller's field slice untouched.
func withHops(rec ulm.Record, n int) ulm.Record {
	fields := make([]ulm.Field, len(rec.Fields), len(rec.Fields)+1)
	copy(fields, rec.Fields)
	for i := range fields {
		if fields[i].Key == HopField {
			fields[i].Value = strconv.Itoa(n)
			rec.Fields = fields
			return rec
		}
	}
	rec.Fields = append(fields, ulm.Field{Key: HopField, Value: strconv.Itoa(n)})
	return rec
}

func (b *Bridge) setStreams(streams []*gateway.Stream) {
	b.mu.Lock()
	b.streams = streams
	b.mu.Unlock()
}

func (b *Bridge) currentStreams() []*gateway.Stream {
	b.mu.Lock()
	streams := append([]*gateway.Stream(nil), b.streams...)
	b.mu.Unlock()
	return streams
}

// closeStreams tears down a subscribe round. Each stream's final
// counters are folded into the accumulated totals in the same critical
// section that drops it from the live set, so a concurrent Stats pass
// sees the stream on exactly one side of the ledger. Streams that were
// never published to the live set (a partially failed subscribe round)
// are accumulated the same way; their removal loop is a no-op.
func (b *Bridge) closeStreams(streams []*gateway.Stream) {
	for _, s := range streams {
		s.Close()
		<-s.Done() // final counter values are stable past Done
		b.mu.Lock()
		b.remoteDrops += s.RemoteDrops()
		b.decodeErrs += s.DecodeErrors()
		for i, o := range b.streams {
			if o == s {
				b.streams = append(append([]*gateway.Stream(nil), b.streams[:i]...), b.streams[i+1:]...)
				break
			}
		}
		b.mu.Unlock()
	}
}

// sleep waits d or until Close, reporting whether to continue.
func (b *Bridge) sleep(d time.Duration) bool {
	select {
	case <-b.done:
		return false
	case <-time.After(d):
		return true
	}
}
