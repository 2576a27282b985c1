// Package bus is the event-distribution core of the JAMM event plane:
// a sharded publish/subscribe fabric that the event gateway (§2.2-2.3),
// consumers, and archiver ride on. The paper's gateway exists to absorb
// consumer fan-out so sensor data is read once per host no matter how
// many consumers subscribe; this package makes that fan-out the fast
// path at scale:
//
//   - Subscriptions are indexed per topic (sensor name), so a publish
//     touches only the subscribers of that topic plus the (typically
//     small) wildcard set — never the full subscription table.
//   - Topics are hashed onto independent shards, each with its own
//     lock, so publishes for different sensors proceed in parallel.
//   - Batches are the native delivery unit: PublishBatch fans a whole
//     []Record out with one shard-lock acquisition, one subscriber
//     merge, and one callback per subscriber, and Publish is a
//     batch-of-one over the same path — there is exactly one delivery
//     implementation. Hooks still run per record, so delivery policies
//     (on-change, threshold) see every sample.
//   - A batch may also travel sealed: an encoded form (the gateway's
//     wire frame) the bus moves without looking inside. PublishSealed
//     hands the Sealed to the subscribers that asked for it
//     (SubscribeSealed — hookless by construction, since a hook needs
//     records) and the records the caller decoded from it to everyone
//     else, in the same id-ordered pass, so one index holds every
//     subscriber and a batch has one place to be delivered from. The
//     caller decodes only when NeedsRecords says somebody matched wants
//     records; a record subscriber that registers between that check
//     and the publish misses that one batch, a sealed one that does
//     still gets it.
//   - The steady-state delivery path is amortized zero-allocation: the
//     per-publish scratch (matched subscribers + filtered sub-batches)
//     is pooled, subscriber lists are kept in subscription-id order at
//     insert time (no per-publish sort), and counters are atomics.
//
// Batch ownership contract: record slices are always borrowed, never
// retained. PublishBatch may hand the caller's slice (or pooled
// sub-slices of it) directly to subscribers, so the caller must not
// mutate recs during the call, and a batch callback's slice is valid
// only until the callback returns — copy it to retain records. The
// records in a slice are values and may be copied out and kept; but
// records decoded from one wire frame share one string arena and one
// field slab (see package ulm), so anything that keeps a record longer
// than its batch calls Compact on it, or the one record keeps the whole
// frame's memory alive.
//
// Delivery contract: delivery runs on the publishing goroutine and
// completes before Publish, PublishBatch or PublishSealed returns, so
// the bus holds no record between calls. Matched subscribers are
// evaluated and delivered in subscription-id order (the merge of the
// topic list and the wildcard list, both id-sorted), a batch reaches
// each subscriber in record order, and callbacks run outside every bus
// lock, so they may re-enter the bus — subscribe, cancel, or publish.
// Single-goroutine callers — the virtual-time simulator — therefore
// observe byte-identical delivery interleaving run over run, which
// internal/core's determinism test depends on.
package bus

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jamm/internal/ulm"
)

// Decision is a subscription hook's verdict on one record.
type Decision int

const (
	// Deliver passes the record to the subscriber (the zero value, so
	// hookless subscriptions deliver everything).
	Deliver Decision = iota
	// Suppress withholds the record and counts it as suppressed — a
	// delivery policy (on-change, threshold) filtered it.
	Suppress
	// Skip withholds the record without counting it — the record is out
	// of the subscription's scope (event-type filter), not filtered.
	Skip
)

// Hook inspects a record before delivery and decides its fate. Hooks
// may keep per-subscription state (last value, threshold edge): the bus
// serializes hook invocations per subscription — under the shard lock
// for topic subscriptions, under the subscription's own lock for
// wildcard subscriptions — so that state needs no extra locking. On the
// batch path a hook runs once per record of the batch, in record order.
type Hook func(topic string, rec ulm.Record) Decision

// Stats counts bus traffic.
type Stats struct {
	// Published counts records entering the bus.
	Published uint64
	// Delivered counts records fanned out to subscribers.
	Delivered uint64
	// Suppressed counts records withheld by subscription hooks.
	Suppressed uint64
}

// Options configures a Bus.
type Options struct {
	// Shards is the number of topic shards, rounded up to a power of
	// two; 0 means DefaultShards. More shards mean less lock contention
	// between publishers of different sensors.
	Shards int
}

// DefaultShards is the default topic-shard count.
const DefaultShards = 32

// shard is one lock domain of the topic index. Padded so the struct is
// a whole cache line (64 bytes: 8 mutex + 8 map header + 48 pad) and
// neighboring shards in the array don't false-share under parallel
// publish.
type shard struct {
	mu     sync.Mutex
	topics map[string][]*Subscription // each list sorted by id
	_      [48]byte
}

// Bus is a sharded publish/subscribe core. It is safe for concurrent
// use.
type Bus struct {
	shards []shard
	mask   uint32

	nextID atomic.Uint64

	// wildcard is a copy-on-write snapshot (sorted by id) of the
	// subscriptions matching every topic; publishes load it without
	// locking, wmu serializes writers.
	wmu      sync.Mutex
	wildcard atomic.Pointer[[]*Subscription]

	published  atomic.Uint64
	delivered  atomic.Uint64
	suppressed atomic.Uint64

	// deliverObs, when set (SetDeliverObserver), is called after every
	// deliverBatch of records with the batch size and the time the
	// delivery pass took — the telemetry plane's bus-stage latency tap. Disabled, the
	// hot path pays one atomic load.
	deliverObs atomic.Pointer[func(recs int, d time.Duration)]
}

// New returns an empty bus.
func New(opts Options) *Bus {
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
	}
	// Round up to a power of two so shard selection is a mask.
	size := 1
	for size < n {
		size <<= 1
	}
	b := &Bus{shards: make([]shard, size), mask: uint32(size - 1)}
	for i := range b.shards {
		b.shards[i].topics = make(map[string][]*Subscription)
	}
	return b
}

// HashTopic is the bus's topic hash (FNV-1a). Exported so layers that
// co-shard their own per-sensor state can align with the bus.
func HashTopic(topic string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(topic); i++ {
		h ^= uint32(topic[i])
		h *= 16777619
	}
	return h
}

func (b *Bus) shard(topic string) *shard {
	return &b.shards[HashTopic(topic)&b.mask]
}

// Shards returns the shard count.
func (b *Bus) Shards() int { return len(b.shards) }

// NeedsRecords reports whether any subscriber a publish of topic would
// match takes records rather than the sealed form — a plain or hooked
// subscription, a tap, a wildcard or matching prefix observer. It is
// the predicate the gateway's zero-copy frame relay uses to decide
// whether a received frame must be decoded at all: one atomic load and
// a scan of the (typically tiny) wildcard set plus, when that settles
// nothing, the topic's own list under its shard lock. Subscriptions to
// other topics cost nothing.
func (b *Bus) NeedsRecords(topic string) bool {
	for _, s := range b.loadWildcard() {
		if s.fnS == nil && (!s.prefix || strings.HasPrefix(topic, s.topic)) {
			return true
		}
	}
	sh := b.shard(topic)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, s := range sh.topics[topic] {
		if s.fnS == nil {
			return true
		}
	}
	return false
}

// ShardOf returns the shard index a topic routes to.
func (b *Bus) ShardOf(topic string) int { return int(HashTopic(topic) & b.mask) }

// Stats returns a snapshot of the traffic counters.
func (b *Bus) Stats() Stats {
	return Stats{
		Published:  b.published.Load(),
		Delivered:  b.delivered.Load(),
		Suppressed: b.suppressed.Load(),
	}
}

// SetDeliverObserver installs (or, with nil, removes) a callback run
// after every delivery pass that carries records (not one that only
// hands a sealed batch on) with the batch size and the pass duration —
// the telemetry plane's bus-stage latency tap. The observer runs on
// publishing goroutines and must be cheap and non-blocking (a histogram
// observe, not I/O).
func (b *Bus) SetDeliverObserver(fn func(recs int, d time.Duration)) {
	if fn == nil {
		b.deliverObs.Store(nil)
		return
	}
	b.deliverObs.Store(&fn)
}

// Subscription is one subscriber's registration on the bus.
type Subscription struct {
	id    uint64
	bus   *Bus
	topic string
	// prefix marks a topic-prefix subscription: topic is a prefix and
	// the subscription matches every topic under it. Prefix
	// subscriptions live in the wildcard set (they cannot be indexed
	// per topic) and are filtered at delivery time.
	prefix bool
	hook   Hook
	// fnB is the delivery callback — every subscription delivers
	// batches. The single-record Subscribe entry point wraps its callback
	// in a record loop at subscribe time, so the publish path has exactly
	// one delivery shape for records.
	fnB func(topic string, recs []ulm.Record)
	// fnS is set on SubscribeSealed subscriptions: a sealed publish
	// reaches them through it, undecoded.
	fnS func(topic string, recs []ulm.Record, s Sealed)
	// silent marks an observer (TapBatch): it receives records but never
	// touches delivery counters.
	silent bool

	// mu serializes hook invocations for wildcard subscriptions, whose
	// publishes arrive from every shard concurrently.
	mu sync.Mutex

	cancelled  atomic.Bool
	delivered  atomic.Uint64
	suppressed atomic.Uint64
}

// ID returns the subscription id; lower ids are delivered first.
func (s *Subscription) ID() uint64 { return s.id }

// Topic returns the subscribed topic ("" = wildcard).
func (s *Subscription) Topic() string { return s.topic }

// Counts returns how many records were delivered and suppressed.
func (s *Subscription) Counts() (delivered, suppressed uint64) {
	return s.delivered.Load(), s.suppressed.Load()
}

// Subscribe registers a subscriber for one topic ("" subscribes to
// every topic). hook may be nil (deliver everything); fn receives each
// delivered record outside all bus locks, so it may call back into the
// bus, publishing included. Subscribe is an adapter over the batch
// delivery path: fn is invoked once per record of each delivered
// batch, in record order.
func (b *Bus) Subscribe(topic string, hook Hook, fn func(ulm.Record)) *Subscription {
	s := &Subscription{id: b.nextID.Add(1), bus: b, topic: topic, hook: hook,
		fnB: func(_ string, recs []ulm.Record) {
			for i := range recs {
				fn(recs[i])
			}
		}}
	b.insert(s)
	return s
}

// SubscribeBatch registers a batch subscriber: fn receives each
// delivered batch as one slice — one callback, one lock-free handoff
// per batch regardless of batch size. The slice is only valid for the
// duration of the call (it may be the publisher's own slice or pooled
// scratch); copy it to retain records. A hooked subscription receives
// the sub-batch of records its hook delivered, in record order.
func (b *Bus) SubscribeBatch(topic string, hook Hook, fn func(recs []ulm.Record)) *Subscription {
	s := &Subscription{id: b.nextID.Add(1), bus: b, topic: topic, hook: hook,
		fnB: func(_ string, recs []ulm.Record) { fn(recs) }}
	b.insert(s)
	return s
}

// SubscribeBatchTopics is SubscribeBatch with a topic-aware callback —
// the form batch transports (wire subscribe streams, bridges) consume.
// All records of one callback share the topic.
func (b *Bus) SubscribeBatchTopics(topic string, hook Hook, fn func(topic string, recs []ulm.Record)) *Subscription {
	s := &Subscription{id: b.nextID.Add(1), bus: b, topic: topic, hook: hook, fnB: fn}
	b.insert(s)
	return s
}

// SubscribeBatchTopicsPrefix is SubscribeBatchTopics scoped to a topic
// prefix: fn receives every delivered batch of every topic starting
// with prefix — the one-subscription form consumers of a synthetic
// topic family (the gateway's `_agg/...` aggregate topics) use instead
// of naming each member. An empty prefix is a plain wildcard. Prefix
// subscriptions ride the wildcard set, so they share its delivery
// order (global subscription-id order) and its cost model: every
// publish scans them, paying one prefix comparison for topics outside
// the prefix.
func (b *Bus) SubscribeBatchTopicsPrefix(prefix string, hook Hook, fn func(topic string, recs []ulm.Record)) *Subscription {
	s := &Subscription{id: b.nextID.Add(1), bus: b, topic: prefix, prefix: prefix != "", hook: hook, fnB: fn}
	b.insert(s)
	return s
}

// Sealed is a batch of one topic's records in an encoded form the bus
// moves without looking inside — the gateway's wire frame. A Sealed
// handed to a callback or to PublishSealed is borrowed: valid until the
// call returns. Whatever keeps it longer keeps what Hold returns, a
// counted reference to the same bytes, and gives it up with Release.
type Sealed interface {
	// Len returns the number of records in the batch.
	Len() int
	// Hold returns a new reference to the batch, valid until its Release.
	Hold() Sealed
	// Release gives up a reference Hold returned.
	Release()
}

// SubscribeSealed registers a subscriber that takes batches sealed:
// what PublishSealed publishes reaches fn as s with recs nil, what
// Publish and PublishBatch publish as recs with s nil. Both are
// borrowed — copy recs, Hold s, to keep them past the call. There is no
// hook, since a hook needs records. topic "" subscribes to every topic.
func (b *Bus) SubscribeSealed(topic string, fn func(topic string, recs []ulm.Record, s Sealed)) *Subscription {
	s := &Subscription{id: b.nextID.Add(1), bus: b, topic: topic, fnS: fn,
		fnB: func(t string, recs []ulm.Record) { fn(t, recs, nil) }}
	b.insert(s)
	return s
}

// TapBatch registers a silent batch observer: tap receives every
// published batch of the topic ("" = every topic) in one call, outside
// the bus locks, without affecting delivery counters. The gateway's
// summary folding rides this — one tap invocation (and one state lock)
// per batch instead of per record. The tap runs where deliveries
// do (outside the shard lock), so concurrent publishers of one topic
// may invoke it concurrently; taps carrying state must lock.
func (b *Bus) TapBatch(topic string, tap func(topic string, recs []ulm.Record)) *Subscription {
	s := &Subscription{id: b.nextID.Add(1), bus: b, topic: topic, silent: true, fnB: tap}
	b.insert(s)
	return s
}

// insert adds s to the topic index. Ids are monotonic, so appending
// keeps every list sorted by id.
func (b *Bus) insert(s *Subscription) {
	if s.topic == "" || s.prefix {
		b.wmu.Lock()
		old := b.loadWildcard()
		next := make([]*Subscription, len(old)+1)
		copy(next, old)
		next[len(old)] = s
		b.wildcard.Store(&next)
		b.wmu.Unlock()
		return
	}
	sh := b.shard(s.topic)
	sh.mu.Lock()
	sh.topics[s.topic] = append(sh.topics[s.topic], s)
	sh.mu.Unlock()
}

func (b *Bus) loadWildcard() []*Subscription {
	if p := b.wildcard.Load(); p != nil {
		return *p
	}
	return nil
}

// Cancel removes the subscription and reports whether this call did the
// removal (false if already cancelled). A record matched concurrently
// with Cancel may still be delivered once.
func (s *Subscription) Cancel() bool {
	if s == nil || !s.cancelled.CompareAndSwap(false, true) {
		return false
	}
	b := s.bus
	if s.topic == "" || s.prefix {
		b.wmu.Lock()
		old := b.loadWildcard()
		next := make([]*Subscription, 0, len(old))
		for _, o := range old {
			if o != s {
				next = append(next, o)
			}
		}
		b.wildcard.Store(&next)
		b.wmu.Unlock()
		return true
	}
	sh := b.shard(s.topic)
	sh.mu.Lock()
	list := sh.topics[s.topic]
	for i, o := range list {
		if o == s {
			copy(list[i:], list[i+1:])
			list[len(list)-1] = nil
			list = list[:len(list)-1]
			break
		}
	}
	if len(list) == 0 {
		delete(sh.topics, s.topic)
	} else {
		sh.topics[s.topic] = list
	}
	sh.mu.Unlock()
	return true
}

// matchEntry carries one matched subscriber from the locked evaluation
// phase to the unlocked delivery phase, together with what of the batch
// it receives: the filtered sub-batch scratch.filtered[off:off+n] its
// hook delivered (the zero shape), the whole batch as records, or the
// whole batch sealed.
type matchEntry struct {
	sub   *Subscription
	shape uint8
	off   int
	n     int
}

const (
	whole uint8 = iota + 1
	wholeSealed
)

// pubScratch is the pooled per-publish scratch that keeps the
// steady-state delivery path allocation-free at any fan-out and batch
// size: the matched-subscriber list, the filtered-record arena
// (sub-batches are ranges into it, so growth never invalidates them),
// and the one-record array backing single-record publishes.
type pubScratch struct {
	one      [1]ulm.Record
	entries  []matchEntry
	filtered []ulm.Record
}

var scratchPool = sync.Pool{
	New: func() any {
		return &pubScratch{entries: make([]matchEntry, 0, 64)}
	},
}

// release clears the scratch's subscription pointers and filtered
// records (so pooled memory cannot keep cancelled subscriptions or a
// large batch's records alive) and returns it to the pool. one[0] is
// deliberately not zeroed: it retains at most a single record per
// pooled scratch and is overwritten by the next single-record publish.
func (sp *pubScratch) release() {
	clear(sp.entries)
	sp.entries = sp.entries[:0]
	clear(sp.filtered)
	sp.filtered = sp.filtered[:0]
	scratchPool.Put(sp)
}

// Publish feeds one record to every matching subscriber; delivery
// completes before Publish returns, in subscription-id order. Publish is
// a batch-of-one over the batch delivery path.
func (b *Bus) Publish(topic string, rec ulm.Record) {
	// A batch of one through the one delivery implementation; the
	// record travels by reference so the no-subscriber fast path never
	// copies it (it is copied into pooled scratch only once a
	// subscriber exists).
	b.deliverBatch(topic, nil, &rec, nil)
}

// PublishBatch feeds a batch of records of one topic to every matching
// subscriber with one lock acquisition, one subscriber merge, and one
// callback per subscriber. recs is borrowed: the bus may hand it (or
// pooled sub-slices) directly to subscribers during the call and never
// retains it afterwards. Delivery completes before PublishBatch returns:
// subscribers see the batch in subscription-id order, each receiving its
// delivered records in record order.
//
// The borrow contract is machine-checked: the borrowshare analyzer
// (`go run ./cmd/jammlint ./...`) flags any receiver that stores,
// sends, or goroutine-captures a borrowed slice without copying it
// first (deliberate exceptions carry //jamm:borrow-ok <why>).
func (b *Bus) PublishBatch(topic string, recs []ulm.Record) {
	if len(recs) == 0 {
		return
	}
	b.deliverBatch(topic, recs, nil, nil)
}

// PublishSealed feeds one sealed batch of topic to every matching
// subscriber: SubscribeSealed subscribers receive sealed itself,
// everyone else recs — the same batch, decoded by the caller, or nil
// when NeedsRecords(topic) said nobody wants records. Both are borrowed,
// and delivery completes before PublishSealed returns, in
// subscription-id order and in publish order with the topic's other
// batches.
func (b *Bus) PublishSealed(topic string, sealed Sealed, recs []ulm.Record) {
	b.deliverBatch(topic, recs, nil, sealed)
}

// deliverBatch is the one delivery implementation: evaluate hooks under
// the shard lock (and per-subscription locks for wildcards), building
// each subscriber's sub-batch, then deliver outside all locks so
// callbacks may re-enter the bus. The batch is recs, or the one record
// in *single (materialized into pooled scratch only once a subscriber
// exists), or sealed — with recs its decoded form, nil when the
// publisher did not decode it, in which case only sealed subscribers
// are served.
func (b *Bus) deliverBatch(topic string, recs []ulm.Record, single *ulm.Record, sealed Sealed) {
	n := len(recs)
	if single != nil {
		n = 1
	} else if sealed != nil {
		n = sealed.Len()
	}
	b.published.Add(uint64(n))
	if obs := b.deliverObs.Load(); obs != nil && (single != nil || len(recs) > 0) {
		// The defer covers both the no-subscriber early return and the
		// normal exit. A pass that only hands a sealed batch on is not
		// timed: two clock reads would double what it costs.
		t0 := time.Now()
		defer func() { (*obs)(n, time.Since(t0)) }()
	}
	wild := b.loadWildcard()
	sh := b.shard(topic)
	sh.mu.Lock()
	tsubs := sh.topics[topic]
	if len(tsubs) == 0 && len(wild) == 0 {
		sh.mu.Unlock()
		return
	}
	sp := scratchPool.Get().(*pubScratch)
	if single != nil {
		sp.one[0] = *single
		recs = sp.one[:1]
	}
	entries := sp.entries[:0]
	filtered := sp.filtered[:0]
	// Merge the two id-sorted lists so hooks run and deliveries happen
	// in global subscription-id order — the determinism contract.
	i, j := 0, 0
	for i < len(tsubs) || j < len(wild) {
		var s *Subscription
		isWild := false
		if j >= len(wild) || (i < len(tsubs) && tsubs[i].id < wild[j].id) {
			s = tsubs[i]
			i++
		} else {
			s = wild[j]
			j++
			isWild = true
			// A prefix subscription rides the wildcard list but matches
			// only topics under its prefix; skipping preserves the
			// id-ordered merge.
			if s.prefix && !strings.HasPrefix(topic, s.topic) {
				continue
			}
		}
		shape := whole
		if sealed != nil && s.fnS != nil {
			shape = wholeSealed
		} else if len(recs) == 0 {
			continue // wants records of a batch nobody decoded
		}
		if s.hook == nil {
			if !s.silent {
				s.delivered.Add(uint64(n))
				b.delivered.Add(uint64(n))
			}
			entries = append(entries, matchEntry{sub: s, shape: shape})
			continue
		}
		// Hooked subscription: evaluate per record, collecting the
		// delivered sub-batch.
		off := len(filtered)
		nsup := 0
		if isWild {
			s.mu.Lock()
		}
		for k := range recs {
			switch s.hook(topic, recs[k]) { //jamm:lock-ok hook-under-shard-lock is the documented delivery contract (see Subscription docs); hooks must be non-blocking
			case Deliver:
				filtered = append(filtered, recs[k])
			case Suppress:
				nsup++
			}
		}
		if isWild {
			s.mu.Unlock()
		}
		ndel := len(filtered) - off
		if !s.silent {
			if ndel > 0 {
				s.delivered.Add(uint64(ndel))
				b.delivered.Add(uint64(ndel))
			}
			if nsup > 0 {
				s.suppressed.Add(uint64(nsup))
				b.suppressed.Add(uint64(nsup))
			}
		}
		switch {
		case ndel == 0:
		case ndel == len(recs):
			// Every record delivered: hand the original batch, reclaim
			// the scratch copies.
			filtered = filtered[:off]
			entries = append(entries, matchEntry{sub: s, shape: whole})
		default:
			entries = append(entries, matchEntry{sub: s, off: off, n: ndel})
		}
	}
	sp.entries = entries
	sp.filtered = filtered
	sh.mu.Unlock()
	for k := range entries {
		switch e := &entries[k]; e.shape {
		case wholeSealed:
			e.sub.fnS(topic, nil, sealed)
		case whole:
			e.sub.fnB(topic, recs)
		default:
			e.sub.fnB(topic, filtered[e.off:e.off+e.n])
		}
	}
	sp.release()
}
