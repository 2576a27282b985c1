package bus

import "jamm/internal/ulm"

// asyncItem is one queued publish — a single record, a batch (recs
// non-nil, owned by the queue), a sealed batch (a held reference the
// worker releases after delivery, beside recs, its decoded form or nil),
// or a flush barrier token when flush is non-nil.
type asyncItem struct {
	topic  string
	rec    ulm.Record
	recs   []ulm.Record
	sealed Sealed
	flush  chan<- struct{}
}

// asyncCoalesceMax is the ceiling on how many queued records a worker
// folds into one delivered batch. Large enough to amortize the
// per-batch lock and merge cost at fan-out, small enough that one
// topic's storm cannot monopolize a worker for unbounded stretches.
// The actual batch size is adaptive: each delivery is sized to the
// backlog present when it starts (see drain), so an idle bus delivers
// single records at minimum latency and a backlogged one approaches
// the ceiling.
const asyncCoalesceMax = 256

// StartAsync switches the bus into batched asynchronous mode: Publish
// and PublishBatch enqueue onto a bounded per-shard queue (blocking
// when full — bounded memory with backpressure, never silent drops)
// and a worker goroutine per shard drains it through the batch
// delivery path, coalescing queued records of the same topic into one
// delivered batch (up to asyncCoalesceMax records). Per-topic publish
// order is preserved (a topic always routes to the same shard queue,
// and coalescing folds runs in queue order); cross-topic interleaving
// is not, so deterministic single-goroutine deployments — the
// virtual-time simulator — must stay in synchronous mode. No-op if
// async mode is already running.
func (b *Bus) StartAsync(queueLen int) {
	if queueLen <= 0 {
		queueLen = 1024
	}
	b.asyncMu.Lock()
	defer b.asyncMu.Unlock()
	if b.queues.Load() != nil {
		return
	}
	qs := make([]chan asyncItem, len(b.shards))
	for i := range qs {
		qs[i] = make(chan asyncItem, queueLen)
	}
	b.workers.Add(len(qs))
	for i := range qs {
		go b.drain(qs[i])
	}
	b.queues.Store(&qs)
}

// drain delivers one shard queue. It coalesces consecutive same-topic
// records into one batch per delivery, stopping a batch at a topic
// change, a flush token, a sealed batch (delivered alone, as it was
// published), or its adaptive target — so the Flush barrier still means
// "everything enqueued before the token has been delivered", and
// per-topic order is untouched.
//
// The target is the live backlog observed when the batch starts
// (clamped to the asyncCoalesceMax ceiling), not the ceiling itself:
// a lightly loaded queue delivers small batches immediately instead of
// greedily absorbing records that arrive during its own delivery
// window, which bounds the first queued record's latency and keeps a
// continuous publisher from pinning the worker at the cap. Chosen
// sizes are observable in Stats (AsyncBatches / AsyncBatchRecords /
// AsyncMaxBatch).
func (b *Bus) drain(q chan asyncItem) {
	defer b.workers.Done()
	var buf []ulm.Record
	var pending asyncItem
	havePending := false
	for {
		var it asyncItem
		if havePending {
			it, havePending = pending, false
		} else {
			var ok bool
			if it, ok = <-q; !ok {
				return
			}
		}
		if it.flush != nil {
			it.flush <- struct{}{}
			continue
		}
		if it.sealed != nil {
			b.noteAsyncBatch(it.sealed.Len())
			b.deliverBatch(it.topic, it.recs, nil, it.sealed)
			it.sealed.Release()
			continue
		}
		buf = buf[:0]
		if it.recs != nil {
			buf = append(buf, it.recs...)
		} else {
			buf = append(buf, it.rec)
		}
		// Adaptive coalescing: size this delivery to the backlog that
		// exists now. len(q) counts queued items (a floor on records —
		// an item may carry a whole batch), so the target tracks the
		// backlog without scanning it.
		target := len(buf) + len(q)
		if target > asyncCoalesceMax {
			target = asyncCoalesceMax
		}
		closed := false
	coalesce:
		for len(buf) < target {
			select {
			case next, ok := <-q:
				if !ok {
					closed = true
					break coalesce
				}
				if next.flush != nil || next.sealed != nil || next.topic != it.topic {
					// A barrier, a sealed batch or another topic: deliver
					// what we have first, then handle it, preserving queue
					// order.
					pending, havePending = next, true
					break coalesce
				}
				if next.recs != nil {
					buf = append(buf, next.recs...)
				} else {
					buf = append(buf, next.rec)
				}
			default:
				break coalesce
			}
		}
		b.noteAsyncBatch(len(buf))
		b.deliverBatch(it.topic, buf, nil, nil)
		if closed {
			return
		}
	}
}

// noteAsyncBatch records one async delivery's chosen batch size.
func (b *Bus) noteAsyncBatch(n int) {
	b.asyncBatches.Add(1)
	b.asyncBatchRecs.Add(uint64(n))
	for {
		max := b.asyncMaxBatch.Load()
		if uint64(n) <= max || b.asyncMaxBatch.CompareAndSwap(max, uint64(n)) {
			return
		}
	}
}

// Flush is the drain barrier: it blocks until every record enqueued
// before the call has been delivered. No-op in synchronous mode. Like
// Publish, Flush must not race StopAsync (it could otherwise send its
// barrier token on a closed queue).
func (b *Bus) Flush() {
	qp := b.queues.Load()
	if qp == nil {
		return
	}
	qs := *qp
	done := make(chan struct{}, len(qs))
	for _, q := range qs {
		q <- asyncItem{flush: done}
	}
	for range qs {
		<-done
	}
}

// StopAsync drains the queues, stops the workers, and returns the bus
// to synchronous mode. Callers must ensure no Publish races StopAsync
// (a publish observing async mode could otherwise send on a closed
// queue); quiesce publishers or Flush first.
func (b *Bus) StopAsync() {
	b.asyncMu.Lock()
	qp := b.queues.Load()
	if qp == nil {
		b.asyncMu.Unlock()
		return
	}
	b.queues.Store(nil)
	b.asyncMu.Unlock()
	for _, q := range *qp {
		close(q)
	}
	b.workers.Wait()
}

// Async reports whether the bus is in asynchronous mode.
func (b *Bus) Async() bool { return b.queues.Load() != nil }
