// Package boundq is the site's one bounded record queue: the buffer
// between a publish path that must never block and a consumer that may
// be slow — a wire subscription's writer, a replica link's publisher.
// What the budget bounds is buffered RECORDS, not items, so a slow
// consumer pins bounded memory no matter how traffic is framed; what
// the budget refuses is the caller's to count (jammlint's dropcount
// checks every `if !q.Push(...)`), never silently lost.
package boundq

import "sync"

// Item is one queued delivery.
type Item[T any] interface {
	// Records is what the item counts against the record budget.
	Records() int
	// Own turns a borrowed item into one the queue may hold: a reference
	// taken, a slice copied. It runs only when the item is admitted, under
	// the queue's lock, so a refused push costs nothing.
	Own() T
}

// Queue is a record-budgeted FIFO. Push never blocks; one consumer
// selects on Ready, takes everything with PopAll and calls Settle once
// what it took has left its hands.
type Queue[T Item[T]] struct {
	mu     sync.Mutex
	items  []T
	recs   int // records queued, counted against budget
	taken  int // records taken and not yet settled: in the consumer's hands
	budget int
	closed bool
	ready  chan struct{}
}

// New returns a queue admitting up to budget records.
func New[T Item[T]](budget int) *Queue[T] {
	return &Queue[T]{budget: budget, ready: make(chan struct{}, 1)}
}

// Budget returns the record budget.
func (q *Queue[T]) Budget() int { return q.budget }

// Ready holds a token whenever items may be queued, so a consumer
// selecting on it beside its timer and shutdown signals never misses an
// item.
func (q *Queue[T]) Ready() <-chan struct{} { return q.ready }

// Push admits one borrowed delivery, reporting whether the record
// budget allowed it. An empty queue admits unconditionally — an item may
// legally carry more records than the whole budget (a relayed frame of
// 4096 against a wire depth of 256), and a strict check would shed every
// such item forever instead of applying slow-consumer backpressure. The
// overshoot is bounded at one item: while it sits queued, the budget is
// exceeded and nothing else is admitted. What reaches a closed queue,
// from a publish under way when its consumer went away, is discarded.
func (q *Queue[T]) Push(it T) bool {
	n := it.Records()
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return true
	}
	if q.recs > 0 && q.recs+n > q.budget {
		q.mu.Unlock()
		return false
	}
	q.items = append(q.items, it.Own())
	q.recs += n
	q.mu.Unlock()
	select {
	case q.ready <- struct{}{}:
	default:
	}
	return true
}

// PopAll takes everything queued, oldest first; the items are now the
// consumer's. It trades for spare, the previous take: zeroed, so a
// drained queue pins nothing, it becomes the array the next pushes fill,
// and the two swap from then on without allocating. The records move
// from the budget to the consumer's hands in the same critical section,
// so Backlog never reads zero while a taken record is unsettled.
func (q *Queue[T]) PopAll(spare []T) []T {
	clear(spare)
	q.mu.Lock()
	items := q.items
	q.items = spare[:0]
	q.taken += q.recs
	q.recs = 0
	q.mu.Unlock()
	return items
}

// Settle records that everything taken so far has left the consumer's
// hands (written out, or counted as lost).
func (q *Queue[T]) Settle() {
	q.mu.Lock()
	q.taken = 0
	q.mu.Unlock()
}

// Backlog returns the records queued or in the consumer's hands.
func (q *Queue[T]) Backlog() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.recs + q.taken
}

// Close admits nothing more and returns what is still queued, for the
// caller to release or ship.
func (q *Queue[T]) Close() []T {
	q.mu.Lock()
	items := q.items
	q.items, q.recs, q.closed = nil, 0, true
	q.mu.Unlock()
	return items
}
