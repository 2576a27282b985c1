package boundq

import (
	"slices"
	"sync"
	"testing"
)

// item is a test delivery: n records, and a shared counter of how many
// times a borrowed item was made owned.
type item struct {
	id, n int
	owned *int
	pin   *[64]byte // something a stale slot would keep alive
}

func (it item) Records() int { return it.n }

func (it item) Own() item {
	if it.owned != nil {
		*it.owned++
	}
	return it
}

func ids(items []item) []int {
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = it.id
	}
	return out
}

// The budget counts records, not items; what it refuses is refused
// without being made owned, and order is FIFO.
func TestPushShedsAtRecordBudget(t *testing.T) {
	owned := 0
	q := New[item](10)
	for i, tc := range []struct {
		n    int
		want bool
	}{{4, true}, {6, true}, {1, false}, {3, false}} {
		if got := q.Push(item{id: i, n: tc.n, owned: &owned}); got != tc.want {
			t.Fatalf("push %d (%d records) = %v, want %v", i, tc.n, got, tc.want)
		}
	}
	if owned != 2 {
		t.Fatalf("Own ran %d times, want 2: only admitted items are converted", owned)
	}
	if b := q.Backlog(); b != 10 {
		t.Fatalf("Backlog = %d, want 10", b)
	}
	if got := ids(q.PopAll(nil)); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("took %v, want [0 1]", got)
	}
	// Taken records no longer count against the budget.
	if !q.Push(item{id: 9, n: 10}) {
		t.Fatal("push refused although nothing is queued")
	}
}

// An empty queue admits an item bigger than the whole budget; while it
// sits queued nothing else gets in, and once it is taken the queue
// admits again — backpressure, not starvation.
func TestPushOvershootsOnlyIntoEmptyQueue(t *testing.T) {
	q := New[item](8)
	if !q.Push(item{id: 1, n: 32}) {
		t.Fatal("oversized item shed by an empty queue")
	}
	if q.Push(item{id: 2, n: 1}) {
		t.Fatal("item admitted behind the overshoot")
	}
	if got := ids(q.PopAll(nil)); !slices.Equal(got, []int{1}) {
		t.Fatalf("took %v, want [1]", got)
	}
	if !q.Push(item{id: 3, n: 32}) {
		t.Fatal("second oversized item shed although the queue had emptied")
	}
}

// Backlog counts what is queued plus what the consumer holds, and only
// Settle lets go of the latter: it never reads zero between PopAll and
// Settle.
func TestBacklogHoldsUntilSettle(t *testing.T) {
	q := New[item](100)
	q.Push(item{n: 3})
	q.Push(item{n: 4})
	items := q.PopAll(nil)
	if len(items) != 2 || q.Backlog() != 7 {
		t.Fatalf("after PopAll: %d items, Backlog %d; want 2 and 7", len(items), q.Backlog())
	}
	q.Push(item{n: 5})
	if b := q.Backlog(); b != 12 {
		t.Fatalf("Backlog = %d, want 12 (7 taken + 5 queued)", b)
	}
	q.Settle()
	if b := q.Backlog(); b != 5 {
		t.Fatalf("Backlog after Settle = %d, want 5", b)
	}
	q.PopAll(items)
	q.Settle()
	if b := q.Backlog(); b != 0 {
		t.Fatalf("Backlog = %d, want 0", b)
	}
}

// PopAll swaps arrays with the consumer: the spare it is handed comes
// back zeroed (a drained queue pins nothing the consumer is done with)
// and is the array the next pushes fill, so the steady state allocates
// nothing.
func TestPopAllSwapsSpareAndPinsNothing(t *testing.T) {
	q := New[item](100)
	q.Push(item{id: 1, n: 1, pin: new([64]byte)})
	q.Push(item{id: 2, n: 1, pin: new([64]byte)})
	first := q.PopAll(nil)
	q.Push(item{id: 3, n: 1})
	second := q.PopAll(first)
	for i, it := range first[:2] {
		if it.pin != nil || it.id != 0 {
			t.Fatalf("spare slot %d still holds %+v after PopAll", i, it)
		}
	}
	if got := ids(second); !slices.Equal(got, []int{3}) {
		t.Fatalf("took %v, want [3]", got)
	}
	q.Push(item{id: 4, n: 1})
	if &first[:1][0] != &q.PopAll(second)[0] {
		t.Fatal("the spare did not become the queue's array")
	}
	var burst []item
	if n := testing.AllocsPerRun(100, func() {
		q.Push(item{n: 1})
		q.Push(item{n: 1})
		burst = q.PopAll(burst)
		q.Settle()
	}); n != 0 {
		t.Fatalf("steady-state push/pop allocates %v per run", n)
	}
}

// The ready token is there whenever something may be queued, however
// many pushes raced in, and a consumer that drains on it misses nothing.
func TestReadyNeverMissesAnItem(t *testing.T) {
	const producers, each = 4, 500
	q := New[item](producers * each)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if !q.Push(item{n: 1}) {
					t.Error("push refused under budget")
					return
				}
			}
		}()
	}
	got := 0
	var burst []item
	for got < producers*each {
		<-q.Ready()
		burst = q.PopAll(burst)
		got += len(burst)
		q.Settle()
	}
	wg.Wait()
	if q.Backlog() != 0 {
		t.Fatalf("Backlog = %d after draining everything", q.Backlog())
	}
}

// Close hands back what is still queued, for the owner to release; a
// push that reaches the closed queue is discarded — reported admitted,
// never made owned, never queued.
func TestCloseReturnsQueuedAndDiscardsLaterPushes(t *testing.T) {
	owned := 0
	q := New[item](10)
	q.Push(item{id: 1, n: 2, owned: &owned})
	q.Push(item{id: 2, n: 2, owned: &owned})
	if got := ids(q.Close()); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("Close returned %v, want [1 2]", got)
	}
	if !q.Push(item{id: 3, n: 2, owned: &owned}) {
		t.Fatal("push after Close reported a shed; the consumer is gone, not slow")
	}
	if owned != 2 {
		t.Fatalf("Own ran %d times, want 2: nothing is converted after Close", owned)
	}
	if q.Backlog() != 0 || len(q.PopAll(nil)) != 0 || len(q.Close()) != 0 {
		t.Fatal("closed queue still holds something")
	}
}
