package bus

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jamm/internal/ulm"
)

func recN(event string, n int) ulm.Record {
	r := rec(event)
	r.Fields = []ulm.Field{{Key: "SEQ", Value: fmt.Sprint(n)}}
	return r
}

func batchOf(n int) []ulm.Record {
	recs := make([]ulm.Record, n)
	for i := range recs {
		recs[i] = recN("E", i)
	}
	return recs
}

// PublishBatch must deliver to subscribers in subscription-id order —
// the same determinism contract as single-record publish — with each
// subscriber (batch or single-record adapter) seeing its records in
// record order.
func TestPublishBatchDeliversInIDOrder(t *testing.T) {
	b := New(Options{})
	var order []string
	note := func(tag string) { order = append(order, tag) }
	b.Subscribe("cpu", nil, func(r ulm.Record) { note("1single") })
	b.SubscribeBatch("", nil, func(recs []ulm.Record) { note(fmt.Sprintf("2wildbatch:%d", len(recs))) })
	b.SubscribeBatchTopics("cpu", nil, func(topic string, recs []ulm.Record) {
		note(fmt.Sprintf("3batch:%s:%d", topic, len(recs)))
	})
	b.Subscribe("", nil, func(r ulm.Record) { note("4wildsingle") })
	b.PublishBatch("cpu", batchOf(3))
	want := []string{
		"1single", "1single", "1single",
		"2wildbatch:3",
		"3batch:cpu:3",
		"4wildsingle", "4wildsingle", "4wildsingle",
	}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// A hooked batch subscription receives exactly the records its hook
// delivered, in record order, and the delivered/suppressed counters
// count per record.
func TestBatchHooksFilterSubBatches(t *testing.T) {
	b := New(Options{})
	evenOnly := func(_ string, r ulm.Record) Decision {
		v, _ := r.Get("SEQ")
		var n int
		fmt.Sscan(v, &n) //nolint:errcheck
		if n%2 == 0 {
			return Deliver
		}
		return Suppress
	}
	var got []string
	sub := b.SubscribeBatch("cpu", evenOnly, func(recs []ulm.Record) {
		for i := range recs {
			v, _ := recs[i].Get("SEQ")
			got = append(got, v)
		}
	})
	// A hookless full-batch subscriber beside it, to cover both the
	// filtered-scratch and whole-batch delivery shapes in one publish.
	var full int
	b.SubscribeBatch("cpu", nil, func(recs []ulm.Record) { full += len(recs) })
	b.PublishBatch("cpu", batchOf(5))
	if len(got) != 3 || got[0] != "0" || got[1] != "2" || got[2] != "4" {
		t.Fatalf("filtered sub-batch = %v", got)
	}
	if full != 5 {
		t.Fatalf("full subscriber got %d records", full)
	}
	d, s := sub.Counts()
	if d != 3 || s != 2 {
		t.Fatalf("counts = %d/%d, want 3/2", d, s)
	}
	if st := b.Stats(); st.Published != 5 || st.Delivered != 8 || st.Suppressed != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// The batch path and the single-record path must be the same delivery
// implementation: a stateful filter fed one batch sees exactly the
// sequence repeated Publish calls would feed it.
func TestBatchEquivalenceWithSingle(t *testing.T) {
	run := func(publish func(b *Bus, recs []ulm.Record)) []string {
		b := New(Options{})
		last := ""
		onChange := func(_ string, r ulm.Record) Decision {
			v, _ := r.Get("SEQ")
			if v == last {
				return Suppress
			}
			last = v
			return Deliver
		}
		var got []string
		b.Subscribe("cpu", onChange, func(r ulm.Record) {
			v, _ := r.Get("SEQ")
			got = append(got, v)
		})
		publish(b, []ulm.Record{recN("E", 1), recN("E", 1), recN("E", 2), recN("E", 2), recN("E", 3)})
		return got
	}
	single := run(func(b *Bus, recs []ulm.Record) {
		for i := range recs {
			b.Publish("cpu", recs[i])
		}
	})
	batched := run(func(b *Bus, recs []ulm.Record) { b.PublishBatch("cpu", recs) })
	if len(single) != len(batched) {
		t.Fatalf("single=%v batched=%v", single, batched)
	}
	for i := range single {
		if single[i] != batched[i] {
			t.Fatalf("single=%v batched=%v", single, batched)
		}
	}
}

// TapBatch observes every batch without touching delivery counters.
func TestTapBatchObservesWithoutCounting(t *testing.T) {
	b := New(Options{})
	var tapped, topics int
	tap := b.TapBatch("cpu", func(topic string, recs []ulm.Record) {
		tapped += len(recs)
		if topic == "cpu" {
			topics++
		}
	})
	var n int
	b.Subscribe("cpu", nil, func(ulm.Record) { n++ })
	b.PublishBatch("cpu", batchOf(4))
	b.Publish("cpu", rec("E")) // a batch of one
	b.Publish("mem", rec("F")) // outside the tap's topic
	if tapped != 5 || topics != 2 {
		t.Fatalf("tap saw %d records, %d topical batches", tapped, topics)
	}
	if st := b.Stats(); st.Delivered != 5 {
		t.Fatalf("tap distorted stats: %+v", st)
	}
	if !tap.Cancel() {
		t.Fatal("tap cancel failed")
	}
	b.PublishBatch("cpu", batchOf(2))
	if tapped != 5 {
		t.Fatal("tap observed after cancel")
	}
	if n != 7 {
		t.Fatalf("subscriber got %d", n)
	}
}

// Per-topic order must hold on the batch path with Publish and
// PublishBatch interleaved by concurrent publishers while subscribers
// churn, and every record is delivered by the time its publish returns.
// Run with -race.
func TestBatchChurnPreservesPerTopicOrder(t *testing.T) {
	b := New(Options{Shards: 8})
	var mu sync.Mutex
	got := map[string][]int{}
	b.SubscribeBatchTopics("", nil, func(topic string, recs []ulm.Record) {
		mu.Lock()
		for i := range recs {
			var seq int
			v, _ := recs[i].Get("SEQ")
			fmt.Sscan(v, &seq) //nolint:errcheck
			got[topic] = append(got[topic], seq)
		}
		mu.Unlock()
	})
	// Churning side subscriptions racing the publishers, batch and
	// single, so insert/cancel interleaves with batch delivery.
	stopChurn := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stopChurn:
				return
			default:
				s1 := b.SubscribeBatch("a", nil, func([]ulm.Record) {})
				s2 := b.Subscribe("b", nil, func(ulm.Record) {})
				s1.Cancel()
				s2.Cancel()
			}
		}
	}()
	const perTopic = 400
	var wg sync.WaitGroup
	for _, topic := range []string{"a", "b", "c"} {
		wg.Add(1)
		go func(topic string) {
			defer wg.Done()
			i := 0
			for i < perTopic {
				if i%3 == 0 && i+4 <= perTopic {
					batch := make([]ulm.Record, 4)
					for k := range batch {
						batch[k] = recN("E", i+k)
					}
					b.PublishBatch(topic, batch)
					i += 4
				} else {
					b.Publish(topic, recN("E", i))
					i++
				}
			}
		}(topic)
	}
	wg.Wait()
	close(stopChurn)
	churn.Wait()
	mu.Lock()
	defer mu.Unlock()
	for _, topic := range []string{"a", "b", "c"} {
		seqs := got[topic]
		if len(seqs) != perTopic {
			t.Fatalf("topic %s delivered %d, want %d", topic, len(seqs), perTopic)
		}
		for i, s := range seqs {
			if s != i {
				t.Fatalf("topic %s out of order at %d: %d", topic, i, s)
			}
		}
	}
}

// Synchronous batch churn under race: concurrent PublishBatch across
// topics with batch/single/hooked subscriber churn and stats readers.
func TestConcurrentBatchPublish(t *testing.T) {
	b := New(Options{})
	const topics = 4
	var delivered atomic.Int64
	for i := 0; i < topics; i++ {
		b.SubscribeBatch(fmt.Sprintf("s%d", i), nil, func(recs []ulm.Record) {
			delivered.Add(int64(len(recs)))
		})
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < topics; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			topic := fmt.Sprintf("s%d", i)
			batch := batchOf(8)
			for {
				select {
				case <-stop:
					return
				default:
					b.PublishBatch(topic, batch)
				}
			}
		}(i)
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 150; j++ {
				topic := fmt.Sprintf("s%d", j%topics)
				if j%3 == 0 {
					topic = ""
				}
				last := ""
				sub := b.SubscribeBatchTopics(topic, func(_ string, r ulm.Record) Decision {
					if r.Event == last {
						return Suppress
					}
					last = r.Event
					return Deliver
				}, func(string, []ulm.Record) {})
				sub.Counts()
				sub.Cancel()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			b.Stats()
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if delivered.Load() == 0 {
		t.Fatal("no batches delivered during churn")
	}
	if st := b.Stats(); st.Published == 0 || st.Delivered < uint64(delivered.Load()) {
		t.Fatalf("stats = %+v, delivered sink = %d", st, delivered.Load())
	}
}

// The steady-state batch publish path must stay allocation-free at any
// batch size: scratch is pooled and full-pass subscribers receive the
// caller's slice.
func TestPublishBatchZeroAllocs(t *testing.T) {
	b := New(Options{})
	var n int
	b.SubscribeBatch("cpu", nil, func(recs []ulm.Record) { n += len(recs) })
	b.Subscribe("cpu", nil, func(ulm.Record) { n++ })
	recs := batchOf(16)
	f := func() { b.PublishBatch("cpu", recs) }
	f() // warm the pool
	if avg := testing.AllocsPerRun(1000, f); avg > 0.05 {
		t.Fatalf("PublishBatch: %v allocs/op, want 0", avg)
	}
	if n == 0 {
		t.Fatal("nothing delivered")
	}
}

// testSealed is a Sealed of n records that counts its outstanding holds.
type testSealed struct {
	n    int
	held *atomic.Int64
}

func (s testSealed) Len() int     { return s.n }
func (s testSealed) Hold() Sealed { s.held.Add(1); return s }
func (s testSealed) Release()     { s.held.Add(-1) }

// A sealed publish is one id-ordered pass: sealed subscribers get the
// sealed form, everyone else the records beside it — or nothing, when
// the publisher did not decode — and NeedsRecords tells the publisher
// which it will be.
func TestPublishSealedOnePass(t *testing.T) {
	b := New(Options{})
	var order []string
	note := func(tag string) func(string, []ulm.Record, Sealed) {
		return func(topic string, recs []ulm.Record, s Sealed) {
			if s != nil {
				order = append(order, fmt.Sprintf("%s:%s:sealed%d", tag, topic, s.Len()))
			} else {
				order = append(order, fmt.Sprintf("%s:%s:recs%d", tag, topic, len(recs)))
			}
		}
	}
	rec1 := b.SubscribeBatchTopics("cpu", nil, func(topic string, recs []ulm.Record) { note("1")(topic, recs, nil) })
	s2 := b.SubscribeSealed("cpu", note("2"))
	odd := func(_ string, r ulm.Record) Decision {
		if v, _ := r.Get("SEQ"); v == "1" {
			return Deliver
		}
		return Suppress
	}
	rec3 := b.SubscribeBatchTopics("", odd, func(topic string, recs []ulm.Record) { note("3")(topic, recs, nil) })
	b.SubscribeSealed("", note("4"))
	b.SubscribeSealed("mem", note("5")) // another topic: never matched
	if !b.NeedsRecords("cpu") || !b.NeedsRecords("mem") {
		t.Fatal("NeedsRecords false beside record subscribers")
	}
	var held atomic.Int64
	var observed []int
	b.SetDeliverObserver(func(n int, _ time.Duration) { observed = append(observed, n) })
	b.PublishSealed("cpu", testSealed{3, &held}, batchOf(3))
	b.PublishBatch("cpu", batchOf(2))
	rec1.Cancel()
	rec3.Cancel()
	if b.NeedsRecords("cpu") {
		t.Fatal("NeedsRecords true with only sealed subscribers left")
	}
	b.PublishSealed("cpu", testSealed{3, &held}, nil)
	want := []string{
		"1:cpu:recs3", "2:cpu:sealed3", "3:cpu:recs1", "4:cpu:sealed3",
		"1:cpu:recs2", "2:cpu:recs2", "3:cpu:recs1", "4:cpu:recs2",
		"2:cpu:sealed3", "4:cpu:sealed3",
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v\nwant    %v", order, want)
	}
	if d, _ := s2.Counts(); d != 8 {
		t.Fatalf("sealed subscriber counted %d delivered, want 8", d)
	}
	if st := b.Stats(); st.Published != 8 || st.Delivered != 3+3+1+3+2+2+1+2+3+3 || st.Suppressed != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if held.Load() != 0 {
		t.Fatalf("synchronous delivery held %d references", held.Load())
	}
	// The observer times the passes that carried records, not the bare
	// hand-off of an undecoded sealed batch.
	if fmt.Sprint(observed) != "[3 2]" {
		t.Fatalf("observer saw passes of %v records, want [3 2]", observed)
	}
}

// A record subscriber that registered after the publisher asked
// NeedsRecords is not handed a batch nobody decoded.
func TestPublishSealedUndecodedSkipsRecordSubscribers(t *testing.T) {
	b := New(Options{})
	var held atomic.Int64
	called := false
	b.SubscribeBatch("cpu", nil, func([]ulm.Record) { called = true })
	b.PublishSealed("cpu", testSealed{3, &held}, nil)
	if called {
		t.Fatal("record subscriber called with no records")
	}
	if st := b.Stats(); st.Published != 3 || st.Delivered != 0 {
		t.Fatalf("stats = %+v", st)
	}
}
