package bus

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"jamm/internal/ulm"
)

var epoch = time.Date(2000, 5, 1, 0, 0, 0, 0, time.UTC)

func rec(event string) ulm.Record {
	return ulm.Record{Date: epoch, Host: "h", Prog: "p", Lvl: ulm.LvlUsage, Event: event}
}

func TestTopicRouting(t *testing.T) {
	b := New(Options{})
	var cpu, mem int
	b.Subscribe("cpu", nil, func(ulm.Record) { cpu++ })
	b.Subscribe("mem", nil, func(ulm.Record) { mem++ })
	b.Publish("cpu", rec("E"))
	b.Publish("cpu", rec("E"))
	b.Publish("mem", rec("E"))
	b.Publish("disk", rec("E")) // no subscribers
	if cpu != 2 || mem != 1 {
		t.Fatalf("routing: cpu=%d mem=%d", cpu, mem)
	}
	st := b.Stats()
	if st.Published != 4 || st.Delivered != 3 || st.Suppressed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSubscribeTopicsCarriesTopic(t *testing.T) {
	b := New(Options{})
	var got []string
	b.SubscribeBatchTopics("", nil, func(topic string, recs []ulm.Record) {
		for _, r := range recs {
			got = append(got, topic+":"+r.Event)
		}
	})
	var cpuOnly []string
	sub := b.SubscribeBatchTopics("cpu", nil, func(topic string, recs []ulm.Record) {
		for range recs {
			cpuOnly = append(cpuOnly, topic)
		}
	})
	b.Publish("cpu", rec("A"))
	b.Publish("mem", rec("B"))
	if len(got) != 2 || got[0] != "cpu:A" || got[1] != "mem:B" {
		t.Fatalf("wildcard topic delivery = %v", got)
	}
	if len(cpuOnly) != 1 || cpuOnly[0] != "cpu" {
		t.Fatalf("topic delivery = %v", cpuOnly)
	}
	if d, _ := sub.Counts(); d != 1 {
		t.Fatalf("delivered = %d", d)
	}
	if !sub.Cancel() {
		t.Fatal("cancel failed")
	}
	b.Publish("cpu", rec("C"))
	if len(cpuOnly) != 1 {
		t.Fatal("delivered after cancel")
	}
}

func TestWildcardSeesEveryTopic(t *testing.T) {
	b := New(Options{})
	var got []string
	b.Subscribe("", nil, func(r ulm.Record) { got = append(got, r.Event) })
	b.Publish("cpu", rec("A"))
	b.Publish("mem", rec("B"))
	b.Publish("", rec("C")) // empty topic is publishable too
	if len(got) != 3 {
		t.Fatalf("wildcard deliveries = %v", got)
	}
}

func TestDeliveryInSubscriptionIDOrder(t *testing.T) {
	// Interleave topic and wildcard subscriptions; deliveries must come
	// out in id (subscribe) order — the determinism contract.
	b := New(Options{})
	var order []int
	mk := func(n int) func(ulm.Record) {
		return func(ulm.Record) { order = append(order, n) }
	}
	b.Subscribe("cpu", nil, mk(1))
	b.Subscribe("", nil, mk(2))
	b.Subscribe("cpu", nil, mk(3))
	b.Subscribe("", nil, mk(4))
	b.Subscribe("cpu", nil, mk(5))
	b.Publish("cpu", rec("E"))
	want := []int{1, 2, 3, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestHookDecisions(t *testing.T) {
	b := New(Options{})
	var n int
	sub := b.Subscribe("s", func(_ string, r ulm.Record) Decision {
		switch r.Event {
		case "go":
			return Deliver
		case "no":
			return Suppress
		}
		return Skip
	}, func(ulm.Record) { n++ })
	b.Publish("s", rec("go"))
	b.Publish("s", rec("no"))
	b.Publish("s", rec("meh"))
	if n != 1 {
		t.Fatalf("delivered %d, want 1", n)
	}
	d, sup := sub.Counts()
	if d != 1 || sup != 1 {
		t.Fatalf("counts = %d/%d", d, sup)
	}
	st := b.Stats()
	if st.Delivered != 1 || st.Suppressed != 1 {
		t.Fatalf("stats = %+v", st) // Skip counts in neither
	}
}

func TestCancelIdempotentAndStopsDelivery(t *testing.T) {
	b := New(Options{})
	var n int
	sub := b.Subscribe("s", nil, func(ulm.Record) { n++ })
	b.Publish("s", rec("E"))
	if !sub.Cancel() {
		t.Fatal("first cancel reported false")
	}
	if sub.Cancel() {
		t.Fatal("second cancel reported true")
	}
	b.Publish("s", rec("E"))
	if n != 1 {
		t.Fatalf("delivered %d after cancel", n)
	}
	// Wildcard cancel too.
	w := b.Subscribe("", nil, func(ulm.Record) { n += 10 })
	w.Cancel()
	b.Publish("s", rec("E"))
	if n != 1 {
		t.Fatalf("wildcard delivered after cancel: n=%d", n)
	}
}

func TestLargeFanoutSpillsCorrectly(t *testing.T) {
	// More subscribers than the pooled buffer's initial capacity: every
	// one must still be delivered, in id order.
	b := New(Options{Shards: 4})
	const subs = 200
	var order []int
	for i := 0; i < subs; i++ {
		i := i
		topic := "s"
		if i%5 == 0 {
			topic = "" // sprinkle wildcards through the merge
		}
		b.Subscribe(topic, nil, func(ulm.Record) { order = append(order, i) })
	}
	b.Publish("s", rec("E"))
	if len(order) != subs {
		t.Fatalf("delivered %d, want %d", len(order), subs)
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("out of order at %d: %v", i, order[i-3:i+1])
		}
	}
}

func TestShardOfIsStable(t *testing.T) {
	b := New(Options{Shards: 8})
	if b.Shards() != 8 {
		t.Fatalf("Shards = %d", b.Shards())
	}
	for _, topic := range []string{"", "cpu@h1", "mem@h2", "netstat@h3"} {
		a, c := b.ShardOf(topic), b.ShardOf(topic)
		if a != c || a < 0 || a >= b.Shards() {
			t.Fatalf("ShardOf(%q) unstable or out of range: %d/%d", topic, a, c)
		}
	}
	// Shard count rounds up to a power of two.
	if got := New(Options{Shards: 5}).Shards(); got != 8 {
		t.Fatalf("rounded shards = %d, want 8", got)
	}
}

func TestReentrantCallback(t *testing.T) {
	b := New(Options{})
	var inner int
	b.Subscribe("s", nil, func(r ulm.Record) {
		if r.Event == "outer" {
			b.Publish("s", rec("inner")) // re-enter from the callback
		} else {
			inner++
		}
	})
	b.Publish("s", rec("outer"))
	if inner != 1 {
		t.Fatalf("re-entrant publish delivered %d", inner)
	}
}

func TestConcurrentPublishSubscribeCancel(t *testing.T) {
	b := New(Options{})
	const topics = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Publishers across topics.
	for i := 0; i < topics; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			topic := fmt.Sprintf("s%d", i)
			for {
				select {
				case <-stop:
					return
				default:
					b.Publish(topic, rec("E"))
				}
			}
		}(i)
	}
	// Churning subscribers, some wildcard, some with stateful hooks.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				topic := fmt.Sprintf("s%d", j%topics)
				if j%3 == 0 {
					topic = ""
				}
				last := ""
				sub := b.Subscribe(topic, func(_ string, r ulm.Record) Decision {
					if r.Event == last {
						return Suppress
					}
					last = r.Event
					return Deliver
				}, func(ulm.Record) {})
				sub.Counts()
				sub.Cancel()
			}
		}(i)
	}
	// Stats readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			b.Stats()
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}
