package gateway

import (
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"jamm/internal/ulm"
)

// Tail-latency measurement harness for the daemon event plane. Each
// published record carries its publish instant in Date; the subscriber
// callback measures publish→delivery latency, and the distribution's
// p50/p99 are reported as benchmark metrics:
//
//	go test ./internal/gateway/ -run '^$' -bench BenchmarkDeliveryLatency -benchtime 10000x
//
// Delivery happens inside Publish, so the latency is the fan-out cost.

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

func benchDeliveryLatency(b *testing.B, subscribers int) {
	g := New("gw", nil)
	g.Register("cpu@h1", Meta{Host: "h1", Type: "cpu", Interval: time.Second})

	var mu sync.Mutex
	lats := make([]time.Duration, 0, b.N)
	for i := 0; i < subscribers; i++ {
		measure := i == 0 // one measuring subscriber; the rest are fan-out load
		if _, err := g.Subscribe(Request{Sensor: "cpu@h1"}, func(rec ulm.Record) {
			if !measure {
				return
			}
			d := time.Since(rec.Date)
			mu.Lock()
			lats = append(lats, d)
			mu.Unlock()
		}); err != nil {
			b.Fatal(err)
		}
	}

	rec := ulm.Record{
		Host: "h1", Prog: "jamm.cpu", Lvl: ulm.LvlUsage, Event: "E",
		Fields: []ulm.Field{{Key: "VAL", Value: "1"}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Date = time.Now()
		g.Publish("cpu@h1", rec)
	}
	b.StopTimer()

	mu.Lock()
	defer mu.Unlock()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) == 0 {
		b.Fatal("no deliveries measured")
	}
	b.ReportMetric(float64(percentile(lats, 0.50).Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(percentile(lats, 0.99).Nanoseconds()), "p99-ns")
	b.ReportMetric(float64(lats[len(lats)-1].Nanoseconds()), "max-ns")
}

// BenchmarkDeliveryLatency reports p50/p99 publish→delivery latency of
// the gateway event plane at 1 and 8 subscribers of fan-out.
func BenchmarkDeliveryLatency(b *testing.B) {
	for _, subs := range []int{1, 8} {
		b.Run("subs="+strconv.Itoa(subs), func(b *testing.B) { benchDeliveryLatency(b, subs) })
	}
}

// TestTailLatencyHarness smoke-tests the harness itself at small n so
// the measurement path stays correct under go test ./... (benchmarks
// only run when asked): latencies are positive and ordered. The case
// is named for its queue depth: zero, delivery inside Publish.
func TestTailLatencyHarness(t *testing.T) {
	t.Run("queue=0", func(t *testing.T) {
		g := New("gw", nil)
		g.Register("cpu@h1", Meta{Host: "h1"})
		var mu sync.Mutex
		var lats []time.Duration
		if _, err := g.Subscribe(Request{Sensor: "cpu@h1"}, func(rec ulm.Record) {
			d := time.Since(rec.Date)
			mu.Lock()
			lats = append(lats, d)
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
		rec := ulm.Record{Host: "h1", Prog: "p", Lvl: ulm.LvlUsage, Event: "E"}
		const n = 200
		for i := 0; i < n; i++ {
			rec.Date = time.Now()
			g.Publish("cpu@h1", rec)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(lats) != n {
			t.Fatalf("measured %d deliveries, want %d", len(lats), n)
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		if p50, p99 := percentile(lats, 0.5), percentile(lats, 0.99); p50 <= 0 || p99 < p50 {
			t.Fatalf("degenerate distribution: p50=%v p99=%v", p50, p99)
		}
	})
}
