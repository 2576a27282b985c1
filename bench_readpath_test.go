// Read-side scale-out benchmarks: the aggregation plane's fan-in
// economics over the wire, measured by what crosses the network.
package jamm

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"jamm/internal/aggregate"
	"jamm/internal/gateway"
	"jamm/internal/ulm"
)

// BenchmarkAggregateFanout compares what a site-wide consumer pulls
// over the wire to watch 32 sensors: N raw subscriptions (one per
// sensor — every published record crosses the wire) versus ONE
// aggregate subscription (three `_agg/` records per emit period, no
// matter how many sensors or how fast they publish). One bench
// iteration publishes a 64-record batch to the next sensor in the
// rotation and, in aggregate mode, emits once — a 1 Hz aggregator
// under one batch/second of ingest. The wire_recs/published_rec
// metric is the acceptance ratio: raw ≈ 1.0, aggregate 3/64 ≈ 0.05.
func BenchmarkAggregateFanout(b *testing.B) {
	const (
		sensors = 32
		batch   = 64
	)

	recs := make([]ulm.Record, batch)
	for i := range recs {
		recs[i] = ulm.Record{Date: benchEpoch.Add(time.Duration(i) * time.Second),
			Host: "h", Prog: "p", Lvl: "Usage", Event: "E",
			Fields: []ulm.Field{{Key: "VAL", Value: fmt.Sprint(i)}}}
	}

	run := func(b *testing.B, aggregated bool) {
		gw := gateway.New("gw", nil)
		names := make([]string, sensors)
		for i := range names {
			names[i] = fmt.Sprintf("cpu@h%02d", i)
			gw.Register(names[i], gateway.Meta{Host: fmt.Sprintf("h%02d", i)})
		}
		srv, err := gateway.ServeTCP(gw, "127.0.0.1:0", nil)
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()

		var delivered atomic.Uint64
		var stops []func()
		defer func() {
			for _, stop := range stops {
				stop()
			}
		}()
		var perEmit uint64
		var agg *aggregate.Aggregator
		if aggregated {
			agg = aggregate.New(gw, aggregate.Options{Window: time.Minute, Emit: -1, TopK: 8})
			defer agg.Close()
			stop, err := gateway.NewClient("bench", srv.Addr()).Subscribe(
				gateway.Request{Sensor: aggregate.TopicPrefix, Prefix: true}, "ulm",
				func(ulm.Record) { delivered.Add(1) })
			if err != nil {
				b.Fatal(err)
			}
			stops = append(stops, stop)
			perEmit = 3 // count, top-k, quantile
		} else {
			for _, name := range names {
				stop, err := gateway.NewClient("bench", srv.Addr()).Subscribe(
					gateway.Request{Sensor: name}, "ulm",
					func(ulm.Record) { delivered.Add(1) })
				if err != nil {
					b.Fatal(err)
				}
				stops = append(stops, stop)
			}
		}

		// Lock-step per iteration: publish, (emit,) then wait for this
		// round's wire records before the next — nothing ever queues
		// deep enough to drop, and both modes pay the same round-trip,
		// so the delivered-record ratio is exact by construction.
		want := uint64(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gw.PublishBatch(names[i%sensors], recs)
			if aggregated {
				agg.EmitNow()
				want += perEmit
			} else {
				want += batch
			}
			for delivered.Load() < want {
				time.Sleep(20 * time.Microsecond)
			}
		}
		b.StopTimer()
		if drops := srv.WireStats().Drops(); drops != 0 {
			b.Fatalf("%d wire drops", drops)
		}

		published := float64(b.N) * batch
		b.ReportMetric(published/b.Elapsed().Seconds(), "published_recs/s")
		b.ReportMetric(float64(delivered.Load())/published, "wire_recs/published_rec")
		if aggregated {
			if ratio := float64(delivered.Load()) / published; ratio > 0.1 {
				b.Fatalf("aggregate wire ratio = %.3f, want <= 0.1", ratio)
			}
		}
	}

	b.Run("raw-subs=32", func(b *testing.B) { run(b, false) })
	b.Run("aggregate-sub=1", func(b *testing.B) { run(b, true) })
}
