package bridge

import (
	"strings"
	"sync"
	"testing"
	"time"

	"jamm/internal/aggregate"
	"jamm/internal/bus"
	"jamm/internal/gateway"
	"jamm/internal/ulm"
)

// End-to-end aggregate fan-out: a remote gateway runs an aggregator,
// an aggregate mirror bridges ONLY its `_agg/` topics over the wire,
// and a local site merger reconstructs the remote's window from the
// mirrored records — raw sensor records never cross.
func TestAggregateMirrorEndToEnd(t *testing.T) {
	remote, srv := startRemote(t)
	agg := aggregate.New(remote, aggregate.Options{
		Window: 10 * time.Second, Emit: -1, TopK: 3,
	})
	defer agg.Close()

	local := bus.New(bus.Options{})
	br := NewAggregateMirror(gateway.NewClient("mirror", srv.Addr()), local, testOptions())
	defer br.Close()

	var mu sync.Mutex
	var aggRecs, rawRecs int
	site := aggregate.NewSite()
	local.SubscribeBatchTopics("", nil, func(topic string, recs []ulm.Record) {
		mu.Lock()
		defer mu.Unlock()
		if !strings.HasPrefix(topic, aggregate.TopicPrefix) {
			rawRecs += len(recs)
			return
		}
		for _, rec := range recs {
			site.Observe(rec)
			aggRecs++
		}
	})
	if !br.WaitConnected(5 * time.Second) {
		t.Fatal("bridge never connected")
	}

	for i := 0; i < 40; i++ {
		remote.Publish("cpu", mkRec("E", time.Duration(i)*time.Millisecond, float64(i)))
	}
	for i := 0; i < 15; i++ {
		remote.Publish("mem", mkRec("E", time.Duration(i)*time.Millisecond, float64(i)))
	}
	agg.EmitNow()

	waitCount(t, &mu, &aggRecs, 3) // one record per aggregate kind
	mu.Lock()
	defer mu.Unlock()
	if rawRecs != 0 {
		t.Fatalf("%d raw records crossed an aggregate-only mirror", rawRecs)
	}
	v := site.View()
	if v.Count == nil || v.Count.Count != 55 || v.Count.Sensors != 2 {
		t.Fatalf("mirrored count = %+v", v.Count)
	}
	if v.TopK == nil || len(v.TopK.Top) != 2 ||
		v.TopK.Top[0] != (aggregate.SensorCount{Sensor: "cpu", Count: 40}) {
		t.Fatalf("mirrored topk = %+v", v.TopK)
	}
	if v.Quantile == nil || v.Quantile.N != 55 || v.Quantile.Sketch == nil {
		t.Fatalf("mirrored quantile = %+v", v.Quantile)
	}
}
