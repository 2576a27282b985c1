package aggregate

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"testing"
	"time"

	"jamm/internal/gateway"
	"jamm/internal/ulm"
)

var epoch = time.Date(2000, 5, 1, 0, 0, 0, 0, time.UTC)

func mkRec(event string, at time.Time, val float64) ulm.Record {
	return ulm.Record{
		Date: at, Host: "h1.lbl.gov", Prog: "jamm.cpu", Lvl: ulm.LvlUsage,
		Event:  event,
		Fields: []ulm.Field{{Key: "VAL", Value: strconv.FormatFloat(val, 'g', -1, 64)}},
	}
}

// testRig is one gateway + manually-clocked aggregator + a prefix
// subscription collecting everything emitted under `_agg/`.
type testRig struct {
	gw   *gateway.Gateway
	agg  *Aggregator
	now  *time.Time
	recs *[]ulm.Record
}

func newRig(t *testing.T, name string) *testRig {
	t.Helper()
	now := epoch
	clock := func() time.Time { return now }
	gw := gateway.New(name, clock)
	agg := New(gw, Options{Window: 10 * time.Second, Emit: -1, TopK: 3, Now: clock})
	t.Cleanup(agg.Close)
	var recs []ulm.Record
	_, err := gw.Subscribe(gateway.Request{Sensor: TopicPrefix, Prefix: true}, func(rec ulm.Record) {
		recs = append(recs, rec)
	})
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{gw: gw, agg: agg, now: &now, recs: &recs}
}

func (r *testRig) publish(sensor string, n int, val float64) {
	batch := make([]ulm.Record, n)
	for i := range batch {
		batch[i] = mkRec("E", *r.now, val)
	}
	r.gw.Register(sensor, gateway.Meta{Host: "h1", Type: "t", Interval: time.Second})
	r.gw.PublishBatch(sensor, batch)
}

// latest returns the last emitted record of the given event kind.
func (r *testRig) latest(t *testing.T, event string) ulm.Record {
	t.Helper()
	for i := len(*r.recs) - 1; i >= 0; i-- {
		if (*r.recs)[i].Event == event {
			return (*r.recs)[i]
		}
	}
	t.Fatalf("no %s record emitted", event)
	return ulm.Record{}
}

// TestAggregatorEmit drives one emit cycle end to end: counts, rate,
// top-k ranking, and quantiles over the published VALs, delivered
// through a single `_agg/` prefix subscription.
func TestAggregatorEmit(t *testing.T) {
	r := newRig(t, "gwA")
	r.publish("s1", 30, 10)
	r.publish("s2", 20, 20)
	r.publish("s3", 5, 30)
	r.agg.EmitNow()

	if got := r.agg.Folded(); got != 55 {
		t.Fatalf("folded = %d, want 55", got)
	}
	cp, err := ParseCount(r.latest(t, EventCount))
	if err != nil {
		t.Fatal(err)
	}
	if cp.GW != "gwA" || cp.Count != 55 || cp.Sensors != 3 || cp.Window != 10*time.Second {
		t.Fatalf("count point = %+v", cp)
	}
	if want := 5.5; cp.Rate != want {
		t.Fatalf("rate = %g, want %g", cp.Rate, want)
	}

	tp, err := ParseTopK(r.latest(t, EventTopK))
	if err != nil {
		t.Fatal(err)
	}
	want := []SensorCount{{"s1", 30}, {"s2", 20}, {"s3", 5}}
	if len(tp.Top) != len(want) {
		t.Fatalf("topk = %+v", tp.Top)
	}
	for i := range want {
		if tp.Top[i] != want[i] {
			t.Fatalf("topk[%d] = %+v, want %+v", i, tp.Top[i], want[i])
		}
	}

	qp, err := ParseQuantile(r.latest(t, EventQuantile))
	if err != nil {
		t.Fatal(err)
	}
	if qp.N != 55 || qp.Sketch == nil {
		t.Fatalf("quantile point = %+v", qp)
	}
	// 30×10, 20×20, 5×30: the median observation is 10.
	if relErr(qp.P50, 10) > 2*DefaultAlpha {
		t.Fatalf("p50 = %g, want ≈10", qp.P50)
	}
}

// TestAggregatorFoldsFiniteValuesOnly: NaN and ±Inf are no
// measurement. The records carrying them still count toward rate and
// top-k, but the quantiles are those of the finite values alone.
func TestAggregatorFoldsFiniteValuesOnly(t *testing.T) {
	r := newRig(t, "gwA")
	r.publish("s1", 10, 100)
	r.publish("s1", 10, math.Inf(1))
	r.publish("s1", 5, math.Inf(-1))
	r.publish("s1", 5, math.NaN())
	r.agg.EmitNow()
	if cp, _ := ParseCount(r.latest(t, EventCount)); cp.Count != 30 {
		t.Fatalf("count = %d, want every record, 30", cp.Count)
	}
	qp, err := ParseQuantile(r.latest(t, EventQuantile))
	if err != nil {
		t.Fatal(err)
	}
	if qp.N != 10 || relErr(qp.P50, 100) > DefaultAlpha || relErr(qp.P99, 100) > DefaultAlpha {
		t.Fatalf("quantile point N=%d P50=%g P99=%g, want 10 values at ≈100", qp.N, qp.P50, qp.P99)
	}
}

// TestAggregatorSlidingWindow: sub-windows age out individually as the
// clock advances — no sawtooth reset.
func TestAggregatorSlidingWindow(t *testing.T) {
	r := newRig(t, "gwA")
	r.publish("s1", 10, 1) // lands in the slot at t0
	*r.now = r.now.Add(6 * time.Second)
	r.publish("s1", 5, 1) // slot at t0+6s

	r.agg.EmitNow()
	if cp, _ := ParseCount(r.latest(t, EventCount)); cp.Count != 15 {
		t.Fatalf("both in window: count = %d, want 15", cp.Count)
	}

	*r.now = r.now.Add(5 * time.Second) // t0+11s: first batch aged out
	r.agg.EmitNow()
	if cp, _ := ParseCount(r.latest(t, EventCount)); cp.Count != 5 {
		t.Fatalf("after aging: count = %d, want 5", cp.Count)
	}

	*r.now = r.now.Add(time.Minute) // everything aged out
	r.agg.EmitNow()
	if cp, _ := ParseCount(r.latest(t, EventCount)); cp.Count != 0 {
		t.Fatalf("empty window: count = %d, want 0", cp.Count)
	}
}

// TestAggregatorNoSelfFeedNoSensors: emitted `_agg/` records never fold
// back into the aggregates, and the synthetic topics never register as
// sensors (bus-level publish, not gateway ingest).
func TestAggregatorNoSelfFeedNoSensors(t *testing.T) {
	r := newRig(t, "gwA")
	r.publish("s1", 3, 1)
	r.agg.EmitNow()
	r.agg.EmitNow() // would refold the first emit's records if unguarded
	if got := r.agg.Folded(); got != 3 {
		t.Fatalf("folded = %d, want 3 (aggregates self-fed)", got)
	}
	for _, si := range r.gw.Sensors() {
		if si.Name == "s1" {
			continue
		}
		t.Fatalf("synthetic topic registered as sensor: %q", si.Name)
	}
}

// TestAggregatorDrainSeed moves a sensor's in-window counts between
// aggregators — the rebalancing handoff path — and checks the counts
// land in the new owner's window.
func TestAggregatorDrainSeed(t *testing.T) {
	a := newRig(t, "gwA")
	b := newRig(t, "gwB")
	a.publish("s1", 7, 1)
	*a.now = a.now.Add(2 * time.Second)
	a.publish("s1", 4, 1)
	a.publish("s2", 9, 1)

	state := a.agg.drainSensor("s1")
	if len(state) == 0 {
		t.Fatal("drain found nothing")
	}
	a.agg.EmitNow()
	if cp, _ := ParseCount(a.latest(t, EventCount)); cp.Count != 9 {
		t.Fatalf("old owner after drain: count = %d, want 9 (s2 only)", cp.Count)
	}

	*b.now = *a.now // same virtual time on the new owner
	b.agg.seedSensor("s1", state)
	b.agg.EmitNow()
	cp, _ := ParseCount(b.latest(t, EventCount))
	if cp.Count != 11 {
		t.Fatalf("new owner after seed: count = %d, want 11", cp.Count)
	}
	tp, _ := ParseTopK(b.latest(t, EventTopK))
	if len(tp.Top) != 1 || tp.Top[0] != (SensorCount{"s1", 11}) {
		t.Fatalf("new owner topk = %+v", tp.Top)
	}
}

// aggRecord hand-builds one per-gateway aggregate record, as a remote
// gateway's emit would produce it.
func aggRecord(gw, event string, at time.Time, fields map[string]string) ulm.Record {
	rec := ulm.Record{Date: at, Host: gw, Prog: "jamm.agg", Lvl: "Usage", Event: event}
	rec.Fields = append(rec.Fields,
		ulm.Field{Key: "GW", Value: gw},
		ulm.Field{Key: "WINDOW_MS", Value: "10000"},
	)
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rec.Fields = append(rec.Fields, ulm.Field{Key: k, Value: fields[k]})
	}
	return rec
}

// TestSiteMergeExact checks the site-wide merge against exact
// references: counts and rates sum, top-k re-ranks the summed
// per-sensor counts, and merged sketch quantiles match a sketch built
// over the union of both gateways' samples.
func TestSiteMergeExact(t *testing.T) {
	// Exact per-gateway per-sensor counts; sensors are partitioned (no
	// overlap in ownership), with gw-local top-3 truncation applied as
	// each gateway's emitter would.
	countsA := map[string]uint64{"a1": 50, "a2": 30, "a3": 20}
	countsB := map[string]uint64{"b1": 40, "b2": 35, "b3": 10}
	sketchA, sketchB, union := NewSketch(DefaultAlpha), NewSketch(DefaultAlpha), NewSketch(DefaultAlpha)
	for i := 1; i <= 100; i++ {
		sketchA.Add(float64(i))
		union.Add(float64(i))
	}
	for i := 101; i <= 200; i++ {
		sketchB.Add(float64(i))
		union.Add(float64(i))
	}

	site := NewSite()
	feed := func(gw string, counts map[string]uint64, sk *Sketch, total uint64) {
		site.Observe(aggRecord(gw, EventCount, epoch, map[string]string{
			"COUNT": strconv.FormatUint(total, 10), "RATE": "10", "SENSORS": "3",
		}))
		site.Observe(aggRecord(gw, EventTopK, epoch, map[string]string{
			"K": "3", "TOP": encodeTop(topK(counts, 3)),
		}))
		site.Observe(aggRecord(gw, EventQuantile, epoch, map[string]string{
			"FIELD": "VAL", "N": strconv.FormatUint(sk.Count(), 10),
			"P50":    strconv.FormatFloat(sk.Quantile(0.5), 'g', -1, 64),
			"P99":    strconv.FormatFloat(sk.Quantile(0.99), 'g', -1, 64),
			"SKETCH": sk.Encode(),
		}))
	}
	feed("gwA", countsA, sketchA, 100)
	feed("gwB", countsB, sketchB, 85)

	v := site.View()
	if v.Gateways != 2 {
		t.Fatalf("gateways = %d, want 2", v.Gateways)
	}
	if v.Count == nil || v.Count.Count != 185 || v.Count.Rate != 20 || v.Count.Sensors != 6 {
		t.Fatalf("count merge = %+v", v.Count)
	}

	// Exact reference: union of the per-gateway counts, re-ranked.
	unionCounts := make(map[string]uint64)
	for s, c := range countsA {
		unionCounts[s] += c
	}
	for s, c := range countsB {
		unionCounts[s] += c
	}
	wantTop := topK(unionCounts, 3)
	if v.TopK == nil || len(v.TopK.Top) != len(wantTop) {
		t.Fatalf("topk merge = %+v, want %+v", v.TopK, wantTop)
	}
	for i := range wantTop {
		if v.TopK.Top[i] != wantTop[i] {
			t.Fatalf("topk[%d] = %+v, want %+v", i, v.TopK.Top[i], wantTop[i])
		}
	}

	if v.Quantile == nil || v.Quantile.N != 200 {
		t.Fatalf("quantile merge = %+v", v.Quantile)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := union.Quantile(q)
		got := v.Quantile.Sketch.Quantile(q)
		if got != want {
			t.Errorf("merged q%g = %g, union sketch = %g", q, got, want)
		}
	}
	if relErr(v.Quantile.P50, 100) > 2*DefaultAlpha { // true median of 1..200
		t.Errorf("merged p50 = %g, want ≈100", v.Quantile.P50)
	}
}

// TestSiteStaleEviction: a gateway that stops reporting drops out of
// the merge once its last point is staleWindows windows old.
func TestSiteStaleEviction(t *testing.T) {
	site := NewSite()
	site.Observe(aggRecord("gwOld", EventCount, epoch, map[string]string{"COUNT": "5", "RATE": "1"}))
	site.Observe(aggRecord("gwNew", EventCount, epoch.Add(31*time.Second), map[string]string{"COUNT": "7", "RATE": "2"}))
	v := site.View()
	if v.Gateways != 1 || v.Count.Count != 7 {
		t.Fatalf("stale gateway survived: %+v", v.Count)
	}

	// Reordered delivery: an older point never replaces a newer one.
	site.Observe(aggRecord("gwNew", EventCount, epoch.Add(25*time.Second), map[string]string{"COUNT": "99", "RATE": "9"}))
	if v := site.View(); v.Count.Count != 7 {
		t.Fatalf("older point replaced newer: %+v", v.Count)
	}

	// Non-aggregate records are ignored, not folded.
	if site.Observe(mkRec("E", epoch, 1)) {
		t.Fatal("raw record observed as aggregate")
	}
}

// TestSiteSingleGatewayPassthrough: with one reporting gateway and no
// sketch on its record, its quantiles pass through unchanged.
func TestSiteSingleGatewayPassthrough(t *testing.T) {
	site := NewSite()
	site.Observe(aggRecord("gwA", EventQuantile, epoch, map[string]string{
		"FIELD": "VAL", "N": "10", "P50": "4.5", "P99": "9.9",
	}))
	v := site.View()
	if v.Quantile == nil || v.Quantile.P50 != 4.5 || v.Quantile.P99 != 9.9 {
		t.Fatalf("passthrough = %+v", v.Quantile)
	}
	if got := site.Reporting(); len(got) != 1 || got[0] != "gwA" {
		t.Fatalf("reporting = %v", got)
	}
}

// TestTopKDeterminism: equal counts rank by name, and k truncates.
func TestTopKDeterminism(t *testing.T) {
	counts := map[string]uint64{"z": 5, "a": 5, "m": 9, "q": 1}
	got := topK(counts, 3)
	want := []SensorCount{{"m", 9}, {"a", 5}, {"z", 5}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("topk = %v, want %v", got, want)
	}
}
