package gateway

import (
	"testing"
	"time"

	"jamm/internal/ulm"
)

// BenchmarkWireCodec isolates the codec cost the v2 tentpole removes:
// one 64-record batch through the full wire encode+decode round trip,
// as the JSON protocol carries it (ULM text inside a JSON envelope,
// written and scanned without reflection) versus a v2 binary frame (one prelude, ULM binary
// records, one CRC). Transport excluded — this is the CPU the two
// protocols spend per delivered batch.
func BenchmarkWireCodec(b *testing.B) {
	const batch = 64
	recs := make([]ulm.Record, batch)
	for i := range recs {
		recs[i] = mkRec("VMSTAT_SYS_TIME", time.Duration(i)*time.Millisecond, float64(i))
	}

	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		var w lineWriter
		var in inboundEvents
		for i := 0; i < b.N; i++ {
			w.buf = append(w.buf[:0], `{"ok":true,"recs":[`...)
			for j := range recs {
				if j > 0 {
					w.buf = append(w.buf, ',')
				}
				w.event(FormatULM, "cpu", &recs[j])
			}
			w.buf = append(w.buf, "]}"...)
			var got wireResponse
			if !in.scan(w.buf, &got) {
				b.Fatal("the event scanner refused an event line")
			}
			n, err := in.runs(FormatULM, func(err error) error { return err }, func(string, []ulm.Record) error { return nil })
			if err != nil || n != batch {
				b.Fatal(n, err)
			}
		}
		b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "records/s")
	})

	b.Run("v2", func(b *testing.B) {
		b.ReportAllocs()
		var frame []byte
		out := make([]ulm.Record, 0, batch)
		for i := 0; i < b.N; i++ {
			frame = appendBatchFrame(frame[:0], 0, "cpu", recs)
			if err := verifyFrame(frame); err != nil {
				b.Fatal(err)
			}
			f, err := parseBatchFrame(frame)
			if err != nil {
				b.Fatal(err)
			}
			if out, err = f.Records(out[:0]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "records/s")
	})

	// The relay position never decodes at all: CRC check plus hop bump
	// is the entire per-frame cost a v2 intermediate gateway pays.
	b.Run("v2-relay", func(b *testing.B) {
		b.ReportAllocs()
		frame := appendBatchFrame(nil, 0, "cpu", recs)
		for i := 0; i < b.N; i++ {
			if err := verifyFrame(frame); err != nil {
				b.Fatal(err)
			}
			f, err := parseBatchFrame(frame)
			if err != nil {
				b.Fatal(err)
			}
			f.SetHops(f.Hops() + 1)
			if f.Count != batch {
				b.Fatal("bad count")
			}
		}
		b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "records/s")
	})
}
