package aggregate

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile mirrors the sketch's rank convention (0-based floor
// rank) over the true sorted sample.
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q * float64(len(sorted)-1))
	return sorted[rank]
}

// relErr is |got-want|/|want|, with an absolute fallback at zero.
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestSketchAccuracy checks the core guarantee — every quantile
// estimate within alpha, relatively — against an exact reference over
// deterministic workloads of varied shape.
func TestSketchAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	workloads := map[string][]float64{
		"uniform":   nil,
		"lognormal": nil,
		"mixed":     nil,
	}
	for i := 0; i < 10_000; i++ {
		workloads["uniform"] = append(workloads["uniform"], rng.Float64()*1000)
		workloads["lognormal"] = append(workloads["lognormal"], math.Exp(rng.NormFloat64()*2))
		workloads["mixed"] = append(workloads["mixed"], rng.NormFloat64()*100) // pos, neg, near-zero
	}
	for name, vals := range workloads {
		s := NewSketch(DefaultAlpha)
		for _, v := range vals {
			s.Add(v)
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.01, 0.25, 0.50, 0.75, 0.99} {
			got, want := s.Quantile(q), exactQuantile(sorted, q)
			// 2*alpha margin: bucket width alpha plus the rank landing on
			// a neighbor of the true order statistic.
			if relErr(got, want) > 2*DefaultAlpha && math.Abs(got-want) > 1e-9 {
				t.Errorf("%s q%g: sketch=%g exact=%g (rel err %g)", name, q, got, want, relErr(got, want))
			}
		}
	}
}

// TestSketchMergeEqualsUnion: merging per-partition sketches must give
// the same answers as one sketch over the union — the property the
// site-wide merge depends on.
func TestSketchMergeEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	union := NewSketch(DefaultAlpha)
	parts := []*Sketch{NewSketch(DefaultAlpha), NewSketch(DefaultAlpha), NewSketch(DefaultAlpha)}
	for i := 0; i < 9000; i++ {
		v := math.Exp(rng.NormFloat64())
		union.Add(v)
		parts[i%3].Add(v)
	}
	merged := NewSketch(DefaultAlpha)
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Count() != union.Count() {
		t.Fatalf("merged count %d, union %d", merged.Count(), union.Count())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if m, u := merged.Quantile(q), union.Quantile(q); m != u {
			t.Errorf("q%g: merged=%g union=%g", q, m, u)
		}
	}
}

func TestSketchMergeAlphaMismatch(t *testing.T) {
	a, b := NewSketch(0.01), NewSketch(0.02)
	b.Add(1)
	if err := a.Merge(b); err == nil {
		t.Fatal("want alpha-mismatch error")
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("nil merge: %v", err)
	}
}

// TestSketchEncodeDecode: the wire form round-trips exactly — same
// counts, same quantiles — and is deterministic.
func TestSketchEncodeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSketch(DefaultAlpha)
	for i := 0; i < 5000; i++ {
		s.Add(rng.NormFloat64() * 50) // exercises pos, neg and zero paths
	}
	s.Add(0)
	enc := s.Encode()
	if enc != s.Encode() {
		t.Fatal("Encode not deterministic")
	}
	d, err := DecodeSketch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if d.Count() != s.Count() {
		t.Fatalf("decoded count %d, want %d", d.Count(), s.Count())
	}
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
		if dv, sv := d.Quantile(q), s.Quantile(q); dv != sv {
			t.Errorf("q%g: decoded=%g original=%g", q, dv, sv)
		}
	}
	if _, err := DecodeSketch("a=0.01;bogus"); err == nil {
		t.Fatal("want error on malformed sketch")
	}
}

// FuzzDecodeSketch: DecodeSketch never panics, nor does a quantile of
// what it accepts, and an accepted sketch's encoding decodes to a
// sketch of the same encoding and count.
func FuzzDecodeSketch(f *testing.F) {
	s := NewSketch(DefaultAlpha)
	for _, v := range []float64{-3, 0, 0.5, 1, 7, 1e9} {
		s.Add(v)
	}
	for _, in := range []string{s.Encode(), NewSketch(0).Encode(), "a=0.01;z=0;p=;n=", "a=0.5;p=1:2,1:3", "z=1", "a=x"} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := DecodeSketch(in)
		if err != nil {
			return
		}
		s.Quantile(0.5)
		s.Quantile(0.99)
		enc := s.Encode()
		again, err := DecodeSketch(enc)
		if err != nil {
			t.Fatalf("DecodeSketch(%q) accepted, its encoding %q refused: %v", in, enc, err)
		}
		if again.Encode() != enc || again.Count() != s.Count() {
			t.Fatalf("%q: encoding %q (count %d) decodes to %q (count %d)", in, enc, s.Count(), again.Encode(), again.Count())
		}
	})
}
