package benchkit

import (
	"math"
	"sort"
)

// Median returns the median of vs (NaN for none). vs is not modified.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Sample is one timed observation: value V (ns, or any unit) observed
// at clock time T, standing for W records.
type Sample struct {
	T int64
	V int64
	W int32
}

// Percentile returns the q-quantile (0..1] of the samples' values,
// each counted W times, by the nearest-rank rule: the smallest value
// with at least q of the total weight at or below it. The second
// result is the total weight — the sample count a reader needs to
// judge the percentile. samples is sorted in place by value.
func Percentile(samples []Sample, q float64) (float64, int64) {
	var total int64
	for i := range samples {
		total += int64(samples[i].W)
	}
	if total == 0 {
		return math.NaN(), 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].V < samples[j].V })
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range samples {
		cum += int64(samples[i].W)
		if cum >= rank {
			return float64(samples[i].V), total
		}
	}
	return float64(samples[len(samples)-1].V), total
}

// SplitWindows partitions samples by the window their T falls in:
// window i covers [bounds[i], bounds[i+1]). Samples outside every
// window are left out. The input order is preserved inside a window.
func SplitWindows(samples []Sample, bounds []int64) [][]Sample {
	if len(bounds) < 2 {
		return nil
	}
	out := make([][]Sample, len(bounds)-1)
	for _, s := range samples {
		i := sort.Search(len(bounds), func(i int) bool { return bounds[i] > s.T }) - 1
		if i >= 0 && i < len(out) {
			out[i] = append(out[i], s)
		}
	}
	return out
}

// BestOfWindows reduces per-window values to the best of them — the
// highest if higher is better, the lowest if not — and says how many
// windows had a value at all (an empty window is NaN). On a shared host
// interference is one-sided — a neighbour can slow a window down, never
// speed it up — so the best window is the one closest to the program
// undisturbed, and it repeats from run to run where the median of the
// windows does not.
func BestOfWindows(vals []float64, higher bool) (best float64, windows int) {
	best = math.NaN()
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		windows++
		if windows == 1 || (higher && v > best) || (!higher && v < best) {
			best = v
		}
	}
	return best, windows
}

// PercentilePerWindow computes the q-quantile inside each window (NaN
// for an empty one) and the number of observations in all of them.
func PercentilePerWindow(samples []Sample, bounds []int64, q float64) (vals []float64, n int64) {
	for _, w := range SplitWindows(samples, bounds) {
		v, c := Percentile(w, q)
		vals = append(vals, v)
		n += c
	}
	return vals, n
}

// Rates turns window-boundary snapshots into the per-window figures the
// end-to-end metrics are made of. A window in which nothing was
// delivered yields NaN for the per-record figures.
type Rates struct {
	RecsPerS     []float64
	CPUSPerMrec  []float64
	AllocsPerRec []float64
	BytesPerRec  []float64
	TotalRecords int64
}

// WindowRates differences consecutive snapshots.
func WindowRates(snaps []Snapshot) Rates {
	var r Rates
	for i := 1; i < len(snaps); i++ {
		a, b := snaps[i-1], snaps[i]
		dt := float64(b.T-a.T) / 1e9
		n := float64(b.Done - a.Done)
		r.TotalRecords += b.Done - a.Done
		r.RecsPerS = append(r.RecsPerS, n/dt)
		per := func(x float64) float64 {
			if n <= 0 {
				return math.NaN()
			}
			return x / n
		}
		r.CPUSPerMrec = append(r.CPUSPerMrec, per((b.CPU-a.CPU)*1e6))
		r.AllocsPerRec = append(r.AllocsPerRec, per(float64(b.AllocObjs-a.AllocObjs)))
		r.BytesPerRec = append(r.BytesPerRec, per(float64(b.AllocBytes-a.AllocBytes)))
	}
	return r
}
