// Package stat holds the benchmark's arithmetic: percentiles that refuse
// to report a tail the sample cannot support, and the median / quartile /
// spread summary the repeat and compare modes are built on.
package stat

import (
	"math"
	"sort"
)

// MinBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 of 300 samples is the third-largest value, which is
// an anecdote, not a percentile. p50 needs 20 samples, p90 100, p99 1000.
const MinBeyond = 10

// Sorted returns a sorted copy of xs.
func Sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// Supported reports whether n samples leave at least MinBeyond of them
// beyond the p-th percentile (0 < p < 1).
func Supported(n int, p float64) bool {
	return float64(n)*(1-p) >= MinBeyond-1e-9
}

// Percentile returns the nearest-rank p-th percentile (0 < p < 1) of an
// ascending slice, and false when the sample is too small to support it
// under the MinBeyond rule.
func Percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 || !Supported(n, p) {
		return 0, false
	}
	return nearestRank(sorted, p), true
}

func nearestRank(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Median returns the median of xs (mean of the two middle values for an
// even count), 0 for an empty slice. It applies no sample-count rule: it
// summarises repeated runs and micro-probes, where every value is itself
// already an aggregate.
func Median(xs []float64) float64 {
	s := Sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Quartiles returns the first quartile, median and third quartile by the
// exclusive method Python's statistics.quantiles(values, n=4) uses, so a
// spread computed here is the number the acceptance driver computes. It
// needs at least two values; fewer return the single value thrice.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := Sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// Python's exclusive method: position i*(n+1)/4, 1-indexed, with
		// the index clamped first and the weight taken against the
		// clamped index — so tiny samples extrapolate exactly as it does.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return at(1), at(2), at(3)
}

// Spread is the inter-quartile distance as a share of the median — the
// run-to-run steadiness measure a metric's bound is compared against.
// A zero median yields 0 when the quartiles coincide and +Inf otherwise.
func Spread(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	if q2 == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs((q3 - q1) / q2)
}
