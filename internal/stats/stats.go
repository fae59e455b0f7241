// Package stats provides small statistical helpers shared across the
// reproduction: empirical CDFs, percentiles, summaries and Zipf sampling.
// All randomness in the repository flows through explicitly seeded
// *rand.Rand instances so every experiment is deterministic.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// CDF is an empirical cumulative distribution over float64 samples.
// The zero value is an empty CDF ready for use.
type CDF struct {
	sorted []float64
	dirty  bool
}

// NewCDF returns a CDF over a copy of the given samples.
func NewCDF(samples []float64) *CDF {
	c := &CDF{}
	c.AddAll(samples)
	return c
}

// Add inserts one sample.
func (c *CDF) Add(v float64) {
	c.sorted = append(c.sorted, v)
	c.dirty = true
}

// AddAll inserts all samples.
func (c *CDF) AddAll(vs []float64) {
	c.sorted = append(c.sorted, vs...)
	c.dirty = true
}

// Len returns the number of samples.
func (c *CDF) Len() int { return len(c.sorted) }

func (c *CDF) ensureSorted() {
	if c.dirty {
		sort.Float64s(c.sorted)
		c.dirty = false
	}
}

// At returns P(X <= v), the fraction of samples at or below v.
func (c *CDF) At(v float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	c.ensureSorted()
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(v, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the q-quantile (0 <= q <= 1) using the nearest-rank
// method. Quantile(0.5) is the median.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	c.ensureSorted()
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return c.sorted[idx]
}

// Mean returns the arithmetic mean of the samples, or NaN when empty.
func (c *CDF) Mean() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range c.sorted {
		sum += v
	}
	return sum / float64(len(c.sorted))
}

// Max returns the largest sample, or NaN when empty.
func (c *CDF) Max() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	c.ensureSorted()
	return c.sorted[len(c.sorted)-1]
}

// Min returns the smallest sample, or NaN when empty.
func (c *CDF) Min() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	c.ensureSorted()
	return c.sorted[0]
}

// Points returns up to n evenly spaced (value, cumulative fraction) points
// suitable for plotting the CDF curve.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	c.ensureSorted()
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	out := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(c.sorted) - 1) / max(n-1, 1)
		out = append(out, Point{
			X: c.sorted[idx],
			Y: float64(idx+1) / float64(len(c.sorted)),
		})
	}
	return out
}

// Point is one (x, y) sample of a plotted curve.
type Point struct {
	X float64
	Y float64
}

// Summary holds the order statistics most figures in the paper report.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	P90    float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary over the samples.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	c := NewCDF(samples)
	return Summary{
		N:      c.Len(),
		Mean:   c.Mean(),
		Median: c.Quantile(0.5),
		P90:    c.Quantile(0.9),
		Min:    c.Min(),
		Max:    c.Max(),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g median=%.4g p90=%.4g min=%.4g max=%.4g",
		s.N, s.Mean, s.Median, s.P90, s.Min, s.Max)
}

// Median is a convenience wrapper for the 0.5 quantile of samples.
func Median(samples []float64) float64 {
	return NewCDF(samples).Quantile(0.5)
}

// Percentile returns the p-th percentile (0-100) of samples.
func Percentile(samples []float64, p float64) float64 {
	return NewCDF(samples).Quantile(p / 100)
}

// ZipfWeights returns n weights following a Zipf distribution with exponent
// s: weight(i) = 1/(i+1)^s, normalized to sum to one. The paper's gravity
// model draws PoP traffic masses from such a distribution.
func ZipfWeights(n int, s float64) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// ShuffledZipfWeights returns ZipfWeights(n, s) randomly permuted, so that
// the heavy masses land on random PoPs rather than always the first ones.
func ShuffledZipfWeights(n int, s float64, rng *rand.Rand) []float64 {
	w := ZipfWeights(n, s)
	rng.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
	return w
}

// Rng returns a deterministic RNG for the given seed. Centralizing the
// construction makes it trivial to audit that nothing uses global rand.
func Rng(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Correlation returns the Pearson correlation coefficient of the two
// equally-sized sample slices, or NaN if undefined.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return math.NaN()
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += float64(dx * dy)
		vx += float64(dx * dx)
		vy += float64(dy * dy)
	}
	if vx == 0 || vy == 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(vx*vy)
}

// MeanStd returns the mean and population standard deviation of samples.
func MeanStd(samples []float64) (mean, std float64) {
	if len(samples) == 0 {
		return math.NaN(), math.NaN()
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	mean = sum / float64(len(samples))
	varsum := 0.0
	for _, v := range samples {
		d := v - mean
		varsum += float64(d * d)
	}
	return mean, math.Sqrt(varsum / float64(len(samples)))
}
