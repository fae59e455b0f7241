package mux

import (
	"math"
	"math/rand"
	"testing"

	"lowlat/internal/trace"
)

// pmfShape is what a test PMF looks like.
type pmfShape int

const (
	shapeSparse pmfShape = iota // a few bins in a narrow window, like FromSamples output
	shapeDense                  // every in-range bin
	shapeBand                   // a dense run of bins somewhere in range
)

// shapedPMF draws a normalized PMF of the given shape; overflow > 0 puts
// that share of the mass in the overflow bucket.
func shapedPMF(rng *rand.Rand, levels int, shape pmfShape, overflow float64) PMF {
	p := PMF{BinWidth: 1, P: make([]float64, levels+1)}
	switch shape {
	case shapeSparse:
		// Keep sums of tens of operands mostly in range.
		centre := rng.Intn(max(1, levels/16))
		for k := 1 + rng.Intn(8); k > 0; k-- {
			p.P[min(levels-1, centre+rng.Intn(max(1, levels/64)))] += rng.Float64()
		}
	case shapeDense:
		for i := range p.P[:levels] {
			p.P[i] = rng.Float64()
		}
	case shapeBand:
		lo := rng.Intn(levels / 2)
		for i := lo; i < lo+1+rng.Intn(levels/4); i++ {
			p.P[i] = rng.Float64()
		}
	}
	sum := 0.0
	for _, v := range p.P {
		sum += v
	}
	for i := range p.P {
		p.P[i] *= (1 - overflow) / sum
	}
	p.P[levels] = overflow
	return p
}

func totalMass(p PMF) float64 {
	sum := 0.0
	for _, v := range p.P {
		sum += v
	}
	return sum
}

// TestConvolveAllDifferential holds the adaptive chain to the retained
// FFT chain and to the unrestricted direct product, over sparse, dense
// and mixed operand lists with and without overflow mass.
func TestConvolveAllDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 48; trial++ {
		levels := []int{64, 256, 1024}[trial%3]
		n := 2 + rng.Intn(39)
		if levels == 1024 && testing.Short() {
			n = 2 + rng.Intn(6) // the naive arm is a million multiply-adds a step
		}
		pmfs := make([]PMF, n)
		for i := range pmfs {
			var shape pmfShape
			switch trial / 3 % 4 {
			case 0:
				shape = shapeSparse
			case 1:
				shape = shapeDense
			case 2:
				shape = shapeBand
			default:
				shape = pmfShape(rng.Intn(3))
			}
			overflow := 0.0
			if trial%2 == 1 && rng.Intn(4) == 0 {
				overflow = rng.Float64() * 1e-3
			}
			pmfs[i] = shapedPMF(rng, levels, shape, overflow)
		}

		got := ConvolveAll(pmfs, levels, false)
		ref := refConvolveAll(pmfs, levels)
		naive := ConvolveAll(pmfs, levels, true)
		if d := math.Abs(got.TailMass() - ref.TailMass()); d > 1e-9 {
			t.Fatalf("trial %d (%d operands, %d levels): tail %v, FFT reference %v (diff %g)", trial, n, levels, got.TailMass(), ref.TailMass(), d)
		}
		if d := math.Abs(got.TailMass() - naive.TailMass()); d > 1e-9 {
			t.Fatalf("trial %d (%d operands, %d levels): tail %v, naive %v (diff %g)", trial, n, levels, got.TailMass(), naive.TailMass(), d)
		}
		if m := totalMass(got); math.Abs(m-1) > 1e-9 {
			t.Fatalf("trial %d: total mass %v", trial, m)
		}
		for i := range got.P {
			if d := math.Abs(got.P[i] - naive.P[i]); d > 1e-9 {
				t.Fatalf("trial %d: bin %d: %v, naive %v", trial, i, got.P[i], naive.P[i])
			}
		}
		// Overflow is sticky: the tail never shrinks along the chain
		// (beyond the rounding of one multiplication by a mass of ~1).
		prev := pmfs[0].TailMass()
		for k := 2; k <= n; k++ {
			tail := ConvolveAll(pmfs[:k], levels, false).TailMass()
			if tail < prev*(1-1e-12) {
				t.Fatalf("trial %d: tail fell from %v to %v at operand %d", trial, prev, tail, k)
			}
			prev = tail
		}
	}
}

// TestSparseChainStaysSparse pins what makes the direct product pay along
// a whole chain: its result is exactly zero wherever no pair of input
// bins lands, so the accumulator's support grows only as the sums do.
func TestSparseChainStaysSparse(t *testing.T) {
	const levels = 1024
	capacity := 10e9
	var pmfs []PMF
	lowest := 0
	for i := 0; i < 12; i++ {
		s := trace.AggregateSeries(int64(i), 600, 0.5e9, 0.1, 0.8)
		p := FromSamples(s, capacity/levels, levels)
		pmfs = append(pmfs, p)
		lowest += scanOperand(p.P, levels).lo
	}
	got := ConvolveAll(pmfs, levels, false)
	for i, v := range got.P[:lowest] {
		if v != 0 {
			t.Fatalf("bin %d below the sum of the operands' lowest bins (%d) holds %g, want exactly 0", i, lowest, v)
		}
	}
	if o := scanOperand(got.P, levels); o.nnz > levels/2 {
		t.Fatalf("12 sparse contributors convolved to %d non-zero bins", o.nnz)
	}
	// The retained FFT chain, by contrast, fills every bin with noise.
	if o := scanOperand(refConvolveAll(pmfs, levels).P, levels); o.nnz < levels/2 {
		t.Fatalf("reference chain has only %d non-zero bins; the premise of this test changed", o.nnz)
	}
}

// TestConvolvePicksMethodFromSupport: both methods are reachable through
// Convolve, and which one runs depends on the operands alone.
func TestConvolvePicksMethodFromSupport(t *testing.T) {
	const levels = 1024
	rng := rand.New(rand.NewSource(2))
	var c convolver
	dst := make([]float64, levels+1)
	sparse := scanOperand(shapedPMF(rng, levels, shapeSparse, 0).P, levels)
	dense := scanOperand(shapedPMF(rng, levels, shapeDense, 0).P, levels)
	c.convolve(dst, sparse, dense, levels)
	if c.fa != nil {
		t.Fatal("sparse x dense took the FFT")
	}
	c.convolve(dst, dense, dense, levels)
	if c.fa == nil {
		t.Fatal("dense x dense took the direct product")
	}
	if len(c.fa) != 2048 {
		t.Fatalf("two 1024-bin operands need a 2048-point transform, got %d", len(c.fa))
	}
}

// linkCase is one randomized CheckLink input.
func linkCase(rng *rand.Rand, trial int) ([][]float64, float64) {
	n := 1 + rng.Intn(24)
	series := make([][]float64, n)
	mean := 0.0
	for i := range series {
		bins := 600
		switch {
		case trial%5 == 3:
			bins = 1 + rng.Intn(700) // ragged
		case trial%7 == 6 && i == rng.Intn(n):
			bins = 0 // an aggregate with no measurements
		}
		m := 1e8 + rng.Float64()*9e8
		series[i] = trace.AggregateSeries(rng.Int63(), bins, m, 0.05+0.3*rng.Float64(), 0.8)
		mean += m
	}
	// From far too small (temporal failure) to roomy (prefilter).
	return series, mean * (0.8 + 1.2*rng.Float64())
}

// TestCheckLinkMatchesReference: the row-major queue walk and the
// precomputed-peak prefilter are the same arithmetic as the code they
// replace, so those outcomes are compared with ==; the convolution is
// fenced at 1e-9.
func TestCheckLinkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seen := map[string]int{}
	for trial := 0; trial < 400; trial++ {
		series, capacity := linkCase(rng, trial)
		for _, cfg := range []CheckConfig{{}, {DisablePeakPrefilter: true}} {
			got := CheckLink(series, capacity, cfg)
			want := refCheckLink(series, capacity, cfg)
			if got.Pass != want.Pass || got.SkippedByPeakSum != want.SkippedByPeakSum ||
				got.FailedTemporal != want.FailedTemporal || got.FailedConvolution != want.FailedConvolution {
				t.Fatalf("trial %d: verdict %+v, reference %+v", trial, got, want)
			}
			if got.MaxQueueSec != want.MaxQueueSec {
				t.Fatalf("trial %d: MaxQueueSec %v, reference %v", trial, got.MaxQueueSec, want.MaxQueueSec)
			}
			if d := math.Abs(got.ExceedProb - want.ExceedProb); d > 1e-9 {
				t.Fatalf("trial %d: ExceedProb %v, reference %v (diff %g)", trial, got.ExceedProb, want.ExceedProb, d)
			}
			if q := MaxQueueDelay(series, capacity, 0.1); q != refMaxQueueDelay(series, capacity, 0.1) {
				t.Fatalf("trial %d: MaxQueueDelay %v, reference %v", trial, q, refMaxQueueDelay(series, capacity, 0.1))
			}
			switch {
			case got.SkippedByPeakSum:
				seen["prefilter"]++
			case got.FailedTemporal:
				seen["temporal"]++
			case got.FailedConvolution:
				seen["convolution"]++
			default:
				seen["pass"]++
			}
		}
	}
	for _, outcome := range []string{"prefilter", "temporal", "convolution", "pass"} {
		if seen[outcome] < 10 {
			t.Fatalf("only %d cases ended in %q: %v", seen[outcome], outcome, seen)
		}
	}
}

// TestCheckLinkPeaksAgreesWithCheckLink: handing CheckLinkPeaks the peaks
// of scaled series as peak x fraction decides the prefilter exactly as
// scanning the scaled series does.
func TestCheckLinkPeaksAgreesWithCheckLink(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		series, capacity := linkCase(rng, trial)
		peaks := make([]float64, len(series))
		for i, s := range series {
			f := rng.Float64()
			scaled := make([]float64, len(s))
			for t, v := range s {
				scaled[t] = v * f
			}
			series[i] = scaled
			peaks[i] = Peak(s) * f
			if peaks[i] != Peak(scaled) {
				t.Fatalf("trial %d: Peak(s)*f = %v, Peak(s*f) = %v", trial, peaks[i], Peak(scaled))
			}
		}
		if got, want := CheckLinkPeaks(series, peaks, capacity, CheckConfig{}), CheckLink(series, capacity, CheckConfig{}); got != want {
			t.Fatalf("trial %d: %+v with peaks, %+v without", trial, got, want)
		}
	}
}
