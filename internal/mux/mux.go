// Package mux implements the statistical-multiplexing appraisal at the
// heart of LDR's headroom computation (§5, Figure 14): given per-aggregate
// short-timescale (100 ms) bandwidth measurements, decide whether a set of
// aggregates can share a link without building queues beyond a bound.
//
// Two tests mirror the paper's design:
//
//   - a temporal-correlation test (B): sum the aggregates' synchronized
//     100 ms series, carry queued excess over to the next period, and
//     reject if the worst-case transient queue exceeds the bound;
//   - an uncorrelated multiplexing test (C): treat each aggregate's
//     measurements as a PMF, convolve the PMFs of co-located aggregates,
//     and reject if the probability that the convolved load exceeds link
//     capacity is above maxQueue/measurement-interval (10 ms / 60 s =
//     0.00016 in the paper).
//
// A peak-sum prefilter skips both tests when the aggregates cannot
// possibly exceed the link even if all peak simultaneously.
//
// The paper convolves "via FFT" at 1024 levels. A minute of 100 ms samples
// fills a handful of those levels (median 5-6 non-zero bins of 1025 on the
// reopt_loop workload), so each convolution here picks its method from its
// operands' support: the direct product over the non-zero bins when that
// is fewer multiply-adds than the transforms' butterflies (directCrossover
// sets the exchange rate), the FFT — sized to the operands' spans, not to
// the grid — otherwise. The direct product is the exact one of the two:
// bins no pair of inputs reaches stay exactly zero, so a chain of sparse
// contributors stays sparse, where the FFT leaves ~1e-17 in every bin. The
// two agree on ExceedProb to well within 1e-9 (the differential tests'
// fence), four orders of magnitude inside the decision threshold.
package mux

// levels is the PMF quantization of the uncorrelated test (paper: 1024).
const levels = 1024

// CheckConfig parameterizes the multiplexing tests. Zero values take the
// paper's defaults.
type CheckConfig struct {
	// MaxQueueSec is the largest tolerable transient queueing delay
	// (paper: 10 ms).
	MaxQueueSec float64
	// BinSec is the duration of one measurement bin (paper: 100 ms).
	BinSec float64
	// IntervalSec is the span the measurements cover (paper: 60 s);
	// the exceedance threshold is MaxQueueSec / IntervalSec.
	IntervalSec float64
	// DisablePeakPrefilter turns off the peak-sum shortcut, for the
	// ablation benchmark.
	DisablePeakPrefilter bool
}

func (c CheckConfig) withDefaults() CheckConfig {
	if c.MaxQueueSec <= 0 {
		c.MaxQueueSec = 0.010
	}
	if c.BinSec <= 0 {
		c.BinSec = 0.100
	}
	if c.IntervalSec <= 0 {
		c.IntervalSec = 60
	}
	return c
}

// Threshold returns the exceedance-probability bound maxQueue/interval.
func (c CheckConfig) Threshold() float64 {
	c = c.withDefaults()
	return c.MaxQueueSec / c.IntervalSec
}

// Verdict is the outcome of CheckLink.
type Verdict struct {
	Pass bool
	// SkippedByPeakSum is true when the peak-sum prefilter proved the
	// link safe without running either test.
	SkippedByPeakSum bool
	// MaxQueueSec is the worst transient queueing delay found by the
	// temporal-correlation test (0 when skipped).
	MaxQueueSec float64
	// ExceedProb is P(convolved load > capacity) from the PMF test
	// (0 when skipped).
	ExceedProb float64
	// FailedTemporal / FailedConvolution identify which test rejected.
	FailedTemporal    bool
	FailedConvolution bool
}

// CheckLink appraises whether the given aggregates multiplex acceptably on
// a link of the given capacity (bits/sec). series[i] holds aggregate i's
// measured bitrate (bits/sec) per 100 ms bin; all series must be the same
// length and time-aligned. The series are only read.
func CheckLink(series [][]float64, capacity float64, cfg CheckConfig) Verdict {
	peakSum := 0.0
	if !cfg.DisablePeakPrefilter {
		for _, s := range series {
			peakSum += Peak(s)
		}
	}
	return checkLink(series, peakSum, capacity, cfg.withDefaults())
}

// Peak returns the largest sample of the series, and 0 for a series with
// no positive sample.
func Peak(s []float64) float64 {
	peak := 0.0
	for _, v := range s {
		if v > peak {
			peak = v
		}
	}
	return peak
}

// CheckLinkPeaks is CheckLink for a caller that already knows
// peaks[i] == Peak(series[i]) — a controller that appraises the same
// aggregates on many links, round after round. A link the prefilter
// clears then costs one addition per aggregate, not a pass over its
// samples. peaks is not read when the prefilter is disabled.
func CheckLinkPeaks(series [][]float64, peaks []float64, capacity float64, cfg CheckConfig) Verdict {
	peakSum := 0.0
	if !cfg.DisablePeakPrefilter {
		for _, peak := range peaks {
			peakSum += peak
		}
	}
	return checkLink(series, peakSum, capacity, cfg.withDefaults())
}

// checkLink runs the tests; peakSum is the sum of the series' peaks, in
// order, and cfg has its defaults filled in.
func checkLink(series [][]float64, peakSum, capacity float64, cfg CheckConfig) Verdict {
	if len(series) == 0 {
		return Verdict{Pass: true, SkippedByPeakSum: true}
	}
	// Peak-sum prefilter: if even simultaneous peaks fit, both tests
	// pass by construction.
	if !cfg.DisablePeakPrefilter && peakSum <= capacity {
		return Verdict{Pass: true, SkippedByPeakSum: true}
	}

	v := Verdict{}
	v.MaxQueueSec = MaxQueueDelay(series, capacity, cfg.BinSec)
	if v.MaxQueueSec > cfg.MaxQueueSec {
		v.FailedTemporal = true
		return v
	}

	v.ExceedProb = exceedProb(series, capacity)
	if v.ExceedProb > cfg.Threshold() {
		v.FailedConvolution = true
		return v
	}
	v.Pass = true
	return v
}

// exceedProb is the uncorrelated test: the probability that the sum of
// the series, taken as independent, reaches capacity.
func exceedProb(series [][]float64, capacity float64) float64 {
	binWidth := capacity / float64(levels)
	// One buffer for the first series' PMF, one that each later series
	// is quantized into in turn, two for the chain's results.
	ch := newChain(levels)
	acc := quantize(make([]float64, levels+1), series[0], binWidth, levels)
	next := make([]float64, levels+1)
	for _, s := range series[1:] {
		clear(next)
		acc = ch.step(acc, quantize(next, s, binWidth, levels))
	}
	return acc.tail
}

// MaxQueueDelay runs the temporal-correlation test: it sums the aligned
// series per bin, carries excess over capacity into the next bin as queued
// bytes, and returns the maximum queueing delay in seconds.
func MaxQueueDelay(series [][]float64, capacity float64, binSec float64) float64 {
	if len(series) == 0 {
		return 0
	}
	// Series by series into one buffer: per bin the same additions in
	// the same order as bin by bin across the series, read contiguously.
	loads := make([]float64, len(series[0]))
	for _, s := range series {
		for t, v := range s[:min(len(s), len(loads))] {
			loads[t] += v
		}
	}
	queueBits := 0.0
	maxDelay := 0.0
	for _, load := range loads {
		// Arrivals this bin plus backlog, drained at link rate.
		queueBits += float64((load - capacity) * binSec)
		if queueBits < 0 {
			queueBits = 0
		}
		if d := queueBits / capacity; d > maxDelay {
			maxDelay = d
		}
	}
	return maxDelay
}
