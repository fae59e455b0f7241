package mux

import "math"

// The appraisal as it stood before convolution became support-aware, kept
// as the reference the differential tests hold the current code to: a
// 4096-point FFT at every step of the chain, a column-major queue walk, a
// peak scan per series per link.

func refFFT(a []complex128, invert bool) {
	n := len(a)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if invert {
			ang = -ang
		}
		wl := complex(math.Cos(ang), math.Sin(ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length >> 1
			for j := 0; j < half; j++ {
				u := a[i+j]
				v := a[i+j+half] * w
				a[i+j] = u + v
				a[i+j+half] = u - v
				w *= wl
			}
		}
	}
	if invert {
		inv := complex(1/float64(n), 0)
		for i := range a {
			a[i] *= inv
		}
	}
}

func refConvolveFFT(a, b PMF, levels int) PMF {
	n := 1
	for n < len(a.P)+len(b.P)-1 {
		n <<= 1
	}
	fa := make([]complex128, n)
	fb := make([]complex128, n)
	for i, v := range a.P {
		fa[i] = complex(v, 0)
	}
	for i, v := range b.P {
		fb[i] = complex(v, 0)
	}
	refFFT(fa, false)
	refFFT(fb, false)
	for i := range fa {
		fa[i] *= fb[i]
	}
	refFFT(fa, true)

	out := PMF{BinWidth: a.BinWidth, P: make([]float64, levels+1)}
	for i := 0; i < n; i++ {
		v := real(fa[i])
		if v <= 0 {
			continue
		}
		out.P[min(i, levels)] += v
	}
	sum := 0.0
	for _, v := range out.P {
		sum += v
	}
	if sum > 0 {
		inv := 1 / sum
		for i := range out.P {
			out.P[i] *= inv
		}
	}
	return out
}

func refConvolveAll(pmfs []PMF, levels int) PMF {
	acc := pmfs[0]
	for _, p := range pmfs[1:] {
		acc = refConvolveFFT(acc, p, levels)
	}
	return acc
}

func refMaxQueueDelay(series [][]float64, capacity float64, binSec float64) float64 {
	if len(series) == 0 {
		return 0
	}
	n := len(series[0])
	queueBits := 0.0
	maxDelay := 0.0
	for t := 0; t < n; t++ {
		load := 0.0
		for _, s := range series {
			if t < len(s) {
				load += s[t]
			}
		}
		queueBits += (load - capacity) * binSec
		if queueBits < 0 {
			queueBits = 0
		}
		if d := queueBits / capacity; d > maxDelay {
			maxDelay = d
		}
	}
	return maxDelay
}

func refCheckLink(series [][]float64, capacity float64, cfg CheckConfig) Verdict {
	cfg = cfg.withDefaults()
	if len(series) == 0 {
		return Verdict{Pass: true, SkippedByPeakSum: true}
	}
	if !cfg.DisablePeakPrefilter {
		peakSum := 0.0
		for _, s := range series {
			peak := 0.0
			for _, v := range s {
				if v > peak {
					peak = v
				}
			}
			peakSum += peak
		}
		if peakSum <= capacity {
			return Verdict{Pass: true, SkippedByPeakSum: true}
		}
	}
	v := Verdict{}
	v.MaxQueueSec = refMaxQueueDelay(series, capacity, cfg.BinSec)
	if v.MaxQueueSec > cfg.MaxQueueSec {
		v.FailedTemporal = true
		return v
	}
	pmfs := make([]PMF, len(series))
	binWidth := capacity / float64(levels)
	for i, s := range series {
		pmfs[i] = FromSamples(s, binWidth, levels)
	}
	v.ExceedProb = refConvolveAll(pmfs, levels).TailMass()
	if v.ExceedProb > cfg.Threshold() {
		v.FailedConvolution = true
		return v
	}
	v.Pass = true
	return v
}
