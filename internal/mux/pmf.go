package mux

import "math/bits"

// PMF is a discrete probability mass function over bitrate. Bin i covers
// [i*BinWidth, (i+1)*BinWidth); the final bin is an overflow bucket that
// accumulates all mass at or beyond the link capacity, so TailMass is the
// probability of exceeding the link.
type PMF struct {
	BinWidth float64
	P        []float64 // length Levels+1; P[Levels] is the overflow bucket
}

// FromSamples quantizes bitrate samples into a PMF with the given bin
// width and number of in-range levels. Negative samples land in bin 0;
// samples at or beyond levels*binWidth, and samples that cannot be read
// (NaN) or placed (binWidth 0), land in the overflow bucket — an
// unreadable measurement must not make a link look idle.
func FromSamples(samples []float64, binWidth float64, levels int) PMF {
	p := PMF{BinWidth: binWidth, P: make([]float64, levels+1)}
	quantize(p.P, samples, binWidth, levels)
	return p
}

// quantize is FromSamples into dst (levels+1 zeroed bins); it returns
// where the mass went.
func quantize(dst []float64, samples []float64, binWidth float64, levels int) operand {
	o := operand{p: dst}
	if len(samples) == 0 {
		dst[0] = 1
		o.measure(0, 0)
		return o
	}
	w := 1 / float64(len(samples))
	lo, hi := levels, -1
	for _, v := range samples {
		// Clamp before converting: int() of a NaN, an infinity or a
		// quotient beyond int64 is implementation-defined.
		q := v / binWidth
		if !(q < float64(levels)) { // also NaN
			dst[levels] += w
			continue
		}
		idx := 0
		if q > 0 {
			idx = int(q)
		}
		lo, hi = min(lo, idx), max(hi, idx)
		dst[idx] += w
	}
	o.measure(lo, hi)
	o.tail = dst[levels]
	return o
}

// TailMass returns the probability in the overflow bucket: the chance the
// quantity meets or exceeds levels*BinWidth (the link capacity in
// CheckLink's usage).
func (p PMF) TailMass() float64 {
	if len(p.P) == 0 {
		return 0
	}
	return p.P[len(p.P)-1]
}

// Mean returns the expected value, attributing each bin its lower edge and
// the overflow bucket the capacity bound.
func (p PMF) Mean() float64 {
	m := 0.0
	for i, pi := range p.P {
		m += float64(pi * float64(i) * p.BinWidth)
	}
	return m
}

// Convolve returns the distribution of the sum of two independent
// quantities, clamped into the same levels+overflow layout: mass from
// either operand's overflow bucket, and in-range mass whose sum reaches
// levels, lands in the result's overflow bucket.
//
// The method follows the operands: the direct product over their non-zero
// bins when that is less work than three transforms, the FFT otherwise
// (directCrossover; the package comment has the numerics). useNaive
// selects the unrestricted O(levels^2) product whatever the operands
// hold, for the ablation.
func Convolve(a, b PMF, levels int, useNaive bool) PMF {
	if useNaive {
		return convolveNaive(a, b, levels)
	}
	out := PMF{BinWidth: a.BinWidth, P: make([]float64, levels+1)}
	var c convolver
	c.convolve(out.P, scanOperand(a.P, levels), scanOperand(b.P, levels), levels)
	return out
}

// ConvolveAll folds a list of PMFs into the distribution of their sum.
func ConvolveAll(pmfs []PMF, levels int, useNaive bool) PMF {
	if len(pmfs) == 0 {
		return PMF{BinWidth: 1, P: []float64{1}}
	}
	if useNaive || len(pmfs) == 1 {
		acc := pmfs[0]
		for _, p := range pmfs[1:] {
			acc = convolveNaive(acc, p, levels)
		}
		return acc
	}
	ch := newChain(levels)
	acc := scanOperand(pmfs[0].P, levels)
	for _, p := range pmfs[1:] {
		acc = ch.step(acc, scanOperand(p.P, levels))
	}
	return PMF{BinWidth: pmfs[0].BinWidth, P: acc.p}
}

func convolveNaive(a, b PMF, levels int) PMF {
	out := PMF{BinWidth: a.BinWidth, P: make([]float64, levels+1)}
	for i, pa := range a.P {
		if pa == 0 {
			continue
		}
		aOver := i >= levels
		for j, pb := range b.P {
			if pb == 0 {
				continue
			}
			idx := i + j
			if aOver || j >= levels || idx >= levels {
				idx = levels
			}
			out.P[idx] += float64(pa * pb)
		}
	}
	return out
}

// operand is a PMF's bins together with where their mass sits — what a
// convolution picks its method from.
type operand struct {
	p      []float64 // the bins; indices >= levels are overflow
	lo, hi int       // first and last non-zero in-range bin; lo > hi when there is none
	nnz    int       // non-zero in-range bins
	mass   float64   // in-range mass
	tail   float64   // overflow mass
}

// scanOperand finds the support of bins it knows nothing about.
func scanOperand(p []float64, levels int) operand {
	in := p[:min(len(p), levels)]
	o := operand{p: p}
	o.measure(0, len(in)-1)
	for _, v := range p[len(in):] {
		o.tail += v
	}
	return o
}

// measure sets the support from the in-range bins first..last, outside of
// which the operand is known to be zero.
func (o *operand) measure(first, last int) {
	o.lo, o.hi, o.nnz, o.mass = 0, -1, 0, 0
	for i := first; i <= last; i++ {
		if v := o.p[i]; v != 0 {
			if o.nnz == 0 {
				o.lo = i
			}
			o.hi = i
			o.nnz++
			o.mass += v
		}
	}
}

// directCrossover is how many multiply-adds of the direct product cost as
// much as one FFT butterfly: the direct product runs when its
// multiply-adds number at most directCrossover x the butterflies of the
// three transforms. Set from BenchmarkConvolve: on the reference box a
// multiply-add takes 0.55 ns (sparse and dense pair alike) and a
// butterfly, with its share of the packing, bit reversal and unpacking,
// 3.3 ns at 2048 points and 3.8 ns at 128.
const directCrossover = 6

// convolver holds the FFT scratch one chain of convolutions shares.
type convolver struct {
	fa, fb []complex128
}

// convolve writes the clamped convolution of a and b into dst (levels+1
// bins, overwritten) and returns it with its support.
func (c *convolver) convolve(dst []float64, a, b operand, levels int) operand {
	clear(dst)
	out := operand{p: dst, hi: -1}
	// Overflow is sticky: a's overflow with any of b, b's with a's
	// in-range bins. In-range pairs that reach levels are added below.
	over := float64(a.tail*(b.mass+b.tail)) + float64(b.tail*a.mass)
	if a.nnz > 0 && b.nnz > 0 {
		// The direct product walks one operand's non-zero bins and, for
		// each, the other's whole span; a is the one that makes that the
		// smaller number of multiply-adds.
		spanA, spanB := a.hi-a.lo+1, b.hi-b.lo+1
		if b.nnz*spanA < a.nnz*spanB {
			a, b, spanA, spanB = b, a, spanB, spanA
		}
		first, last := a.lo+b.lo, min(a.hi+b.hi, levels-1)
		n := max(2, 1<<bits.Len(uint(spanA+spanB-2))) // >= spanA+spanB-1
		butterflies := 3 * (n / 2) * bits.Len(uint(n-1))
		if a.nnz*spanB <= directCrossover*butterflies {
			over += directProduct(dst, a, b, levels)
		} else {
			over += c.fftProduct(dst, a, b, n, levels)
		}
		out.measure(first, last)
	}
	dst[levels] = over
	out.tail = over
	return out
}

// directProduct accumulates a's non-zero bins times b's span into dst and
// returns the mass that landed at or beyond levels.
func directProduct(dst []float64, a, b operand, levels int) float64 {
	over := 0.0
	bs := b.p[b.lo : b.hi+1]
	for i := a.lo; i <= a.hi; i++ {
		pa := a.p[i]
		if pa == 0 {
			continue
		}
		// The first cut bins of b's span stay in range when added to i.
		cut := max(0, min(levels-i-b.lo, len(bs)))
		if cut > 0 {
			out := dst[i+b.lo:][:cut]
			for j, pb := range bs[:cut] {
				out[j] += float64(pa * pb)
			}
		}
		for _, pb := range bs[cut:] {
			over += float64(pa * pb)
		}
	}
	return over
}

// fftProduct is directProduct by transform: both spans shifted to the
// origin and padded to n >= spanA+spanB-1 points. Bins outside the
// product's span are left exactly zero.
func (c *convolver) fftProduct(dst []float64, a, b operand, n, levels int) float64 {
	if cap(c.fa) < n {
		c.fa, c.fb = make([]complex128, n), make([]complex128, n)
	}
	fa, fb := c.fa[:n], c.fb[:n]
	clear(fa)
	clear(fb)
	for i, v := range a.p[a.lo : a.hi+1] {
		fa[i] = complex(v, 0)
	}
	for i, v := range b.p[b.lo : b.hi+1] {
		fb[i] = complex(v, 0)
	}
	fft(fa, false)
	fft(fb, false)
	for i := range fa {
		fa[i] = cmul(fa[i], fb[i])
	}
	fft(fa, true)

	over := 0.0
	base := a.lo + b.lo
	for k, z := range fa[:a.hi-a.lo+b.hi-b.lo+1] {
		v := real(z)
		if v <= 0 {
			continue // round-off can go slightly negative
		}
		if idx := base + k; idx < levels {
			dst[idx] = v
		} else {
			over += v
		}
	}
	return over
}

// chain folds operands left to right, alternating between two result
// buffers so a step allocates nothing.
type chain struct {
	convolver
	levels int
	bufs   [2][]float64
	next   int
}

func newChain(levels int) *chain {
	ch := &chain{levels: levels}
	ch.bufs[0], ch.bufs[1] = make([]float64, levels+1), make([]float64, levels+1)
	return ch
}

// step returns acc convolved with p. The result lives in one of the
// chain's buffers and is valid until the step after next.
func (ch *chain) step(acc, p operand) operand {
	dst := ch.bufs[ch.next]
	ch.next ^= 1
	return ch.convolve(dst, acc, p, ch.levels)
}
