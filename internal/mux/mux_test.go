package mux

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"lowlat/internal/trace"
)

func TestFFTRoundTrip(t *testing.T) {
	f := func(raw []float64) bool {
		n := 1
		for n < len(raw)+1 {
			n <<= 1
		}
		a := make([]complex128, n)
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			a[i] = complex(math.Mod(v, 1e6), 0)
		}
		orig := append([]complex128(nil), a...)
		fft(a, false)
		fft(a, true)
		for i := range a {
			if cmplx.Abs(a[i]-orig[i]) > 1e-6*(1+cmplx.Abs(orig[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFFTKnownTransform(t *testing.T) {
	// FFT of an impulse is flat.
	a := []complex128{1, 0, 0, 0}
	fft(a, false)
	for i, v := range a {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT[%d] = %v, want 1", i, v)
		}
	}
}

func TestFFTPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fft(make([]complex128, 3), false)
}

func TestFromSamples(t *testing.T) {
	p := FromSamples([]float64{0, 5, 15, 25, 1000}, 10, 3)
	// bins: [0,10): {0,5} -> 0.4; [10,20): {15} -> 0.2; [20,30): {25} -> 0.2;
	// overflow (>=30): {1000} -> 0.2.
	want := []float64{0.4, 0.2, 0.2, 0.2}
	for i, w := range want {
		if math.Abs(p.P[i]-w) > 1e-12 {
			t.Fatalf("P[%d] = %v, want %v", i, p.P[i], w)
		}
	}
	if math.Abs(p.TailMass()-0.2) > 1e-12 {
		t.Fatalf("tail = %v", p.TailMass())
	}
	empty := FromSamples(nil, 10, 3)
	if empty.P[0] != 1 {
		t.Fatal("empty PMF should be a point mass at zero")
	}
}

func TestFromSamplesClampsBeforeConverting(t *testing.T) {
	// int() of an out-of-range float is implementation-defined: +Inf is
	// bin 0 on amd64 and the overflow bucket on arm64 unless the clamp
	// happens in floating point. Unreadable samples count as overflow.
	const levels = 4
	for _, tc := range []struct {
		name     string
		sample   float64
		binWidth float64
		bin      int
	}{
		{"zero", 0, 10, 0},
		{"in range", 25, 10, 2},
		{"last in-range bin", 39.999, 10, 3},
		{"exactly capacity", 40, 10, levels},
		{"beyond capacity", 1e6, 10, levels},
		{"beyond int64", 1e300, 10, levels},
		{"+Inf", math.Inf(1), 10, levels},
		{"NaN", math.NaN(), 10, levels},
		{"small negative", -3, 10, 0},
		{"negative beyond int64", -1e300, 10, 0},
		{"-Inf", math.Inf(-1), 10, 0},
		{"zero bin width, traffic", 5, 0, levels},
		{"zero bin width, no traffic", 0, 0, levels}, // 0/0 is NaN
		{"zero bin width, negative", -5, 0, 0},
	} {
		p := FromSamples([]float64{tc.sample}, tc.binWidth, levels)
		for i, v := range p.P {
			if want := map[bool]float64{true: 1, false: 0}[i == tc.bin]; v != want {
				t.Errorf("%s: P = %v, want all mass in bin %d", tc.name, p.P, tc.bin)
				break
			}
		}
	}
}

func TestConvolveMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Which operands carry overflow mass: neither, one side, the other,
	// both. Small supports take the direct product, large ones the FFT.
	for trial := 0; trial < 120; trial++ {
		levels := 8 + rng.Intn(120)
		if trial%3 == 0 {
			levels = 200 + rng.Intn(400)
		}
		mk := func(overflow bool) PMF {
			n := 1 + rng.Intn(levels)
			p := PMF{BinWidth: 1, P: make([]float64, levels+1)}
			sum := 0.0
			for i := 0; i < n; i++ {
				p.P[rng.Intn(levels)] += rng.Float64()
			}
			if overflow {
				p.P[levels] = rng.Float64()
			}
			for _, v := range p.P {
				sum += v
			}
			for i := range p.P {
				p.P[i] /= sum
			}
			return p
		}
		a, b := mk(trial&1 != 0), mk(trial&2 != 0)
		fast := Convolve(a, b, levels, false)
		slow := Convolve(a, b, levels, true)
		for i := range fast.P {
			if math.Abs(fast.P[i]-slow.P[i]) > 1e-9 {
				t.Fatalf("trial %d: bin %d: adaptive %v naive %v", trial, i, fast.P[i], slow.P[i])
			}
		}
		// Both methods, whichever Convolve picked.
		var c convolver
		oa, ob := scanOperand(a.P, levels), scanOperand(b.P, levels)
		direct, viaFFT := make([]float64, levels+1), make([]float64, levels+1)
		overlap := oa.tail*(ob.mass+ob.tail) + ob.tail*oa.mass
		direct[levels] = overlap + directProduct(direct, oa, ob, levels)
		n := 1
		for n < oa.hi-oa.lo+ob.hi-ob.lo+1 {
			n <<= 1
		}
		viaFFT[levels] = overlap + c.fftProduct(viaFFT, oa, ob, n, levels)
		for i := range slow.P {
			if math.Abs(direct[i]-slow.P[i]) > 1e-12 || math.Abs(viaFFT[i]-slow.P[i]) > 1e-9 {
				t.Fatalf("trial %d: bin %d: direct %v fft %v naive %v", trial, i, direct[i], viaFFT[i], slow.P[i])
			}
		}
	}
}

func TestConvolveIndependentSum(t *testing.T) {
	// Two fair coins at bitrates {0, 10} convolve to {0:0.25, 10:0.5, 20:0.25}.
	coin := PMF{BinWidth: 10, P: []float64{0.5, 0.5, 0, 0, 0}}
	sum := Convolve(coin, coin, 4, false)
	want := []float64{0.25, 0.5, 0.25, 0, 0}
	for i, w := range want {
		if math.Abs(sum.P[i]-w) > 1e-9 {
			t.Fatalf("P[%d] = %v, want %v", i, sum.P[i], w)
		}
	}
}

func TestConvolveOverflowSticky(t *testing.T) {
	// Mass already in overflow stays in overflow after convolution.
	over := PMF{BinWidth: 1, P: []float64{0.5, 0, 0.5}} // levels=2
	in := PMF{BinWidth: 1, P: []float64{0.5, 0.5, 0}}
	for _, tc := range []struct {
		name       string
		a, b       PMF
		p0, p1, tl float64
	}{
		// (over+over): only 0+0 stays in range: 0.25 at 0; everything
		// else involves >= capacity mass or lands at >= 2.
		{"both sides", over, over, 0.25, 0, 0.75},
		// (over+in): 0+0 and 0+1 stay in range.
		{"left only", over, in, 0.25, 0.25, 0.5},
		{"right only", in, over, 0.25, 0.25, 0.5},
		// (in+in): 1+1 reaches capacity with no overflow mass going in.
		{"neither", in, in, 0.25, 0.5, 0.25},
	} {
		for _, naive := range []bool{false, true} {
			sum := Convolve(tc.a, tc.b, 2, naive)
			if math.Abs(sum.P[0]-tc.p0) > 1e-9 || math.Abs(sum.P[1]-tc.p1) > 1e-9 || math.Abs(sum.TailMass()-tc.tl) > 1e-9 {
				t.Fatalf("%s (naive %v): %v, want [%v %v %v]", tc.name, naive, sum.P, tc.p0, tc.p1, tc.tl)
			}
		}
	}
	// An operand that is all overflow, and one with no overflow bucket at
	// all (ConvolveAll's empty product).
	all := PMF{BinWidth: 1, P: []float64{0, 0, 1}}
	one := ConvolveAll(nil, 2, false)
	for _, naive := range []bool{false, true} {
		if got := Convolve(all, in, 2, naive); got.TailMass() != 1 || got.P[0] != 0 || got.P[1] != 0 {
			t.Fatalf("all-overflow operand (naive %v): %v", naive, got.P)
		}
		if got := Convolve(one, in, 2, naive); got.P[0] != 0.5 || got.P[1] != 0.5 || got.TailMass() != 0 {
			t.Fatalf("identity operand (naive %v): %v", naive, got.P)
		}
	}
}

func TestMaxQueueDelay(t *testing.T) {
	// Load 1.5x capacity for 2 bins then idle: queue grows to
	// 2 * 0.5*C*binSec bits -> delay = 1.0 * binSec.
	c := 10e9
	series := [][]float64{{1.5 * c, 1.5 * c, 0, 0}}
	d := MaxQueueDelay(series, c, 0.1)
	if math.Abs(d-0.1) > 1e-9 {
		t.Fatalf("max queue delay = %v, want 0.1", d)
	}
	// Under capacity: no queue at all.
	if d := MaxQueueDelay([][]float64{{c * 0.9, c * 0.9}}, c, 0.1); d != 0 {
		t.Fatalf("under capacity delay = %v", d)
	}
	if d := MaxQueueDelay(nil, c, 0.1); d != 0 {
		t.Fatal("no series should mean no queue")
	}
}

func TestCheckLinkPeakSumPrefilter(t *testing.T) {
	c := 10e9
	series := [][]float64{
		constSeries(3e9, 600),
		constSeries(4e9, 600),
	}
	v := CheckLink(series, c, CheckConfig{})
	if !v.Pass || !v.SkippedByPeakSum {
		t.Fatalf("peak sum 7G on 10G must pass via prefilter: %+v", v)
	}
	// Disabling the prefilter must not change the outcome.
	v2 := CheckLink(series, c, CheckConfig{DisablePeakPrefilter: true})
	if !v2.Pass || v2.SkippedByPeakSum {
		t.Fatalf("prefilter-off should run the tests and still pass: %+v", v2)
	}
}

func TestCheckLinkTemporalCorrelationFails(t *testing.T) {
	// Two aggregates bursting in the same bins: their sum exceeds the
	// link for long enough to build a 50ms queue.
	c := 10e9
	burst := make([]float64, 600)
	for i := range burst {
		burst[i] = 2e9
		if i >= 100 && i < 110 {
			burst[i] = 8e9 // synchronized 1s burst
		}
	}
	series := [][]float64{burst, burst}
	v := CheckLink(series, c, CheckConfig{})
	if v.Pass || !v.FailedTemporal {
		t.Fatalf("synchronized bursts must fail the temporal test: %+v", v)
	}
}

func TestCheckLinkUncorrelatedPassesWhereCorrelatedFails(t *testing.T) {
	// Same marginal distributions; only the alignment differs. Bursty
	// aggregates that never overlap multiplex fine; aligned ones do not.
	c := 10e9
	n := 600
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i], b[i] = 2e9, 2e9
		if i%20 == 0 {
			a[i] = 9e9
		}
		if i%20 == 10 {
			b[i] = 9e9 // offset bursts: no overlap
		}
	}
	v := CheckLink([][]float64{a, b}, c, CheckConfig{})
	if v.FailedTemporal {
		t.Fatalf("non-overlapping bursts shouldn't queue: %+v", v)
	}
	// The convolution test sees P(sum > 10G) = P(a=9)*P(b=9) = 0.0025,
	// far above 0.00016: reject.
	if v.Pass || !v.FailedConvolution {
		t.Fatalf("independent 5%% bursts at 9G each must fail the PMF test: %+v", v)
	}

	// Rare enough bursts pass: one 6G burst each per 600 bins gives
	// P(sum>10G) ~ (1/600)^2.
	a2 := constSeries(2e9, n)
	b2 := constSeries(2e9, n)
	a2[7] = 6e9
	b2[300] = 6e9
	v2 := CheckLink([][]float64{a2, b2}, c, CheckConfig{DisablePeakPrefilter: true})
	if !v2.Pass {
		t.Fatalf("rare independent bursts should pass: %+v", v2)
	}
}

func TestCheckLinkThreshold(t *testing.T) {
	cfg := CheckConfig{}
	if got := cfg.Threshold(); math.Abs(got-0.010/60) > 1e-12 {
		t.Fatalf("threshold = %v, want 10ms/60s (the paper's 0.00016)", got)
	}
	if math.Abs(cfg.Threshold()-0.00016) > 2e-5 {
		t.Fatalf("threshold should be ~0.00016, got %v", cfg.Threshold())
	}
}

func TestCheckLinkEmpty(t *testing.T) {
	if v := CheckLink(nil, 1e9, CheckConfig{}); !v.Pass {
		t.Fatal("no aggregates must pass")
	}
}

func TestPMFMean(t *testing.T) {
	p := PMF{BinWidth: 10, P: []float64{0.5, 0, 0.5}}
	if m := p.Mean(); math.Abs(m-10) > 1e-12 {
		t.Fatalf("mean = %v, want 10", m)
	}
}

func constSeries(v float64, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// BenchmarkConvolve is the evidence for directCrossover: both methods on
// the pair the appraisal meets all the time (two PMFs of 600 samples each,
// a handful of non-zero bins) and on the pair it must not be slow on (two
// full-support PMFs). ns/op over the work — multiply-adds for direct,
// butterflies for fft, both reported — gives the two unit costs whose
// ratio the constant is.
func BenchmarkConvolve(b *testing.B) {
	const levels = 1024
	rng := rand.New(rand.NewSource(1))
	binWidth := 10e9 / levels
	pairs := []struct {
		name string
		a, b PMF
	}{
		{"sparse",
			FromSamples(trace.AggregateSeries(1, 600, 0.5e9, 0.1, 0.8), binWidth, levels),
			FromSamples(trace.AggregateSeries(2, 600, 0.7e9, 0.1, 0.8), binWidth, levels)},
		{"dense", randomPMF(rng, levels), randomPMF(rng, levels)},
	}
	for _, pair := range pairs {
		oa, ob := scanOperand(pair.a.P, levels), scanOperand(pair.b.P, levels)
		spanA, spanB := oa.hi-oa.lo+1, ob.hi-ob.lo+1
		n := 1
		for n < spanA+spanB-1 {
			n <<= 1
		}
		dst := make([]float64, levels+1)
		b.Run(pair.name+"/direct", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clear(dst)
				sinkTail = directProduct(dst, oa, ob, levels)
			}
			b.ReportMetric(float64(oa.nnz*spanB), "madds/op")
		})
		b.Run(pair.name+"/fft", func(b *testing.B) {
			var c convolver
			for i := 0; i < b.N; i++ {
				clear(dst)
				sinkTail = c.fftProduct(dst, oa, ob, n, levels)
			}
			b.ReportMetric(float64(3*(n/2)*bits.Len(uint(n-1))), "butterflies/op")
		})
		b.Run(pair.name+"/adaptive", func(b *testing.B) {
			var c convolver
			for i := 0; i < b.N; i++ {
				sinkTail = c.convolve(dst, oa, ob, levels).tail
			}
		})
	}
}

var sinkTail float64

func BenchmarkConvolveNaive1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := randomPMF(rng, 1024)
	q := randomPMF(rng, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Convolve(p, q, 1024, true)
	}
}

func randomPMF(rng *rand.Rand, levels int) PMF {
	p := PMF{BinWidth: 1, P: make([]float64, levels+1)}
	sum := 0.0
	for i := range p.P {
		p.P[i] = rng.Float64()
		sum += p.P[i]
	}
	for i := range p.P {
		p.P[i] /= sum
	}
	return p
}
