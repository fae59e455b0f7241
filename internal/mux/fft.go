package mux

import (
	"math"
	"math/bits"
	"sync"
)

// stageTwiddles[s] holds the 2^s factors exp(iπj/2^s), j < 2^s, that the
// butterflies of half-length 2^s multiply by. A stage's factors do not
// depend on the transform size, so each is computed once, directly from
// its angle, and every transform of every size reads the same values.
var stageTwiddles [bits.UintSize - 1]struct {
	once sync.Once
	w    []complex128
}

func twiddles(stage int) []complex128 {
	t := &stageTwiddles[stage]
	t.once.Do(func() {
		half := 1 << stage
		t.w = make([]complex128, half)
		for j := range t.w {
			sin, cos := math.Sincos(math.Pi * float64(j) / float64(half))
			t.w[j] = complex(cos, sin)
		}
	})
	return t.w
}

// fft performs an in-place iterative radix-2 Cooley-Tukey transform.
// len(a) must be a power of two. invert=true computes the inverse
// transform including the 1/n scaling.
func fft(a []complex128, invert bool) {
	n := len(a)
	if n&(n-1) != 0 {
		panic("mux: fft length must be a power of two")
	}
	// Bit-reversal permutation.
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
	// The inverse transform's factors are the conjugates.
	sign := 1.0
	if invert {
		sign = -1
	}
	for stage, half := 0, 1; half < n; stage, half = stage+1, half<<1 {
		tw := twiddles(stage)
		for i := 0; i < n; i += 2 * half {
			lo, hi := a[i:i+half], a[i+half:i+2*half]
			for j, w := range tw {
				u := lo[j]
				v := cmul(hi[j], complex(real(w), sign*imag(w)))
				lo[j] = u + v
				hi[j] = u - v
			}
		}
	}
	if invert {
		inv := complex(1/float64(n), 0)
		for i := range a {
			a[i] = cmul(a[i], inv)
		}
	}
}

// cmul is a*b with each part's two products rounded before their sum,
// as amd64 computes a complex *, which other architectures may fuse.
func cmul(a, b complex128) complex128 {
	return complex(float64(real(a)*real(b))-float64(imag(a)*imag(b)),
		float64(real(a)*imag(b))+float64(imag(a)*real(b)))
}
