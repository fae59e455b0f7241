// Package loadgen is the benchmark's load generator: seeded request
// draws (Zipf key popularity, a traffic-class mix), a closed-loop driver
// (N callers each waiting for a reply) and an open-loop driver (a fixed
// schedule, every request timed from the instant it was due, so a stall
// in the system under test shows up in the latency of the requests it
// delayed instead of silently thinning the load — no coordinated
// omission).
package loadgen

import (
	"math"
	"math/rand"
	"sort"
)

// Zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
// The table is explicit (n is a few thousand keys), so any s > 0 works
// and a draw is one binary search.
type Zipf struct {
	cdf []float64
}

// NewZipf builds the sampler for n ranks with exponent s.
func NewZipf(n int, s float64) *Zipf {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Rank maps a uniform u in [0,1) to a rank.
func (z *Zipf) Rank(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// Mix is a traffic-class mix: class i is drawn with probability
// Weights[i] / sum(Weights).
type Mix struct {
	cum []float64
}

// NewMix builds a mix from class weights.
func NewMix(weights ...float64) Mix {
	cum := make([]float64, len(weights))
	var sum float64
	for i, w := range weights {
		sum += w
		cum[i] = sum
	}
	for i := range cum {
		cum[i] /= sum
	}
	return Mix{cum: cum}
}

// Class maps a uniform u in [0,1) to a class index.
func (m Mix) Class(u float64) int {
	i := sort.SearchFloat64s(m.cum, u)
	if i >= len(m.cum) {
		i = len(m.cum) - 1
	}
	return i
}

// Stream is one caller's private random stream. Every draw a caller
// makes comes from its stream in request order, so the request sequence
// of caller c is a pure function of (seed, c) — how far along it a run
// gets depends on the system's speed, what it contains does not.
func Stream(seed int64, caller int) *rand.Rand {
	// splitmix64 over (seed, caller) so neighbouring seeds and callers
	// get unrelated streams.
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(caller+1)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

// Permutation returns a seeded shuffle of 0..n-1: which key holds which
// popularity rank.
func Permutation(seed int64, n int) []int {
	return Stream(seed, -7).Perm(n)
}
