package dynamics

import (
	"math"

	"lowlat/internal/stats"
	"lowlat/internal/tm"
	"lowlat/internal/trace"
)

// DiurnalScales returns one multiplicative demand factor per epoch tracing
// a full sinusoidal day across the run: 1 + amplitude * sin(2π e/epochs),
// clamped at 0 should amplitude exceed 1 (Config.validate rejects that,
// but direct callers get a sane floor). The first epoch is always at
// scale 1, so it doubles as the baseline.
func DiurnalScales(epochs int, amplitude float64) []float64 {
	out := make([]float64, epochs)
	for e := range out {
		out[e] = math.Max(0, 1+float64(amplitude*math.Sin(2*math.Pi*float64(e)/float64(epochs))))
	}
	return out
}

// TraceScales rebins a synthetic bitrate trace (internal/trace's CAIDA
// stand-in) into one bin per epoch and normalizes by the trace mean, so a
// matrix multiplied by the result follows the trace's minute-scale drift.
func TraceScales(t trace.Trace, epochs int) []float64 {
	out := make([]float64, epochs)
	if len(t.Rates) == 0 || epochs <= 0 {
		for e := range out {
			out[e] = 1
		}
		return out
	}
	mean := 0.0
	for _, v := range t.Rates {
		mean += v
	}
	mean /= float64(len(t.Rates))
	per := len(t.Rates) / epochs
	if per < 1 {
		per = 1
	}
	for e := range out {
		start := e * per
		if start >= len(t.Rates) {
			out[e] = out[e-1]
			continue
		}
		end := start + per
		if end > len(t.Rates) {
			end = len(t.Rates)
		}
		sum := 0.0
		for _, v := range t.Rates[start:end] {
			sum += v
		}
		out[e] = sum / float64(end-start) / mean
	}
	return out
}

// Surge returns a copy of m with a seeded ~fraction of its aggregates
// multiplied by factor — the gravity-rescaled hot-spot surges FatPaths
// evaluates against. Selection is by independent coin flips, so the same
// seed always surges the same pairs.
func Surge(m *tm.Matrix, seed int64, fraction, factor float64) *tm.Matrix {
	rng := stats.Rng(seed)
	out := make([]tm.Aggregate, len(m.Aggregates))
	copy(out, m.Aggregates)
	for i := range out {
		if rng.Float64() < fraction {
			out[i].Volume *= factor
		}
	}
	return tm.New(out)
}
