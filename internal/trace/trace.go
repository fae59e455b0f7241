// Package trace synthesizes backbone traffic traces standing in for the
// CAIDA packet captures the paper analyzes (§4). The generator reproduces
// the two statistical properties the paper's headroom argument rests on:
//
//  1. minute-scale mean levels drift slowly (well under 10% per minute,
//     consistent with [22] and Figure 9), and
//  2. sub-second burst variability is large in absolute terms but its
//     per-minute standard deviation persists from one minute to the next
//     (Figure 10's tight clustering around x = y).
//
// Knobs expose both properties so tests can also violate them and show
// Algorithm 1 degrading — something the real traces cannot do.
package trace

import (
	"math"

	"lowlat/internal/stats"
)

// Config parameterizes a synthetic trace. Zero values take defaults that
// mimic the paper's description of the CAIDA links (1-3 Gb/s means on
// 10 Gb/s links).
type Config struct {
	Seed int64
	// Minutes is the trace duration (paper: 60-minute traces).
	Minutes int
	// BinsPerSecond is the measurement resolution (paper: per
	// millisecond, 1000). Lower it for cheaper tests.
	BinsPerSecond int
	// MeanBps is the starting mean level (default 2 Gb/s).
	MeanBps float64
	// DriftPerMinute is the relative standard deviation of the random
	// walk the minute-mean takes (default 0.025: ~2.5% per minute).
	DriftPerMinute float64
	// BurstStd is the sub-second standard deviation as a fraction of
	// the current mean (default 0.25).
	BurstStd float64
	// BurstCorr is the AR(1) coefficient of the per-bin noise; close to
	// 1 yields temporally clumped bursts (default 0.9).
	BurstCorr float64
}

// burstStdJitter lets the burstiness itself wander slowly minute to
// minute, relative to BurstStd.
const burstStdJitter = 0.05

func (c Config) withDefaults() Config {
	if c.Minutes <= 0 {
		c.Minutes = 60
	}
	if c.BinsPerSecond <= 0 {
		c.BinsPerSecond = 1000
	}
	if c.MeanBps <= 0 {
		c.MeanBps = 2e9
	}
	if c.DriftPerMinute <= 0 {
		c.DriftPerMinute = 0.025
	}
	if c.BurstStd <= 0 {
		c.BurstStd = 0.25
	}
	if c.BurstCorr <= 0 {
		c.BurstCorr = 0.9
	}
	return c
}

// Trace is a synthetic bitrate series.
type Trace struct {
	// Rates holds the bitrate (bits/sec) of each bin.
	Rates []float64
	// BinsPerSecond echoes the generation resolution.
	BinsPerSecond int
}

// BinsPerMinute returns the number of samples forming one minute.
func (t Trace) BinsPerMinute() int { return t.BinsPerSecond * 60 }

// Rebin aggregates the trace into coarser bins (e.g. 100 ms bins for the
// multiplexing checks), averaging rates within each bin.
func (t Trace) Rebin(binSec float64) []float64 {
	per := int(binSec * float64(t.BinsPerSecond))
	if per < 1 {
		per = 1
	}
	var out []float64
	for start := 0; start+per <= len(t.Rates); start += per {
		sum := 0.0
		for _, v := range t.Rates[start : start+per] {
			sum += v
		}
		out = append(out, sum/float64(per))
	}
	return out
}

// Generate builds a synthetic trace.
func Generate(cfg Config) Trace {
	cfg = cfg.withDefaults()
	rng := stats.Rng(cfg.Seed)

	binsPerMin := cfg.BinsPerSecond * 60
	total := cfg.Minutes * binsPerMin
	rates := make([]float64, total)

	mean := cfg.MeanBps
	burstStd := cfg.BurstStd
	ar := 0.0
	// Innovation std for the AR(1) process with stationary std 1.
	innovStd := sqrtOneMinusSq(cfg.BurstCorr)

	for minute := 0; minute < cfg.Minutes; minute++ {
		for b := 0; b < binsPerMin; b++ {
			ar = float64(cfg.BurstCorr*ar) + float64(rng.NormFloat64()*innovStd)
			v := mean * (1 + float64(burstStd*ar))
			if v < 0 {
				v = 0
			}
			rates[minute*binsPerMin+b] = v
		}
		// Minute-scale evolution: mean drifts slowly; burstiness
		// wanders slightly (Figure 10's x=y persistence).
		mean *= 1 + float64(rng.NormFloat64()*cfg.DriftPerMinute)
		if mean < cfg.MeanBps*0.25 {
			mean = cfg.MeanBps * 0.25
		}
		if mean > cfg.MeanBps*4 {
			mean = cfg.MeanBps * 4
		}
		burstStd *= 1 + float64(rng.NormFloat64()*burstStdJitter)
		if burstStd < cfg.BurstStd*0.5 {
			burstStd = cfg.BurstStd * 0.5
		}
		if burstStd > cfg.BurstStd*2 {
			burstStd = cfg.BurstStd * 2
		}
	}
	return Trace{Rates: rates, BinsPerSecond: cfg.BinsPerSecond}
}

func sqrtOneMinusSq(c float64) float64 {
	v := 1 - float64(c*c)
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// AggregateSeries derives a per-aggregate 100 ms measurement history from
// a seed, scaled so its mean matches meanBps: the input LDR's multiplexing
// checks consume. burstStd is relative to the mean; corr sets temporal
// clumping.
func AggregateSeries(seed int64, bins int, meanBps, burstStd, corr float64) []float64 {
	cfg := Config{
		Seed:          seed,
		Minutes:       1 + bins/600,
		BinsPerSecond: 10, // directly at 100ms resolution
		MeanBps:       meanBps,
		BurstStd:      burstStd,
		BurstCorr:     corr,
	}
	t := Generate(cfg)
	out := t.Rates
	if len(out) > bins {
		out = out[:bins]
	}
	return out
}
