// Package predict implements the paper's Algorithm 1: a conservative
// minute-scale predictor of an aggregate's mean traffic level. The
// estimate tracks growth immediately (scaled by a fixed 10% hedge) and
// decays slowly (2% per minute) when the level drops, so that an aggregate
// can grow by 10% before exceeding its predicted allocation.
package predict

import "math"

// Algorithm 1's constants, fixed by the paper.
const (
	// decayMultiplier shrinks the prediction when traffic drops
	// ("2% decay when level drops").
	decayMultiplier = 0.98
	// fixedHedge scales measurements up to absorb growth
	// ("10% hedge against growth").
	fixedHedge = 1.1
)

// Predictor carries Algorithm 1's state. The zero value is ready; call
// Next with each newly measured minute mean.
type Predictor struct {
	prevPrediction float64
	started        bool
}

// Next consumes the value measured over the last minute and returns the
// predicted mean level for the next minute, exactly as Algorithm 1.
//
// Traffic levels are non-negative; negative inputs are clamped to zero
// rather than fed through the hedge (which would scale them the wrong
// way and could leave a negative prediction). A zero-valued series
// start does not count as the first real measurement: it must not set
// the decay floor, or the prediction would be anchored at an artificial
// zero instead of tracking from the first genuine traffic level.
func (p *Predictor) Next(prevValue float64) float64 {
	if prevValue < 0 {
		prevValue = 0
	}
	if !p.started && prevValue == 0 {
		// Nothing measured yet: stay unstarted so the decay floor
		// anchors at the first positive measurement, not at zero.
		return 0
	}

	scaledEst := prevValue * fixedHedge
	var next float64
	if !p.started || scaledEst > p.prevPrediction {
		next = scaledEst
	} else {
		decayPrediction := p.prevPrediction * decayMultiplier
		next = decayPrediction
		if scaledEst > next {
			next = scaledEst
		}
	}
	p.started = true
	p.prevPrediction = next
	return next
}

// MinuteMeans reduces a per-bin bitrate series to per-minute means.
// binsPerMinute tells how many samples form one minute.
func MinuteMeans(series []float64, binsPerMinute int) []float64 {
	if binsPerMinute <= 0 {
		return nil
	}
	var out []float64
	for start := 0; start+binsPerMinute <= len(series); start += binsPerMinute {
		sum := 0.0
		for _, v := range series[start : start+binsPerMinute] {
			sum += v
		}
		out = append(out, sum/float64(binsPerMinute))
	}
	return out
}

// MinuteStds reduces a per-bin bitrate series to the per-minute standard
// deviation of its samples — the quantity Figure 10 plots at t vs t+1.
func MinuteStds(series []float64, binsPerMinute int) []float64 {
	if binsPerMinute <= 0 {
		return nil
	}
	var out []float64
	for start := 0; start+binsPerMinute <= len(series); start += binsPerMinute {
		win := series[start : start+binsPerMinute]
		mean := 0.0
		for _, v := range win {
			mean += v
		}
		mean /= float64(len(win))
		varsum := 0.0
		for _, v := range win {
			d := v - mean
			varsum += float64(d * d)
		}
		out = append(out, math.Sqrt(varsum/float64(len(win))))
	}
	return out
}

// EvaluateTrace runs Algorithm 1 over a sequence of minute means and
// returns measured/predicted ratios for every minute after the first —
// the samples behind Figure 9's CDF.
func EvaluateTrace(minuteMeans []float64) []float64 {
	if len(minuteMeans) < 2 {
		return nil
	}
	var p Predictor
	ratios := make([]float64, 0, len(minuteMeans)-1)
	pred := p.Next(minuteMeans[0])
	for _, actual := range minuteMeans[1:] {
		if pred > 0 {
			ratios = append(ratios, actual/pred)
		}
		pred = p.Next(actual)
	}
	return ratios
}
