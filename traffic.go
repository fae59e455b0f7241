package lowlat

import (
	"lowlat/internal/graph"
	"lowlat/internal/predict"
	"lowlat/internal/tm"
	"lowlat/internal/tmgen"
	"lowlat/internal/trace"
)

// This file is the demand half of the public facade: traffic matrices and
// their gravity-model generator (§3), synthetic backbone traces, and the
// Algorithm 1 rate predictor (§4).

// Aggregate is a PoP-to-PoP traffic aggregate: endpoints, mean volume
// (bits/sec), flow count n_a, and an optional priority weight (§8).
type Aggregate = tm.Aggregate

// Matrix is a traffic matrix: a set of aggregates over one topology.
type Matrix = tm.Matrix

// TrafficConfig parameterizes gravity-model traffic generation: Zipf PoP
// masses, the paper's locality parameter ℓ, and the min-cut load target.
type TrafficConfig = tmgen.Config

// TrafficResult is a generated matrix plus calibration details (the scale
// factor applied and the MinMax-optimal utilization achieved).
type TrafficResult = tmgen.Result

// TraceConfig parameterizes synthetic per-millisecond backbone traces,
// the stand-in for the paper's CAIDA Tier-1 captures.
type TraceConfig = trace.Config

// Trace is a synthetic bitrate series with helpers for re-binning.
type Trace = trace.Trace

// Predictor implements the paper's Algorithm 1: predictions rise
// immediately with measured traffic (x1.10 hedge) and decay slowly (x0.98)
// when it falls.
type Predictor = predict.Predictor

// NewMatrix builds a traffic matrix from aggregates.
func NewMatrix(aggs []Aggregate) *Matrix { return tm.New(aggs) }

// GenerateTraffic synthesizes one gravity-model traffic matrix for g,
// scaled so the MinMax-optimal peak utilization hits cfg.TargetMaxUtil
// (default 0.77: traffic fits until it grows 30%, the paper's standard
// load).
func GenerateTraffic(g *graph.Graph, cfg TrafficConfig) (*TrafficResult, error) {
	return tmgen.Generate(g, cfg)
}

// GenerateTrafficSet synthesizes count independent matrices (the paper
// uses 100 per topology), varying cfg.Seed.
func GenerateTrafficSet(g *graph.Graph, cfg TrafficConfig, count int) ([]*Matrix, error) {
	return tmgen.GenerateSet(g, cfg, count)
}

// GenerateTrace synthesizes a backbone-like bitrate trace with
// minute-scale mean drift and persistent sub-second burstiness, the two
// properties Figures 9 and 10 establish for real Tier-1 links.
func GenerateTrace(cfg TraceConfig) Trace { return trace.Generate(cfg) }

// AggregateSeries synthesizes one aggregate's per-bin bitrate series with
// the given mean, relative burst standard deviation, and AR(1) burst
// correlation — the measurement stream an ingress router would report.
func AggregateSeries(seed int64, bins int, meanBps, burstStd, corr float64) []float64 {
	return trace.AggregateSeries(seed, bins, meanBps, burstStd, corr)
}

// MinuteMeans reduces a bitrate series to per-minute means.
func MinuteMeans(series []float64, binsPerMinute int) []float64 {
	return predict.MinuteMeans(series, binsPerMinute)
}

// MinuteStds reduces a bitrate series to per-minute standard deviations
// (the quantity scattered in Figure 10).
func MinuteStds(series []float64, binsPerMinute int) []float64 {
	return predict.MinuteStds(series, binsPerMinute)
}

// EvaluateTrace runs Algorithm 1 over per-minute means and returns
// measured/predicted ratios (the CDF of Figure 9).
func EvaluateTrace(minuteMeans []float64) []float64 {
	return predict.EvaluateTrace(minuteMeans)
}
