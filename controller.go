package lowlat

import (
	"lowlat/internal/core"
	"lowlat/internal/graph"
	"lowlat/internal/mux"
)

// This file is the LDR half of the public facade: the centralized
// controller of §5 (Figures 11-14) and the statistical-multiplexing
// machinery it appraises placements with.

// Controller is the LDR (Low Delay Routing) controller: it predicts each
// aggregate's demand, computes a latency-optimal placement over
// iteratively grown path sets, appraises how the chosen aggregates
// statistically multiplex on busy links, and scales up poorly-multiplexing
// aggregates until every link passes.
type Controller = core.Controller

// ControllerConfig parameterizes a Controller; the zero value uses the
// paper's settings (10 ms queue bound over a 60 s interval, x1.1 scale-up).
type ControllerConfig = core.Config

// AggregateInput is one ingress-reported aggregate: endpoints, flow count,
// and the measured 100 ms bitrate series from the last interval.
type AggregateInput = core.AggregateInput

// LDRResult is a Controller optimization outcome: the placement, the
// per-aggregate demands after scale-ups, and solver statistics.
type LDRResult = core.Result

// MuxCheckConfig parameterizes the §5 multiplexing tests: queue bound,
// bin width, interval, and PMF quantization levels.
type MuxCheckConfig = mux.CheckConfig

// MuxVerdict is the outcome of the two §5 multiplexing tests on one link:
// the temporal-correlation queue test and the PMF-convolution exceedance
// test. Each convolution runs as the direct product over its operands'
// non-zero bins when that is less work than the FFT the paper names, and
// as the FFT otherwise; the direct product is the exact one of the two,
// and they agree on ExceedProb to within 1e-9 (threshold: 1.67e-4).
type MuxVerdict = mux.Verdict

// NewController returns an LDR controller for the topology.
func NewController(g *graph.Graph, cfg ControllerConfig) *Controller {
	return core.NewController(g, cfg)
}

// CheckLinkMultiplexing runs the paper's two multiplexing tests for one
// link: series holds each sharing aggregate's per-bin bitrates.
func CheckLinkMultiplexing(series [][]float64, capacity float64, cfg MuxCheckConfig) MuxVerdict {
	return mux.CheckLink(series, capacity, cfg)
}

// MaxQueueDelay simulates carry-over queuing of the summed series against
// capacity and returns the worst queue drain time in seconds (test B of
// Figure 14).
func MaxQueueDelay(series [][]float64, capacity float64, binSec float64) float64 {
	return mux.MaxQueueDelay(series, capacity, binSec)
}
