package lowlat

import (
	"lowlat/internal/core"
	"lowlat/internal/graph"
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

// NewController returns an LDR controller for the topology.
func NewController(g *graph.Graph, cfg ControllerConfig) *Controller {
	return core.NewController(g, cfg)
}
