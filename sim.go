package lowlat

import (
	"lowlat/internal/graph"
	"lowlat/internal/sim"
	"lowlat/internal/tm"
)

// This file exposes the closed-loop control-cycle driver: the validation
// layer for the paper's headroom and queueing claims.

// AggregateSpec describes one aggregate's traffic process for closed-loop
// runs: a drifting mean with correlated sub-second bursts.
type AggregateSpec = sim.AggregateSpec

// ClosedLoopConfig drives the full measure -> optimize -> install cycle of
// Figure 11 over simulated minutes.
type ClosedLoopConfig = sim.ClosedLoopConfig

// ClosedLoopResult aggregates a closed-loop run.
type ClosedLoopResult = sim.ClosedLoopResult

// RunClosedLoop simulates multiple minutes of the centralized control
// cycle on g: each minute the controller (LDR, or cfg.Scheme when set)
// re-optimizes from the previous minute's measurements and the resulting
// placement carries the next minute's (drifted) traffic.
func RunClosedLoop(g *graph.Graph, specs []AggregateSpec, cfg ClosedLoopConfig) (*ClosedLoopResult, error) {
	return sim.RunClosedLoop(g, specs, cfg)
}

// SpecsFromMatrix derives closed-loop traffic processes from a traffic
// matrix: volumes become base means with deterministic per-aggregate
// burstiness.
func SpecsFromMatrix(m *tm.Matrix, seed int64) []AggregateSpec {
	return sim.SpecsFromMatrix(m, seed)
}
