package lowlat

import (
	"context"

	"lowlat/internal/engine"
	"lowlat/internal/sim"
)

// This file is the concurrency half of the public facade: the parallel
// scenario engine that every experiment driver runs on, exported so
// library users sweeping their own (network, matrix, scheme) landscapes
// get the same bounded fan-out, shared solver cache, cancellation and
// deterministic collection the figure drivers use.

// Scenario is one unit of landscape work: place one traffic matrix on one
// network with one routing scheme.
type Scenario = engine.Scenario

// ScenarioResult is one completed scenario with its placement, carrying
// the submission index the results are sorted by.
type ScenarioResult = engine.ScenarioResult

// ClosedLoopJob is one independent closed-loop drive for RunClosedLoopBatch.
type ClosedLoopJob = sim.ClosedLoopJob

// RunScenarios places every scenario across a bounded worker pool (workers
// <= 0 selects one per CPU) with one shared solver cache, and returns
// results in submission order — parallel output is byte-identical to a
// sequential loop over the same scenarios. The first placement failure
// cancels scenarios that have not started; ctx cancellation aborts the
// sweep between placements.
func RunScenarios(ctx context.Context, workers int, scenarios []Scenario) ([]ScenarioResult, error) {
	return engine.NewRunner(workers).Run(ctx, scenarios)
}

// RunClosedLoopBatch drives independent closed-loop simulations through
// the same worker pool; results return in job order.
func RunClosedLoopBatch(ctx context.Context, workers int, jobs []ClosedLoopJob) ([]*ClosedLoopResult, error) {
	return sim.RunClosedLoopBatch(ctx, workers, jobs)
}
