package engine

import (
	"context"
	"fmt"

	"lowlat/internal/graph"
	"lowlat/internal/routing"
	"lowlat/internal/tm"
)

// Scenario is one unit of landscape work: place one traffic matrix on one
// network with one routing scheme. The figure drivers enumerate these in
// nested deterministic order (network x matrix x scheme) and submit the
// whole batch at once.
type Scenario struct {
	// Tag labels the scenario in error messages, e.g. "gts-like/minmax".
	Tag string

	Graph  *graph.Graph
	Matrix *tm.Matrix
	Scheme routing.Scheme
}

// ScenarioResult is one completed scenario with its placement.
type ScenarioResult struct {
	Scenario Scenario
	// Index is the scenario's position in the submitted batch; Run
	// returns results sorted by it.
	Index     int
	Placement *routing.Placement
}

// Runner owns a worker pool width and the solver cache shared by every
// scenario submitted through it. One Runner per experiment run is the
// intended granularity: scenarios on the same topology then share
// shortest-path and KSP computations across workers.
type Runner struct {
	workers int
	cache   *routing.SolverCache
}

// NewRunner returns a Runner with the given pool width (<= 0 selects one
// worker per CPU) and a fresh solver cache.
func NewRunner(workers int) *Runner {
	return &Runner{workers: DefaultWorkers(workers), cache: routing.NewSolverCache()}
}

// Workers returns the resolved pool width.
func (r *Runner) Workers() int { return r.workers }

// WithWorkers returns a Runner sharing this runner's solver cache but with
// its own pool width. Layered fan-outs use it to keep total concurrency
// bounded: an outer sweep runs at full width while each inner timeline
// runs sequentially, all against one cache.
func (r *Runner) WithWorkers(n int) *Runner {
	return &Runner{workers: DefaultWorkers(n), cache: r.cache}
}

// Cache exposes the run's shared solver cache, for callers that place
// outside the scenario path but want to reuse its work.
func (r *Runner) Cache() *routing.SolverCache { return r.cache }

// Run places every scenario across the pool and returns results in
// submission order, so the output is byte-identical to a sequential loop.
// The first placement failure cancels scenarios that have not started.
func (r *Runner) Run(ctx context.Context, scenarios []Scenario) ([]ScenarioResult, error) {
	return Map(ctx, r.workers, scenarios, r.place)
}

// Stream is Run without the deterministic re-collection: results arrive in
// completion order on the returned channel, for consumers that aggregate
// commutatively (or re-sort by Index themselves) and want first results
// early.
func (r *Runner) Stream(ctx context.Context, scenarios []Scenario) <-chan Result[ScenarioResult] {
	return Stream(ctx, r.workers, scenarios, r.place)
}

// place executes one scenario against the shared cache.
func (r *Runner) place(_ context.Context, i int, sc Scenario) (ScenarioResult, error) {
	p, err := r.cache.Place(sc.Scheme, sc.Graph, sc.Matrix)
	if err != nil {
		if sc.Tag != "" {
			return ScenarioResult{}, fmt.Errorf("%s: %w", sc.Tag, err)
		}
		return ScenarioResult{}, err
	}
	return ScenarioResult{Scenario: sc, Index: i, Placement: p}, nil
}
