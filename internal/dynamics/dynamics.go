// Package dynamics is the dynamic-workload layer: it perturbs a static
// (network, traffic matrix, routing scheme) scenario over a timeline of
// epochs — link and node failures, demand churn, trace-driven demand
// replay — and replays each epoch through internal/engine, re-optimizing
// the routing scheme from scratch every time conditions change.
//
// The paper evaluates routing on steady state; FatPaths and cISP both
// argue that low-latency designs must additionally be judged under
// failures and demand shifts. This package opens that scenario family:
// per epoch it records latency stretch, path churn against the previous
// epoch's configuration (internal/metrics.PathChurn), and capacity
// headroom, so "how gracefully does scheme X degrade?" becomes one Run
// call.
package dynamics

import (
	"context"
	"fmt"
	"math"

	"lowlat/internal/engine"
	"lowlat/internal/graph"
	"lowlat/internal/metrics"
	"lowlat/internal/routing"
	"lowlat/internal/tm"
	"lowlat/internal/trace"
)

// FailureModel selects how the timeline takes capacity down.
type FailureModel string

const (
	// FailNone leaves the topology intact every epoch.
	FailNone FailureModel = "none"
	// FailSingle enumerates every single physical-link failure.
	FailSingle FailureModel = "single"
	// FailDouble enumerates (or samples, see MaxFailureCases) unordered
	// physical-link pairs.
	FailDouble FailureModel = "double"
	// FailNode enumerates every single node failure.
	FailNode FailureModel = "node"
	// FailRandom walks a seeded per-link up/down Markov process.
	FailRandom FailureModel = "random"
)

// ChurnModel selects how demand evolves across epochs.
type ChurnModel string

const (
	// ChurnNone keeps the base matrix every epoch.
	ChurnNone ChurnModel = "none"
	// ChurnDiurnal scales the matrix along one sinusoidal day.
	ChurnDiurnal ChurnModel = "diurnal"
	// ChurnSurge multiplies a seeded tenth of the pairs by 3, re-drawn
	// every epoch.
	ChurnSurge ChurnModel = "surge"
	// ChurnTrace scales the matrix by a synthetic internal/trace bitrate
	// trace rebinned to the timeline.
	ChurnTrace ChurnModel = "trace"
	// ChurnReplay replaces the matrix entirely with Config.Replay's
	// trace-driven per-epoch matrices.
	ChurnReplay ChurnModel = "replay"
)

// Config parameterizes one dynamic-workload timeline. The zero value runs
// 8 quiet epochs (no failures, no churn).
type Config struct {
	// Seed drives every random choice (failure walks, surges, traces).
	Seed int64
	// Epochs is the timeline length for the non-enumerating models
	// (default 8). FailSingle/FailDouble/FailNode and ChurnReplay set
	// their own epoch counts.
	Epochs int
	// Failures picks the failure model (default FailNone).
	Failures FailureModel
	// FailProb is FailRandom's per-link per-epoch failure probability
	// (default 0.08).
	FailProb float64
	// RepairProb is FailRandom's per-epoch repair probability (default 0.5).
	RepairProb float64
	// MaxFailureCases caps FailDouble's enumeration; above it a seeded
	// sample that size is used (default 50, -1 = unlimited).
	MaxFailureCases int
	// Churn picks the demand model (default ChurnNone).
	Churn ChurnModel
	// Replay is ChurnReplay's demand trace; required for that model.
	Replay *trace.DemandTrace
}

func (c Config) withDefaults() Config {
	if c.Epochs <= 0 {
		c.Epochs = 8
	}
	if c.Failures == "" {
		c.Failures = FailNone
	}
	if c.FailProb <= 0 {
		c.FailProb = 0.08
	}
	if c.RepairProb <= 0 {
		c.RepairProb = 0.5
	}
	if c.MaxFailureCases == 0 {
		c.MaxFailureCases = 50
	}
	if c.Churn == "" {
		c.Churn = ChurnNone
	}
	return c
}

const (
	// diurnalAmplitude is ChurnDiurnal's swing; below 1, so demand
	// never goes negative.
	diurnalAmplitude = 0.3
	// surgeFraction and surgeFactor shape ChurnSurge: the share of pairs
	// surging each epoch, and their demand multiplier.
	surgeFraction = 0.1
	surgeFactor   = 3
)

// enumeratingFailures reports whether the model enumerates independent
// failure cases (as opposed to walking a time series).
func enumeratingFailures(m FailureModel) bool {
	return m == FailSingle || m == FailDouble || m == FailNode
}

// FailureModels lists the accepted failure-model names.
func FailureModels() []FailureModel {
	return []FailureModel{FailNone, FailSingle, FailDouble, FailNode, FailRandom}
}

// ChurnModels lists the accepted churn-model names.
func ChurnModels() []ChurnModel {
	return []ChurnModel{ChurnNone, ChurnDiurnal, ChurnSurge, ChurnTrace, ChurnReplay}
}

func (c Config) validate() error {
	if c.FailProb > 1 || c.RepairProb > 1 {
		return fmt.Errorf("dynamics: failure probability %v and repair probability %v must be at most 1", c.FailProb, c.RepairProb)
	}
	switch c.Failures {
	case FailNone, FailSingle, FailDouble, FailNode, FailRandom:
	default:
		return fmt.Errorf("dynamics: unknown failure model %q (have %v)", c.Failures, FailureModels())
	}
	// The enumerating models are independent what-ifs against the intact
	// baseline; combining them with demand churn would assign each case a
	// demand level by its arbitrary enumeration position, confounding
	// "which failure hurts most" with the churn curve.
	if enumeratingFailures(c.Failures) && c.Churn != ChurnNone {
		return fmt.Errorf("dynamics: failure model %q enumerates independent cases and combines only with churn model %q (got %q)",
			c.Failures, ChurnNone, c.Churn)
	}
	switch c.Churn {
	case ChurnNone, ChurnDiurnal, ChurnSurge, ChurnTrace:
	case ChurnReplay:
		// Enumerating failure models (which would fight the replay for
		// the epoch count) are already rejected above.
		if c.Replay == nil {
			return fmt.Errorf("dynamics: churn model %q needs Config.Replay", ChurnReplay)
		}
	default:
		return fmt.Errorf("dynamics: unknown churn model %q (have %v)", c.Churn, ChurnModels())
	}
	return nil
}

// EpochResult is one epoch's outcome after re-optimization.
type EpochResult struct {
	// Epoch is the timeline position.
	Epoch int
	// Failure names the epoch's failure state ("" when nothing is down).
	Failure string
	// LinksDown counts physical (undirected) links down this epoch, the
	// same unit the random model's "N down" failure names use.
	LinksDown int
	// Scale is the demand multiplier applied to the base matrix (1 for
	// ChurnNone/ChurnReplay).
	Scale float64
	// LostDemand is the fraction of offered volume that could not even be
	// attempted: demand of failed nodes plus pairs the failure
	// disconnected.
	LostDemand float64
	// Stretch and MaxStretch are the placement's latency-stretch metrics
	// against the epoch's own (post-failure) shortest paths.
	Stretch    float64
	MaxStretch float64
	// CongestedFrac is the fraction of pairs crossing a saturated link.
	CongestedFrac float64
	// Headroom is 1 - max link utilization (negative when overloaded).
	Headroom float64
	// PathChurn is the fraction of pairs whose path set changed against
	// the epoch's reference configuration: the previous epoch for
	// time-series models (FailNone/FailRandom and every churn model), or
	// the pre-failure baseline epoch for the enumerating failure models
	// (each single/double/node case is an independent what-if against the
	// intact network, not a successor of the previous case). 0 for the
	// first epoch.
	PathChurn float64
	// Fits reports whether the epoch carried the full offered demand
	// uncongested: nothing stranded by a partition (LostDemand == 0) and
	// the placement of the attempted traffic fit.
	Fits bool
}

// Result is one scheme's full timeline.
type Result struct {
	Network string
	Scheme  string
	Epochs  []EpochResult
}

// MeanStretch averages the per-epoch latency stretch.
func (r *Result) MeanStretch() float64 {
	sum := 0.0
	for _, e := range r.Epochs {
		sum += e.Stretch
	}
	return sum / float64(len(r.Epochs))
}

// WorstStretch returns the maximum per-epoch MaxStretch.
func (r *Result) WorstStretch() float64 {
	worst := 1.0
	for _, e := range r.Epochs {
		if e.MaxStretch > worst {
			worst = e.MaxStretch
		}
	}
	return worst
}

// MeanChurn averages path churn over the epochs after the first.
func (r *Result) MeanChurn() float64 {
	if len(r.Epochs) < 2 {
		return 0
	}
	sum := 0.0
	for _, e := range r.Epochs[1:] {
		sum += e.PathChurn
	}
	return sum / float64(len(r.Epochs)-1)
}

// MinHeadroom returns the tightest per-epoch headroom.
func (r *Result) MinHeadroom() float64 {
	minH := math.Inf(1)
	for _, e := range r.Epochs {
		if e.Headroom < minH {
			minH = e.Headroom
		}
	}
	return minH
}

// UnfitFrac returns the fraction of epochs whose placement did not fit.
func (r *Result) UnfitFrac() float64 {
	if len(r.Epochs) == 0 {
		return 0
	}
	n := 0
	for _, e := range r.Epochs {
		if !e.Fits {
			n++
		}
	}
	return float64(n) / float64(len(r.Epochs))
}

// MaxLostDemand returns the worst per-epoch lost-demand fraction.
func (r *Result) MaxLostDemand() float64 {
	worst := 0.0
	for _, e := range r.Epochs {
		if e.LostDemand > worst {
			worst = e.LostDemand
		}
	}
	return worst
}

// epochState is one fully materialized epoch before placement.
type epochState struct {
	epoch   int
	failure Failure
	scale   float64
	g       *graph.Graph
	m       *tm.Matrix
	lost    float64
}

// timeline materializes the per-epoch (degraded graph, evolved matrix)
// states for a run, sequentially and deterministically; only placement
// fans out. cfg already has its defaults (Run applies them).
func timeline(g *graph.Graph, base *tm.Matrix, cfg Config) ([]epochState, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	// Demand first: replay fixes the epoch count, everything else scales
	// the base matrix over cfg.Epochs (or over the failure enumeration's
	// length, resolved below).
	var matrices []*tm.Matrix
	if cfg.Churn == ChurnReplay {
		ms, err := cfg.Replay.Matrices(g)
		if err != nil {
			return nil, err
		}
		matrices = ms
	}

	// Failure schedule. Enumerating models prepend a no-failure baseline
	// epoch so churn metrics have a pre-failure reference.
	var failures []Failure
	switch cfg.Failures {
	case FailNone:
	case FailSingle:
		failures = append([]Failure{{}}, SingleLinkFailures(g)...)
	case FailDouble:
		maxCases := cfg.MaxFailureCases
		if maxCases < 0 {
			maxCases = 0
		}
		failures = append([]Failure{{}}, DoubleLinkFailures(g, maxCases, cfg.Seed)...)
	case FailNode:
		failures = append([]Failure{{}}, NodeFailures(g)...)
	}

	epochs := cfg.Epochs
	if matrices != nil {
		epochs = len(matrices)
	}
	if failures != nil {
		epochs = len(failures)
	}
	if cfg.Failures == FailRandom {
		failures = RandomFailureSequence(g, epochs, cfg.FailProb, cfg.RepairProb, cfg.Seed)
	}

	scales := make([]float64, epochs)
	for i := range scales {
		scales[i] = 1
	}
	switch cfg.Churn {
	case ChurnDiurnal:
		scales = DiurnalScales(epochs, diurnalAmplitude)
	case ChurnTrace:
		// One bin per second: minute-scale drift is all that matters here.
		tc := trace.Config{Seed: cfg.Seed, Minutes: epochs, BinsPerSecond: 1}
		scales = TraceScales(trace.Generate(tc), epochs)
	}

	states := make([]epochState, epochs)
	for e := 0; e < epochs; e++ {
		st := epochState{epoch: e, scale: scales[e]}
		if failures != nil {
			st.failure = failures[e]
		}
		st.g = Degrade(g, st.failure)

		m := base
		switch cfg.Churn {
		case ChurnReplay:
			m = matrices[e]
			st.scale = 1
		case ChurnSurge:
			m = Surge(base, cfg.Seed+int64(e), surgeFraction, surgeFactor)
		}
		if st.scale != 1 {
			m = m.Scale(st.scale)
		}
		m, lost := restrict(st.g, m, st.failure)
		st.m, st.lost = m, lost
		states[e] = st
	}
	return states, nil
}

// restrict drops aggregates the failure made unservable — endpoints on
// failed nodes, or pairs with no surviving path — returning the reduced
// matrix and the dropped fraction of offered volume. Schemes then see only
// demand they could conceivably place, so a partition registers as lost
// demand rather than a placement error.
func restrict(g *graph.Graph, m *tm.Matrix, f Failure) (*tm.Matrix, float64) {
	if f.Empty() {
		return m, 0
	}
	dead := graph.NewMask(g.NumNodes())
	for _, id := range f.FailedNodes {
		dead.Set(int32(id))
	}
	// One Dijkstra tree per distinct source covers every pair from it;
	// prev[dst] == -1 marks dst unreachable. Aggregates are sorted by
	// source, so trees are computed once each.
	trees := make(map[graph.NodeID][]graph.LinkID)
	kept := make([]tm.Aggregate, 0, m.Len())
	lost := 0.0
	total := m.TotalVolume()
	for _, a := range m.Aggregates {
		if dead.Has(int32(a.Src)) || dead.Has(int32(a.Dst)) {
			lost += a.Volume
			continue
		}
		prev, ok := trees[a.Src]
		if !ok {
			_, prev = g.ShortestPathTree(a.Src, nil, nil)
			trees[a.Src] = prev
		}
		if prev[a.Dst] == -1 {
			lost += a.Volume
			continue
		}
		kept = append(kept, a)
	}
	if total > 0 {
		lost /= total
	} else {
		lost = 0
	}
	return tm.New(kept), lost
}

// Run replays the configured timeline of one (network, matrix, scheme)
// triple through the engine: every epoch's placement is re-optimized from
// scratch (fanned out across r's worker pool), then the sequential pass
// computes churn against each previous epoch. Results are deterministic
// for a fixed seed and independent of the pool width.
func Run(ctx context.Context, r *engine.Runner, g *graph.Graph, base *tm.Matrix, scheme routing.Scheme, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	states, err := timeline(g, base, cfg)
	if err != nil {
		return nil, err
	}
	// Enumerating models measure each failure case against the intact
	// baseline (epoch 0); time-series models against the previous epoch.
	enumerated := enumeratingFailures(cfg.Failures)
	placements, err := engine.Map(ctx, r.Workers(), states,
		func(_ context.Context, _ int, st epochState) (*routing.Placement, error) {
			p, err := r.Cache().Place(scheme, st.g, st.m)
			if err != nil {
				return nil, fmt.Errorf("%s/%s epoch %d [%s]: %w",
					g.Name(), scheme.Name(), st.epoch, st.failure.Name, err)
			}
			return p, nil
		})
	if err != nil {
		return nil, err
	}

	res := &Result{Network: g.Name(), Scheme: scheme.Name(), Epochs: make([]EpochResult, len(states))}
	for e, st := range states {
		p := placements[e]
		er := EpochResult{
			Epoch:         st.epoch,
			Failure:       st.failure.Name,
			LinksDown:     st.failure.PhysicalCount(g),
			Scale:         st.scale,
			LostDemand:    st.lost,
			Stretch:       p.LatencyStretch(),
			MaxStretch:    p.MaxStretch(),
			CongestedFrac: p.CongestedPairFraction(),
			Headroom:      metrics.Headroom(p),
			Fits:          p.Fits() && st.lost == 0,
		}
		if e > 0 {
			ref := placements[e-1]
			if enumerated {
				ref = placements[0]
			}
			er.PathChurn = metrics.PathChurn(ref, p)
		}
		res.Epochs[e] = er
	}
	return res, nil
}
