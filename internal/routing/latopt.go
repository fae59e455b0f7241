package routing

import (
	"fmt"

	"lowlat/internal/graph"
	"lowlat/internal/tm"
)

// Compile-time checks: the LP schemes, SP and B4 share path computations
// through an engine run's SolverCache.
var (
	_ CacheableScheme = LatencyOpt{}
	_ CacheableScheme = MinMax{}
	_ CacheableScheme = SP{}
	_ CacheableScheme = B4{}
)

// SolveStats reports the work an LP-based scheme performed, used by the
// Figure 15 runtime accounting and the ablation benches.
type SolveStats struct {
	LPRuns      int     // how many LPs were solved (Figure 13 iterations)
	LPPivots    int     // total simplex pivots
	GrowRounds  int     // path-growth rounds performed
	MaxOverload float64 // final max(load/scaled-capacity); <= 1 means it fits
}

// LatencyOpt is the paper's latency-optimal routing: the Figure 12 LP
// solved over iteratively grown per-aggregate path sets (Figure 13), with
// the headroom dial of §4 (capacities scaled by 1-Headroom during
// optimization). With Headroom = 0 this is the "optimal latency" scheme of
// Figure 4(a); it is also the optimization stage inside LDR.
type LatencyOpt struct {
	// Headroom is the fraction of every link reserved for demand
	// variability (0 <= Headroom < 1).
	Headroom float64
	// Cache optionally shares k-shortest-path state across calls; LDR
	// passes a persistent cache so repeated optimizations run warm, and
	// the engine's SolverCache injects one per topology so concurrent
	// placements share path computations.
	Cache *PathCache
	// Exact keeps growing path sets around *saturated* (not just
	// overloaded) links once a feasible placement is found, closing the
	// small optimality gap the paper's Figure 13 termination can leave.
	// It costs extra LP rounds; the figure experiments run without it.
	Exact bool
}

// Name implements Scheme.
func (o LatencyOpt) Name() string {
	if o.Headroom > 0 {
		return fmt.Sprintf("latopt+hr%.0f%%", o.Headroom*100)
	}
	return "latopt"
}

// Place implements Scheme.
func (o LatencyOpt) Place(g *graph.Graph, m *tm.Matrix) (*Placement, error) {
	p, _, err := o.PlaceWithStats(g, m)
	return p, err
}

// WithPathCache implements CacheableScheme; an explicitly set cache wins.
func (o LatencyOpt) WithPathCache(c *PathCache) Scheme {
	if o.Cache == nil {
		o.Cache = c
	}
	return o
}

// PlaceWithStats is Place plus solver statistics.
func (o LatencyOpt) PlaceWithStats(g *graph.Graph, m *tm.Matrix) (*Placement, SolveStats, error) {
	return o.solver().place(g, m)
}

func (o LatencyOpt) solver() *pathSolver {
	return &pathSolver{kind: kindLatency, headroom: o.Headroom, cache: o.Cache, polish: o.Exact}
}

// MinMax is TeXCP/MATE-style traffic engineering: minimize the maximum
// link utilization, with total path latency as the tie-break between
// placements of equal peak utilization (§3). K = 0 grows path sets
// iteratively until peak utilization stops improving (the paper's
// unrestricted MinMax); K > 0 supplies only the K shortest paths per
// aggregate, as TeXCP suggests with K = 10.
type MinMax struct {
	K     int
	Cache *PathCache
	// StretchBound, when positive, excludes candidate paths longer than
	// StretchBound x the aggregate's shortest-path delay — the paper's
	// §8 suggestion for keeping MinMax off needless detours while
	// letting the path set grow per aggregate.
	StretchBound float64
}

// Name implements Scheme.
func (mm MinMax) Name() string {
	if mm.K > 0 {
		return fmt.Sprintf("minmax-k%d", mm.K)
	}
	return "minmax"
}

// Place implements Scheme.
func (mm MinMax) Place(g *graph.Graph, m *tm.Matrix) (*Placement, error) {
	p, _, err := mm.PlaceWithStats(g, m)
	return p, err
}

// WithPathCache implements CacheableScheme; an explicitly set cache wins.
func (mm MinMax) WithPathCache(c *PathCache) Scheme {
	if mm.Cache == nil {
		mm.Cache = c
	}
	return mm
}

// PlaceWithStats is Place plus solver statistics.
func (mm MinMax) PlaceWithStats(g *graph.Graph, m *tm.Matrix) (*Placement, SolveStats, error) {
	return mm.solver().place(g, m)
}

func (mm MinMax) solver() *pathSolver {
	return &pathSolver{kind: kindMinMax, fixedK: mm.K, cache: mm.Cache, bound: mm.StretchBound}
}
