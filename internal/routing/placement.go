// Package routing implements the traffic-placement schemes the paper
// studies: delay-proportional shortest-path routing, B4's greedy waterfill,
// MinMax (TeXCP-style, full and k-limited) with a latency tie-break, the
// latency-optimal path-based LP of Figure 12 with the iterative path-set
// growth of Figure 13 (including the headroom dial), and a link-based
// multi-commodity-flow baseline used for the Figure 15 runtime comparison.
package routing

import (
	"fmt"
	"math"

	"lowlat/internal/graph"
	"lowlat/internal/tm"
)

// fracEps is the smallest path fraction kept in a placement.
const fracEps = 1e-7

// satEps defines link congestion: utilization strictly above 1+satEps is
// congested. Exactly-full links are not congested — the latency-optimal
// scheme deliberately loads its busiest links to 100% (Figure 7) while
// Figure 4(a) reports zero congestion for it.
const satEps = 1e-6

// PathAlloc assigns a fraction of an aggregate's volume to one path.
type PathAlloc struct {
	Path     graph.Path
	Fraction float64
}

// Placement is the result of running a scheme on a topology and traffic
// matrix: per-aggregate path allocations, each aggregate's fractions
// summing to a full unit.
type Placement struct {
	G      *graph.Graph
	TM     *tm.Matrix
	Allocs [][]PathAlloc // indexed like TM.Aggregates

	// base is the all-shortest-paths baseline the stretch metrics divide
	// by: each aggregate's shortest-path delay on G (S_a), indexed like
	// TM.Aggregates, noPath for an unreachable pair. The scheme that built
	// the placement sets it from the shortest paths it already holds; nil
	// (a hand-built placement) means baseline computes it on demand.
	base []float64
}

// noPath is the baseline delay of an aggregate whose endpoints are
// disconnected.
var noPath = math.Inf(1)

// NewPlacement returns an empty placement for the matrix.
func NewPlacement(g *graph.Graph, m *tm.Matrix) *Placement {
	return &Placement{
		G:      g,
		TM:     m,
		Allocs: make([][]PathAlloc, m.Len()),
	}
}

// baselineOf is the baseline of a matrix whose per-aggregate shortest
// paths the caller already holds.
func baselineOf(sps []graph.Path) []float64 {
	delays := make([]float64, len(sps))
	for i, sp := range sps {
		delays[i] = sp.Delay
	}
	return delays
}

// baseline returns the per-aggregate shortest-path delays.
func (p *Placement) baseline() []float64 {
	if p.base == nil {
		return treeDelays(p.G, p.TM)
	}
	return p.base
}

// treeDelays computes every aggregate's shortest-path delay from one
// Dijkstra tree per distinct source. The tree's distance to dst is the
// delay g.ShortestPath(src, dst, nil, nil) reports, bit for bit: that call
// builds the same tree and reads the same entry.
func treeDelays(g *graph.Graph, m *tm.Matrix) []float64 {
	delays := make([]float64, m.Len())
	dist := make([][]float64, g.NumNodes())
	prev := make([][]graph.LinkID, g.NumNodes())
	for i, a := range m.Aggregates {
		if dist[a.Src] == nil {
			dist[a.Src], prev[a.Src] = g.ShortestPathTree(a.Src, nil, nil)
		}
		switch {
		case a.Dst == a.Src:
			delays[i] = 0
		case prev[a.Src][a.Dst] < 0:
			delays[i] = noPath
		default:
			delays[i] = dist[a.Src][a.Dst]
		}
	}
	return delays
}

// LinkLoads returns the traffic volume placed on every link (bits/sec).
func (p *Placement) LinkLoads() []float64 {
	loads := make([]float64, p.G.NumLinks())
	for i, allocs := range p.Allocs {
		vol := p.TM.Aggregates[i].Volume
		for _, a := range allocs {
			for _, lid := range a.Path.Links {
				loads[lid] += float64(vol * a.Fraction)
			}
		}
	}
	return loads
}

// Utilizations returns per-link load divided by capacity.
func (p *Placement) Utilizations() []float64 {
	utils := p.LinkLoads()
	for i := range utils {
		utils[i] /= p.G.Link(graph.LinkID(i)).Capacity
	}
	return utils
}

// MaxUtilization returns the highest link utilization.
func (p *Placement) MaxUtilization() float64 {
	maxU := 0.0
	for _, u := range p.Utilizations() {
		if u > maxU {
			maxU = u
		}
	}
	return maxU
}

// CongestedPairFraction returns the fraction of aggregates whose placement
// crosses at least one saturated link — the y-axis of Figures 3, 4 and 19.
func (p *Placement) CongestedPairFraction() float64 {
	if p.TM.Len() == 0 {
		return 0
	}
	utils := p.Utilizations()
	congested := 0
	for _, allocs := range p.Allocs {
		hit := false
	scan:
		for _, a := range allocs {
			if a.Fraction < fracEps {
				continue
			}
			for _, lid := range a.Path.Links {
				if utils[lid] > 1+satEps {
					hit = true
					break scan
				}
			}
		}
		if hit {
			congested++
		}
	}
	return float64(congested) / float64(p.TM.Len())
}

// LatencyStretch returns the volume-weighted mean delay of the placement
// divided by the all-shortest-path baseline — the paper's latency stretch
// (Σ_f d_f / Σ_f d_f,sp with flows weighted by volume).
func (p *Placement) LatencyStretch() float64 {
	num, den := 0.0, 0.0
	sps := p.baseline()
	for i, allocs := range p.Allocs {
		agg := p.TM.Aggregates[i]
		if sps[i] == noPath {
			continue
		}
		for _, a := range allocs {
			if a.Fraction < fracEps {
				continue
			}
			num += float64(agg.Volume * a.Fraction * a.Path.Delay)
			den += float64(agg.Volume * a.Fraction * sps[i])
		}
	}
	if den == 0 {
		return 1
	}
	return num / den
}

// MaxStretch returns the maximum over aggregates and used paths of
// path-delay / shortest-path-delay — the x-axis of Figure 16.
func (p *Placement) MaxStretch() float64 {
	maxS := 1.0
	sps := p.baseline()
	for i, allocs := range p.Allocs {
		if sps[i] == noPath || sps[i] <= 0 {
			continue
		}
		for _, a := range allocs {
			if a.Fraction < fracEps {
				continue
			}
			if s := a.Path.Delay / sps[i]; s > maxS {
				maxS = s
			}
		}
	}
	return maxS
}

// Fits reports whether the placement carries all traffic without
// overloading any link — the paper's criterion for "the routing system
// found a placement that fits the traffic" (Figure 16). Links at exactly
// 100% still fit.
func (p *Placement) Fits() bool {
	return p.MaxUtilization() <= 1+satEps
}

// Validate checks structural invariants: fractions are sane, paths connect
// the aggregate endpoints, and the fractions are a full unit per
// aggregate.
func (p *Placement) Validate() error {
	if len(p.Allocs) != p.TM.Len() {
		return fmt.Errorf("routing: placement size mismatch")
	}
	for i, allocs := range p.Allocs {
		agg := p.TM.Aggregates[i]
		total := 0.0
		for _, a := range allocs {
			if a.Fraction < -fracEps || a.Fraction > 1+fracEps {
				return fmt.Errorf("routing: aggregate %d has fraction %v", i, a.Fraction)
			}
			if a.Fraction >= fracEps {
				if a.Path.Empty() {
					return fmt.Errorf("routing: aggregate %d has empty path with fraction %v", i, a.Fraction)
				}
				if a.Path.Src(p.G) != agg.Src || a.Path.Dst(p.G) != agg.Dst {
					return fmt.Errorf("routing: aggregate %d path endpoints mismatch", i)
				}
			}
			total += a.Fraction
		}
		if math.Abs(total-1) > 1e-4 {
			return fmt.Errorf("routing: aggregate %d fractions sum to %v", i, total)
		}
	}
	return nil
}
