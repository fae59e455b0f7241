package routing

import (
	"math"

	"lowlat/internal/graph"
	"lowlat/internal/lp"
	"lowlat/internal/tm"
)

// LinkBasedResult is the outcome of the link-based multi-commodity-flow
// optimization: the optimal latency stretch and the solver work. The
// link-based model does not yield per-aggregate paths without an extra
// decomposition step; the paper uses it purely as a runtime baseline
// (Figure 15, "about two orders of magnitude slower"), and we use it
// additionally as ground truth for the path-based solver's optimality.
type LinkBasedResult struct {
	// Stretch is total volume-weighted delay divided by the all-shortest-
	// path baseline.
	Stretch float64
	// MaxOverload is the optimal maximum link overload (1 = fits).
	MaxOverload float64
	Pivots      int
	Vars        int
	Rows        int
}

// LinkBasedLatencyOpt solves the same latency-optimal placement as
// LatencyOpt but as a link-based MCF in the spirit of Bertsekas et al.:
// one commodity per source node, flow-conservation constraints at every
// (commodity, node) pair, and per-link capacity rows. Its model size
// scales with sources x links, which is exactly why the paper rejects it.
func LinkBasedLatencyOpt(g *graph.Graph, m *tm.Matrix, headroom float64) (*LinkBasedResult, error) {
	// Scale volumes so capacities are O(1): LP coefficients spanning ten
	// orders of magnitude stall the simplex.
	vscale := 0.0
	for _, l := range g.Links() {
		if l.Capacity > vscale {
			vscale = l.Capacity
		}
	}
	vscale = 1 / vscale

	caps := make([]float64, g.NumLinks())
	for i, l := range g.Links() {
		caps[i] = l.Capacity * (1 - headroom) * vscale
	}

	// Demands per source commodity, in scaled units.
	demand := make(map[graph.NodeID]map[graph.NodeID]float64) // src -> dst -> volume
	norm := 0.0
	for _, a := range m.Aggregates {
		sp, ok := g.ShortestPath(a.Src, a.Dst, nil, nil)
		if !ok {
			return nil, errUnroutable(g, a)
		}
		if demand[a.Src] == nil {
			demand[a.Src] = make(map[graph.NodeID]float64)
		}
		demand[a.Src][a.Dst] += a.Volume * vscale
		norm += a.Volume * vscale * sp.Delay
	}
	if norm <= 0 {
		norm = 1
	}

	var sources []graph.NodeID
	for s := 0; s < g.NumNodes(); s++ {
		if len(demand[graph.NodeID(s)]) > 0 {
			sources = append(sources, graph.NodeID(s))
		}
	}

	prob := lp.NewProblem()
	// f[srcIdx][link] = volume of commodity src on link.
	f := make([][]int, len(sources))
	for si := range sources {
		f[si] = make([]int, g.NumLinks())
		for l := 0; l < g.NumLinks(); l++ {
			delay := g.Link(graph.LinkID(l)).Delay
			f[si][l] = prob.AddVar(0, math.Inf(1), delay/norm)
		}
	}

	// Flow conservation: for commodity s at node v != s:
	// in - out = demand(s->v). At v == s: in - out = -sum of demands.
	for si, src := range sources {
		for v := 0; v < g.NumNodes(); v++ {
			node := graph.NodeID(v)
			var rhs float64
			if node == src {
				for _, vol := range demand[src] {
					rhs -= vol
				}
			} else {
				rhs = demand[src][node]
			}
			var terms []lp.Term
			for _, lid := range g.In(node) {
				terms = append(terms, lp.Term{Var: f[si][lid], Coeff: 1})
			}
			for _, lid := range g.Out(node) {
				terms = append(terms, lp.Term{Var: f[si][lid], Coeff: -1})
			}
			if len(terms) == 0 {
				continue
			}
			prob.AddConstraint(lp.EQ, rhs, terms...)
		}
	}

	// Capacity rows with the same overload hierarchy as the path LP.
	oMax := prob.AddVar(1, math.Inf(1), bigM2)
	for l := 0; l < g.NumLinks(); l++ {
		var terms []lp.Term
		for si := range sources {
			terms = append(terms, lp.Term{Var: f[si][l], Coeff: 1 / caps[l]})
		}
		ol := prob.AddVar(1, math.Inf(1), bigM3)
		terms = append(terms, lp.Term{Var: ol, Coeff: -1})
		prob.AddConstraint(lp.LE, 0, terms...)
		prob.AddConstraint(lp.LE, 0, lp.Term{Var: ol, Coeff: 1}, lp.Term{Var: oMax, Coeff: -1})
	}

	// A private workspace: this tableau runs to tens of megabytes, which
	// the pool behind Solve would keep alive for the path LPs after it.
	sol, err := prob.SolveIn(new(lp.Workspace))
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, &solveStatusError{status: sol.Status.String()}
	}

	totalDelay := 0.0
	maxOv := 0.0
	for l := 0; l < g.NumLinks(); l++ {
		load := 0.0
		for si := range sources {
			load += sol.X[f[si][l]]
		}
		totalDelay += load * g.Link(graph.LinkID(l)).Delay
		if ov := load / caps[l]; ov > maxOv {
			maxOv = ov
		}
	}
	return &LinkBasedResult{
		Stretch:     totalDelay / norm,
		MaxOverload: maxOv,
		Pivots:      sol.Iterations,
		Vars:        prob.NumVars(),
		Rows:        prob.NumRows(),
	}, nil
}
