package routing

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"lowlat/internal/geo"
	"lowlat/internal/graph"
	"lowlat/internal/lp"
	"lowlat/internal/tm"
)

// The map-based assembly of the Figure 12 LP that pathModel.build replaced, kept as the reference: per-link coefficient maps keyed by
// variable, summed, then collected and sorted per capacity row. The flat
// builder must hand the simplex the same LP term for term — variable
// numbering, row order, coefficient expressions — so the pivot sequence
// and every stored placement byte are unchanged.
func refBuildModel(pm *pathModel, withOmax bool) *lp.Problem {
	kind, m, sps, pathSets, caps, norm, minS := pm.kind, pm.m, pm.sps, pm.pathSets, pm.caps, pm.norm, pm.minS
	fixed, multi := pm.fixed, pm.multi

	prob := lp.NewProblem()
	linkCoeff := make(map[graph.LinkID]map[int]float64) // link -> var -> volume delta
	addCoeff := func(lid graph.LinkID, v int, c float64) {
		mm := linkCoeff[lid]
		if mm == nil {
			mm = make(map[int]float64)
			linkCoeff[lid] = mm
		}
		mm[v] += c
	}
	for _, i := range multi {
		a := m.Aggregates[i]
		tieBreak := 1 + tinyM1*minS/sps[i].Delay
		p0 := pathSets[i][0]
		rowTerms := make([]lp.Term, 0, len(pathSets[i])-1)
		for pi := 1; pi < len(pathSets[i]); pi++ {
			p := pathSets[i][pi]
			coeff := float64(a.Flows) * a.EffectiveWeight() * (p.Delay - p0.Delay) * tieBreak / norm
			if coeff < 0 {
				coeff = 0
			}
			v := prob.AddVar(0, 1, coeff)
			for _, lid := range p.Links {
				addCoeff(lid, v, a.Volume)
			}
			for _, lid := range p0.Links {
				addCoeff(lid, v, -a.Volume)
			}
			rowTerms = append(rowTerms, lp.Term{Var: v, Coeff: 1})
		}
		prob.AddConstraint(lp.LE, 1, rowTerms...)
	}

	var activeLinks []graph.LinkID
	for lid := range linkCoeff {
		activeLinks = append(activeLinks, lid)
	}
	sort.Slice(activeLinks, func(a, b int) bool { return activeLinks[a] < activeLinks[b] })

	switch kind {
	case kindLatency:
		oMax := -1
		if withOmax {
			oMax = prob.AddVar(0, math.Inf(1), bigM2)
		}
		for _, lid := range activeLinks {
			ol := prob.AddVar(0, math.Inf(1), bigM3)
			prob.AddConstraint(lp.LE, 1-fixed[lid]/caps[lid], refCapacityRow(linkCoeff[lid], caps[lid], ol)...)
			if withOmax {
				prob.AddConstraint(lp.LE, 0, lp.Term{Var: ol, Coeff: 1}, lp.Term{Var: oMax, Coeff: -1})
			}
		}
	case kindMinMax:
		u := prob.AddVar(0, math.Inf(1), bigM2)
		for _, lid := range activeLinks {
			prob.AddConstraint(lp.LE, -fixed[lid]/caps[lid], refCapacityRow(linkCoeff[lid], caps[lid], u)...)
		}
	}
	return prob
}

// refCapacityRow converts a link's per-variable volume deltas into
// utilization-unit LP terms plus the overload variable.
func refCapacityRow(coeffs map[int]float64, capacity float64, overloadVar int) []lp.Term {
	terms := make([]lp.Term, 0, len(coeffs)+1)
	vars := make([]int, 0, len(coeffs))
	for v := range coeffs {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	for _, v := range vars {
		if c := coeffs[v]; c != 0 {
			terms = append(terms, lp.Term{Var: v, Coeff: c / capacity})
		}
	}
	terms = append(terms, lp.Term{Var: overloadVar, Coeff: -1})
	return terms
}

// RefCheckStats counts what a run of RefChecked schemes covered.
type RefCheckStats struct {
	Models     int // LPs compared
	OmaxModels int // of which with the Omax rows
	MaxRound   int // deepest growth round that assembled an LP
	Shared     int // (variable, link) pairs with the link on both p and p0
	Cancelled  int // capacity rows whose every path coefficient cancelled
}

// refChecked is an LP scheme whose every assembled model is compared with
// refBuildModel's.
type refChecked struct {
	Scheme
	t     testing.TB
	stats *RefCheckStats
}

// RefChecked wraps a LatencyOpt or MinMax so that Place runs the scheme's
// own solver with every LP it assembles — each growth round, both withOmax
// values — required to be reflect.DeepEqual (objective, bounds, each
// row's operator, rhs and terms) to the reference builder's.
func RefChecked(t testing.TB, s Scheme, stats *RefCheckStats) Scheme {
	return refChecked{Scheme: s, t: t, stats: stats}
}

// solverOf is the pathSolver a LatencyOpt or MinMax would place with.
func solverOf(tb testing.TB, sch Scheme) *pathSolver {
	switch sch := sch.(type) {
	case LatencyOpt:
		return sch.solver()
	case MinMax:
		return sch.solver()
	}
	tb.Fatalf("%T is not a path-LP scheme", sch)
	return nil
}

func (c refChecked) Place(g *graph.Graph, m *tm.Matrix) (*Placement, error) {
	s := solverOf(c.t, c.Scheme)
	s.onModel = func(prob *lp.Problem, pm *pathModel, withOmax bool) {
		want := refBuildModel(pm, withOmax)
		if !reflect.DeepEqual(prob, want) {
			c.t.Errorf("%s/%s round %d withOmax=%v: assembled LP (%d vars, %d rows) differs from the reference (%d vars, %d rows)",
				g.Name(), c.Name(), s.growRounds, withOmax, prob.NumVars(), prob.NumRows(), want.NumVars(), want.NumRows())
		}
		c.stats.Models++
		if withOmax {
			c.stats.OmaxModels++
		}
		c.stats.MaxRound = max(c.stats.MaxRound, s.growRounds)
		shared, cancelled := cancellations(g, pm.pathSets)
		c.stats.Shared += shared
		c.stats.Cancelled += cancelled
	}
	p, _, err := s.place(g, m)
	return p, err
}

// BuildCapture is an LP scheme that remembers the first model its solver
// assembles with the Omax rows at growth round MinRound or later: an
// overloaded epoch's LP, deep enough into growth to be full-sized.
type BuildCapture struct {
	Scheme
	TB       testing.TB
	MinRound int
	pm       *pathModel
}

func (c *BuildCapture) Place(g *graph.Graph, m *tm.Matrix) (*Placement, error) {
	s := solverOf(c.TB, c.Scheme)
	s.onModel = func(_ *lp.Problem, pm *pathModel, withOmax bool) {
		if c.pm == nil && withOmax && s.growRounds >= c.MinRound {
			cp := *pm // the solver rewrites pathSets in place every round
			cp.pathSets = append([][]graph.Path(nil), pm.pathSets...)
			cp.buf = new(lpModel) // the solver's goes back to the pool
			c.pm = &cp
		}
	}
	p, _, err := s.place(g, m)
	return p, err
}

// Rebuild assembles the captured model again, in the one buffer every
// Rebuild reuses as the solver's growth rounds do, and returns its size;
// ok is false when no solve got as far as MinRound.
func (c *BuildCapture) Rebuild() (vars, rows int, ok bool) {
	if c.pm == nil {
		return 0, 0, false
	}
	prob, _ := c.pm.build(true)
	return prob.NumVars(), prob.NumRows(), true
}

// cancellations counts, over the multi-path aggregates, the (path, link)
// pairs where the link is also on the aggregate's shortest path (+vol and
// -vol cancel exactly), and the links that carry only such pairs: their
// capacity row keeps nothing but the overload variable.
func cancellations(g *graph.Graph, pathSets [][]graph.Path) (shared, cancelled int) {
	touched := make([]bool, g.NumLinks())
	kept := make([]int, g.NumLinks())
	for _, ps := range pathSets {
		for _, p := range ps[1:] {
			for _, lid := range p.Links {
				touched[lid] = true
				if ps[0].Contains(lid) {
					shared++
				} else {
					kept[lid]++
				}
			}
			for _, lid := range ps[0].Links {
				touched[lid] = true
				if !p.Contains(lid) {
					kept[lid]++
				}
			}
		}
	}
	for lid := range touched {
		if touched[lid] && kept[lid] == 0 {
			cancelled++
		}
	}
	return shared, cancelled
}

// TestPathLPBuilderEdgeCases pins the two cancellation rules and the
// zero-volume case on a hand-built model: A-B is on the shortest path and
// on the only alternate, so its row must survive with every coefficient
// gone; a zero-volume aggregate activates its links without a term.
func TestPathLPBuilderEdgeCases(t *testing.T) {
	b := graph.NewBuilder("tail-diamond")
	var ids [4]graph.NodeID
	for i, name := range []string{"A", "B", "C", "D"} {
		ids[i] = b.AddNode(name, geo.Point{Lat: float64(i), Lon: float64(i)})
	}
	b.AddBiLink(ids[0], ids[1], 40e9, 0.001) // A-B, the shared tail
	b.AddBiLink(ids[1], ids[2], 10e9, 0.001) // B-C direct
	b.AddBiLink(ids[1], ids[3], 10e9, 0.001) // B-D-C detour
	b.AddBiLink(ids[3], ids[2], 10e9, 0.001)
	g := b.MustBuild()
	m := &tm.Matrix{Aggregates: []tm.Aggregate{
		{Src: ids[0], Dst: ids[2], Volume: 12e9, Flows: 10},
		{Src: ids[1], Dst: ids[2], Volume: 0, Flows: 1},
	}}
	for _, sch := range []Scheme{LatencyOpt{}, MinMax{}, MinMax{K: 2}} {
		var stats RefCheckStats
		p, err := RefChecked(t, sch, &stats).Place(g, m)
		if err != nil {
			t.Fatalf("%s: %v", sch.Name(), err)
		}
		if stats.Models == 0 || stats.Shared == 0 || stats.Cancelled == 0 {
			t.Fatalf("%s: edge cases not reached: %+v", sch.Name(), stats)
		}
		if got := len(p.Allocs[0]); got != 2 {
			t.Fatalf("%s: the 12G aggregate uses %d paths, want both", sch.Name(), got)
		}
	}
}
