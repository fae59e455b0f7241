package routing

import (
	"sort"

	"lowlat/internal/graph"
	"lowlat/internal/tm"
)

// TEOrder selects the order in which MPLS-TE signals its LSPs. Real
// auto-bandwidth deployments re-signal tunnels one at a time; the order is
// an operational artifact (often largest-first so big tunnels grab the best
// paths), and §3's observation is that *any* one-at-a-time order shares
// B4's greedy pathologies.
type TEOrder int

const (
	// TEOrderVolumeDesc signals the largest aggregates first (the
	// common auto-bandwidth configuration; default).
	TEOrderVolumeDesc TEOrder = iota
	// TEOrderVolumeAsc signals the smallest aggregates first.
	TEOrderVolumeAsc
	// TEOrderIndex signals aggregates in matrix order (arrival order).
	TEOrderIndex
)

// MPLSTE models MPLS-TE with RSVP auto-bandwidth as the paper describes it
// in §3: "Automatic bandwidth allocation for MPLS-TE considers one
// aggregate at a time, and places each aggregate on its shortest
// non-congested path." Each aggregate is one unsplittable LSP; admission
// is CSPF (prune links whose spare capacity cannot carry the LSP, then
// take the shortest remaining path). An LSP that no pruned path can carry
// falls back to the plain IGP shortest path, where it congests — signaled
// bandwidth does not make traffic disappear.
//
// The paper evaluates B4 and notes "the same observations also hold for
// MPLS-TE"; this scheme lets that claim be tested directly.
type MPLSTE struct {
	// Headroom reserves a fraction of every link during CSPF admission
	// (§6). Fallback placement ignores it, mirroring B4's second pass.
	Headroom float64
	// Order is the LSP signaling order (default TEOrderVolumeDesc).
	Order TEOrder
}

// Name implements Scheme.
func (t MPLSTE) Name() string {
	if t.Headroom > 0 {
		return "mplste+hr"
	}
	return "mplste"
}

// Place implements Scheme.
func (t MPLSTE) Place(g *graph.Graph, m *tm.Matrix) (*Placement, error) {
	shortest, err := shortestDelays(NewPathCache(g), g, m)
	if err != nil {
		return nil, err
	}

	order := make([]int, m.Len())
	for i := range order {
		order[i] = i
	}
	switch t.Order {
	case TEOrderVolumeDesc:
		sort.SliceStable(order, func(a, b int) bool {
			return m.Aggregates[order[a]].Volume > m.Aggregates[order[b]].Volume
		})
	case TEOrderVolumeAsc:
		sort.SliceStable(order, func(a, b int) bool {
			return m.Aggregates[order[a]].Volume < m.Aggregates[order[b]].Volume
		})
	case TEOrderIndex:
		// Matrix order as-is.
	}

	spare := make([]float64, g.NumLinks())
	for i, l := range g.Links() {
		spare[i] = l.Capacity * (1 - t.Headroom)
	}

	p := NewPlacement(g, m)
	p.base = baselineOf(shortest)
	mask := graph.NewMask(g.NumLinks())
	for _, i := range order {
		a := m.Aggregates[i]
		// CSPF: exclude links that cannot admit the whole LSP.
		for lid := range spare {
			if spare[lid] < a.Volume-1e-6 {
				mask.Set(int32(lid))
			} else {
				mask.Clear(int32(lid))
			}
		}
		path, ok := g.ShortestPath(a.Src, a.Dst, mask, nil)
		if !ok {
			// No admissible path: the LSP stays on the IGP shortest
			// path and overloads it.
			path = shortest[i]
		}
		for _, lid := range path.Links {
			spare[lid] -= a.Volume
		}
		p.Allocs[i] = []PathAlloc{{Path: path, Fraction: 1}}
	}
	return p, nil
}
