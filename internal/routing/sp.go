package routing

import (
	"lowlat/internal/graph"
	"lowlat/internal/tm"
)

// SP is delay-proportional shortest-path routing (OSPF/IS-IS with link
// costs proportional to delay, §3). It places every aggregate entirely on
// its lowest-delay path regardless of load, so it concentrates traffic on
// topologies with many low-latency paths — the effect Figure 3 measures.
type SP struct {
	// Cache optionally shares shortest-path computations with other
	// placements on the same topology (the engine injects one per run).
	Cache *PathCache
}

// Name implements Scheme.
func (SP) Name() string { return "sp" }

// WithPathCache implements CacheableScheme; an explicitly set cache wins.
func (s SP) WithPathCache(c *PathCache) Scheme {
	if s.Cache == nil {
		s.Cache = c
	}
	return s
}

// Place implements Scheme.
func (s SP) Place(g *graph.Graph, m *tm.Matrix) (*Placement, error) {
	cache := s.Cache
	if cache == nil {
		cache = NewPathCache(g)
	}
	sps, err := shortestDelays(cache, g, m)
	if err != nil {
		return nil, err
	}
	p := NewPlacement(g, m)
	p.base = baselineOf(sps)
	for i := range m.Aggregates {
		p.Allocs[i] = []PathAlloc{{Path: sps[i], Fraction: 1}}
	}
	return p, nil
}
