package routing

import (
	"lowlat/internal/graph"
	"lowlat/internal/tm"
)

const (
	// b4Quanta is the number of increments each aggregate's volume is
	// split into for the parallel waterfill.
	b4Quanta = 50
	// b4MaxPaths bounds each aggregate's path list.
	b4MaxPaths = 32
)

// B4 is the greedy waterfill allocator of Jain et al. (SIGCOMM 2015) as the
// paper describes it in §3: traffic from every aggregate is placed
// incrementally, in parallel, onto each aggregate's shortest path; when an
// aggregate's current path fills up, the aggregate advances to its next
// shortest path. All traffic has equal priority. The greedy order is what
// traps B4 in the local minima of Figures 5 and 6.
type B4 struct {
	// Headroom reserves a fraction of every link's capacity during the
	// main allocation pass (§6). Traffic that fails to fit is then given
	// a second pass against full link capacities — B4 "eating into" the
	// reserved headroom, exactly as the paper observes.
	Headroom float64
	// Cache optionally shares the per-aggregate k-shortest-path lists
	// with other placements on the same topology: B4 walks each pair's
	// unmasked enumeration in order, which is exactly what a PathCache
	// holds (only the spare capacity it tests them against is
	// load-dependent).
	Cache *PathCache
}

// Name implements Scheme.
func (b B4) Name() string {
	if b.Headroom > 0 {
		return "b4+hr"
	}
	return "b4"
}

// WithPathCache implements CacheableScheme; an explicitly set cache wins.
func (b B4) WithPathCache(c *PathCache) Scheme {
	if b.Cache == nil {
		b.Cache = c
	}
	return b
}

// Place implements Scheme.
func (b B4) Place(g *graph.Graph, m *tm.Matrix) (*Placement, error) {
	cache := b.Cache
	if cache == nil {
		cache = NewPathCache(g)
	}
	sps, err := shortestDelays(cache, g, m)
	if err != nil {
		return nil, err
	}

	spare := make([]float64, g.NumLinks())
	for i, l := range g.Links() {
		spare[i] = l.Capacity * (1 - b.Headroom)
	}

	type aggState struct {
		paths     []graph.Path // the aggregate's shortest paths fetched so far
		pathIdx   int
		remaining float64   // quanta left to place
		placed    []float64 // quanta placed, indexed like paths
		stuck     bool
	}
	states := make([]*aggState, m.Len())
	for i := range states {
		states[i] = &aggState{
			paths:     sps[i : i+1],
			remaining: float64(b4Quanta),
			placed:    make([]float64, 1),
		}
	}
	// pathAt returns aggregate i's pathIdx-th shortest path, going to the
	// cache only when the waterfill advances past the paths in hand.
	pathAt := func(i int) (graph.Path, bool) {
		st := states[i]
		if st.pathIdx >= len(st.paths) {
			a := m.Aggregates[i]
			st.paths = cache.Paths(a.Src, a.Dst, st.pathIdx+1)
			if st.pathIdx >= len(st.paths) {
				return graph.Path{}, false
			}
		}
		return st.paths[st.pathIdx], true
	}

	// fill runs the parallel waterfill round-robin: one quantum per
	// aggregate per round, advancing to the next shortest path when the
	// current path cannot take a full quantum.
	fill := func() {
		for {
			progress := false
			for i, st := range states {
				if st.stuck || st.remaining <= 0 {
					continue
				}
				quantum := m.Aggregates[i].Volume / float64(b4Quanta)
				for {
					path, ok := pathAt(i)
					if !ok || st.pathIdx >= b4MaxPaths {
						st.stuck = true
						break
					}
					if pathFits(spare, path, quantum) {
						for _, lid := range path.Links {
							spare[lid] -= quantum
						}
						for len(st.placed) <= st.pathIdx {
							st.placed = append(st.placed, 0)
						}
						st.placed[st.pathIdx]++
						st.remaining--
						progress = true
						break
					}
					st.pathIdx++
				}
			}
			if !progress {
				return
			}
		}
	}

	fill()

	if b.Headroom > 0 {
		// Second pass: stuck remainders may consume the reserved
		// headroom (full capacities).
		loads := make([]float64, g.NumLinks())
		for i, l := range g.Links() {
			loads[i] = float64(l.Capacity*(1-b.Headroom)) - spare[i]
			spare[i] = l.Capacity - loads[i]
		}
		for _, st := range states {
			if st.stuck && st.remaining > 0 {
				st.stuck = false
				st.pathIdx = 0
			}
		}
		fill()
	}

	// Traffic B4 failed to fit does not disappear: it is forced onto the
	// aggregate's shortest path, overloading links. This is what turns
	// B4's greedy local minima into the congestion Figure 4(b) measures
	// ("more than half of B4's paths cross a saturated link").
	for _, st := range states {
		if st.remaining > 0 {
			st.placed[0] += st.remaining
			st.remaining = 0
		}
	}

	p := NewPlacement(g, m)
	p.base = baselineOf(sps)
	for i, st := range states {
		// Collected in ascending path index, then sorted by delay. The
		// sort is not a no-op: Yen's sums a candidate's root and spur
		// delays separately, so consecutive KSP paths can invert by an ulp
		// (55 of 237 614 adjacent pairs over the zoo's nets of <= 30 nodes).
		// It is stable, so equal-delay paths (both ways round a ring) keep
		// enumeration order and the same inputs give the same list.
		var allocs []PathAlloc
		for idx, quanta := range st.placed {
			f := quanta / float64(b4Quanta)
			if f > fracEps {
				allocs = append(allocs, PathAlloc{Path: st.paths[idx], Fraction: f})
			}
		}
		sortAllocsByDelay(allocs)
		p.Allocs[i] = allocs
	}
	return p, nil
}

func pathFits(spare []float64, path graph.Path, quantum float64) bool {
	for _, lid := range path.Links {
		if spare[lid] < quantum-1e-6 {
			return false
		}
	}
	return true
}

func sortAllocsByDelay(allocs []PathAlloc) {
	for i := 1; i < len(allocs); i++ {
		for j := i; j > 0 && allocs[j].Path.Delay < allocs[j-1].Path.Delay; j-- {
			allocs[j], allocs[j-1] = allocs[j-1], allocs[j]
		}
	}
}
