package routing

import (
	"lowlat/internal/graph"
	"lowlat/internal/tm"
)

// Scheme places a traffic matrix onto a topology.
type Scheme interface {
	// Name identifies the scheme in experiment output.
	Name() string
	// Place computes a placement. Schemes never fail on well-formed
	// input, and every aggregate's full volume is placed: traffic a
	// scheme cannot fit overloads links (see Placement.Fits).
	Place(g *graph.Graph, m *tm.Matrix) (*Placement, error)
}

// shortestDelays returns each aggregate's shortest-path delay (S_a in the
// Figure 12 LP) and the paths themselves, through a PathCache so repeated
// and concurrent solves on the same topology share the Dijkstra work.
func shortestDelays(c *PathCache, g *graph.Graph, m *tm.Matrix) ([]graph.Path, error) {
	paths := make([]graph.Path, m.Len())
	for i, a := range m.Aggregates {
		sp, ok := c.ShortestPath(a.Src, a.Dst)
		if !ok {
			return nil, errUnroutable(g, a)
		}
		paths[i] = sp
	}
	return paths, nil
}

type unroutableError struct {
	src, dst string
}

func (e unroutableError) Error() string {
	return "routing: no path from " + e.src + " to " + e.dst
}

func errUnroutable(g *graph.Graph, a tm.Aggregate) error {
	return unroutableError{src: g.Node(a.Src).Name, dst: g.Node(a.Dst).Name}
}
