package graph

import "math"

const infDelay = math.MaxFloat64

// pqItem is one entry of the Dijkstra priority queue.
type pqItem struct {
	node NodeID
	dist float64
}

// pq is a binary min-heap of pqItems ordered by dist. It performs exactly
// the comparisons and swaps container/heap would (same sift-up and
// sift-down), so ties pop in the same order and every path is unchanged;
// being typed, it does not box each item into an interface on push and pop.
type pq []pqItem

func (q *pq) push(it pqItem) {
	h := append(*q, it)
	*q = h
	for j := len(h) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].dist < h[j].dist {
			j = r
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// ShortestPathTree runs Dijkstra from src with delay weights, honoring the
// optional excluded-link and excluded-node masks. It returns the distance
// to every node (infDelay when unreachable) and, for each node, the link
// over which it is reached (-1 for src and unreachable nodes).
//
// The node mask excludes nodes from being traversed; src itself is never
// excluded from being the starting point.
func (g *Graph) ShortestPathTree(src NodeID, linkMask, nodeMask *Mask) ([]float64, []LinkID) {
	dist := make([]float64, g.NumNodes())
	prev := make([]LinkID, g.NumNodes())
	for i := range dist {
		dist[i] = infDelay
		prev[i] = -1
	}
	dist[src] = 0

	q := make(pq, 0, g.NumNodes())
	q.push(pqItem{node: src, dist: 0})
	for len(q) > 0 {
		it := q.pop()
		if it.dist > dist[it.node] {
			continue // stale entry
		}
		for _, lid := range g.out[it.node] {
			if linkMask.Has(int32(lid)) {
				continue
			}
			l := g.links[lid]
			if nodeMask.Has(int32(l.To)) {
				continue
			}
			nd := it.dist + l.Delay
			if nd < dist[l.To] {
				dist[l.To] = nd
				prev[l.To] = lid
				q.push(pqItem{node: l.To, dist: nd})
			}
		}
	}
	return dist, prev
}

// ShortestPath returns the minimum-delay path src -> dst under the optional
// masks, and whether one exists.
func (g *Graph) ShortestPath(src, dst NodeID, linkMask, nodeMask *Mask) (Path, bool) {
	if src == dst {
		return Path{}, true
	}
	dist, prev := g.ShortestPathTree(src, linkMask, nodeMask)
	if dist[dst] == infDelay {
		return Path{}, false
	}
	return extractPath(g, prev, src, dst, dist[dst]), true
}

// extractPath walks prev links backwards from dst to src.
func extractPath(g *Graph, prev []LinkID, src, dst NodeID, delay float64) Path {
	var rev []LinkID
	for at := dst; at != src; {
		lid := prev[at]
		rev = append(rev, lid)
		at = g.links[lid].From
	}
	links := make([]LinkID, len(rev))
	for i, lid := range rev {
		links[len(rev)-1-i] = lid
	}
	return Path{Links: links, Delay: delay}
}
