package graph

import (
	"container/heap"
	"math/rand"
	"reflect"
	"testing"

	"lowlat/internal/geo"
)

// The container/heap Dijkstra the typed heap in dijkstra.go replaced, kept
// as the reference: the typed heap must pop ties in the same order, so
// every tree — and every path Yen's algorithm derives from one — is
// unchanged.

type refPQ []pqItem

func (q refPQ) Len() int            { return len(q) }
func (q refPQ) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q refPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *refPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func refShortestPathTree(g *Graph, src NodeID, linkMask, nodeMask *Mask) ([]float64, []LinkID) {
	dist := make([]float64, g.NumNodes())
	prev := make([]LinkID, g.NumNodes())
	for i := range dist {
		dist[i] = infDelay
		prev[i] = -1
	}
	dist[src] = 0

	q := make(refPQ, 0, g.NumNodes())
	heap.Push(&q, pqItem{node: src, dist: 0})
	for q.Len() > 0 {
		it := heap.Pop(&q).(pqItem)
		if it.dist > dist[it.node] {
			continue
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
				heap.Push(&q, pqItem{node: l.To, dist: nd})
			}
		}
	}
	return dist, prev
}

func refShortestPath(g *Graph, src, dst NodeID, linkMask, nodeMask *Mask) (Path, bool) {
	if src == dst {
		return Path{}, true
	}
	dist, prev := refShortestPathTree(g, src, linkMask, nodeMask)
	if dist[dst] == infDelay {
		return Path{}, false
	}
	return extractPath(g, prev, src, dst, dist[dst]), true
}

// refKSP is Yen's algorithm exactly as KSP.generateNext runs it, over the
// reference Dijkstra.
func refKSP(g *Graph, src, dst NodeID, baseMask *Mask, n int) []Path {
	var found []Path
	var cand candHeap
	seen := make(map[string]bool)
	sp, ok := refShortestPath(g, src, dst, baseMask, nil)
	if !ok || sp.Empty() {
		return nil
	}
	found = append(found, sp)
	seen[sp.Key()] = true
	for len(found) < n {
		prev := found[len(found)-1]
		rootDelay := 0.0
		for i := 0; i < len(prev.Links); i++ {
			spurNode := src
			if i > 0 {
				spurNode = g.Link(prev.Links[i-1]).To
			}
			rootLinks := prev.Links[:i]
			linkMask := baseMask.Clone()
			for _, p := range found {
				if hasPrefix(p.Links, rootLinks) && len(p.Links) > i {
					linkMask.Set(int32(p.Links[i]))
				}
			}
			nodeMask := NewMask(g.NumNodes())
			at := src
			for _, lid := range rootLinks {
				nodeMask.Set(int32(at))
				at = g.Link(lid).To
			}
			if spur, ok := refShortestPath(g, spurNode, dst, linkMask, nodeMask); ok && !spur.Empty() {
				links := append(append([]LinkID{}, rootLinks...), spur.Links...)
				c := Path{Links: links, Delay: rootDelay + spur.Delay}
				if key := c.Key(); !seen[key] {
					seen[key] = true
					heap.Push(&cand, c)
				}
			}
			rootDelay += g.Link(prev.Links[i]).Delay
		}
		if cand.Len() == 0 {
			break
		}
		found = append(found, heap.Pop(&cand).(Path))
	}
	return found
}

// tieGraph builds a random connected graph whose delays are drawn from
// three values, so equal-distance frontiers — where heap pop order decides
// which of several equally short paths the tree keeps — are everywhere.
func tieGraph(rng *rand.Rand, n int, p float64) *Graph {
	delays := []float64{1, 2, 3}
	b := NewBuilder("ties")
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = b.AddNode(string(rune('A'+i)), geo.Point{})
	}
	for i := 0; i < n; i++ {
		b.AddBiLink(ids[i], ids[(i+1)%n], 1e9, delays[rng.Intn(len(delays))])
	}
	for i := 0; i < n; i++ {
		for j := i + 2; j < n; j++ {
			if rng.Float64() < p && !(i == 0 && j == n-1) {
				b.AddBiLink(ids[i], ids[j], 1e9, delays[rng.Intn(len(delays))])
			}
		}
	}
	return b.MustBuild()
}

func randomMask(rng *rand.Rand, size int, p float64) *Mask {
	m := NewMask(size)
	for i := 0; i < size; i++ {
		if rng.Float64() < p {
			m.Set(int32(i))
		}
	}
	return m
}

// TestTypedHeapMatchesContainerHeap pins the non-boxing heap to the
// container/heap one: identical trees under nil and random masks, and
// identical k-shortest-path lists, on graphs full of delay ties.
func TestTypedHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := tieGraph(rng, 6+rng.Intn(10), 0.15+float64(0.3*rng.Float64()))
		masks := [][2]*Mask{
			{nil, nil},
			{randomMask(rng, g.NumLinks(), 0.15), nil},
			{randomMask(rng, g.NumLinks(), 0.1), randomMask(rng, g.NumNodes(), 0.15)},
		}
		for s := 0; s < g.NumNodes(); s++ {
			src := NodeID(s)
			for _, mk := range masks {
				dist, prev := g.ShortestPathTree(src, mk[0], mk[1])
				wantDist, wantPrev := refShortestPathTree(g, src, mk[0], mk[1])
				if !reflect.DeepEqual(dist, wantDist) || !reflect.DeepEqual(prev, wantPrev) {
					t.Fatalf("seed %d src %d: tree differs from the container/heap reference", seed, s)
				}
			}
		}
		for trial := 0; trial < 6; trial++ {
			src := NodeID(rng.Intn(g.NumNodes()))
			dst := NodeID(rng.Intn(g.NumNodes()))
			if src == dst {
				continue
			}
			var base *Mask
			if trial%2 == 1 {
				base = randomMask(rng, g.NumLinks(), 0.1)
			}
			got := NewKSP(g, src, dst, base).First(16)
			want := refKSP(g, src, dst, base, 16)
			if len(got) != len(want) {
				t.Fatalf("seed %d %d->%d: %d paths, reference has %d", seed, src, dst, len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) || got[i].Delay != want[i].Delay {
					t.Fatalf("seed %d %d->%d: path %d differs from the reference", seed, src, dst, i)
				}
			}
		}
	}
}
