// Package graph implements the directed-graph substrate the reproduction is
// built on: a WAN topology model with per-link capacity and propagation
// delay, shortest paths (Dijkstra), k-shortest paths (Yen, with incremental
// generators and caching as required by LDR), and max-flow/min-cut (Dinic)
// for the capacity-viability checks in the APA metric.
//
// Links are directed; a physical WAN link is modeled as two directed links
// (the paper's GTS example distinguishes eastbound and westbound
// directions). Capacities are in bits per second, delays in seconds.
package graph

import (
	"fmt"
	"sort"
	"sync"

	"lowlat/internal/geo"
)

// NodeID identifies a node (PoP) within a Graph. IDs are dense indices.
type NodeID int32

// LinkID identifies a directed link within a Graph. IDs are dense indices.
type LinkID int32

// Node is a point of presence with an optional geographic location.
type Node struct {
	ID   NodeID
	Name string
	Loc  geo.Point
}

// Link is a directed edge with capacity (bits/sec) and propagation delay
// (seconds).
type Link struct {
	ID       LinkID
	From     NodeID
	To       NodeID
	Capacity float64
	Delay    float64
}

// Graph is an immutable directed graph. Build one with a Builder.
type Graph struct {
	name  string
	nodes []Node
	links []Link
	out   [][]LinkID
	in    [][]LinkID

	fpOnce sync.Once // memoizes Fingerprint
	fp     uint64
}

// Name returns the graph's human-readable name.
func (g *Graph) Name() string { return g.name }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the number of directed links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Link returns the link with the given ID.
func (g *Graph) Link(id LinkID) Link { return g.links[id] }

// Nodes returns all nodes; the caller must not modify the slice.
func (g *Graph) Nodes() []Node { return g.nodes }

// Links returns all links; the caller must not modify the slice.
func (g *Graph) Links() []Link { return g.links }

// Out returns the IDs of links leaving node n; do not modify.
func (g *Graph) Out(n NodeID) []LinkID { return g.out[n] }

// In returns the IDs of links entering node n; do not modify.
func (g *Graph) In(n NodeID) []LinkID { return g.in[n] }

// NodeByName returns the node with the given name.
func (g *Graph) NodeByName(name string) (Node, bool) {
	for _, n := range g.nodes {
		if n.Name == name {
			return n, true
		}
	}
	return Node{}, false
}

// FindLink returns the first link from -> to, if one exists.
func (g *Graph) FindLink(from, to NodeID) (Link, bool) {
	for _, id := range g.out[from] {
		if g.links[id].To == to {
			return g.links[id], true
		}
	}
	return Link{}, false
}

// Reverse returns the link in the opposite direction of l, if one exists.
func (g *Graph) Reverse(l Link) (Link, bool) {
	return g.FindLink(l.To, l.From)
}

// Builder accumulates nodes and links and produces an immutable Graph.
type Builder struct {
	name  string
	nodes []Node
	links []Link
	byNme map[string]NodeID
}

// NewBuilder returns an empty Builder for a graph with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, byNme: make(map[string]NodeID)}
}

// AddNode adds a node and returns its ID. Names must be unique; AddNode
// panics on duplicates since topology construction is programmer-driven.
func (b *Builder) AddNode(name string, loc geo.Point) NodeID {
	if _, ok := b.byNme[name]; ok {
		panic(fmt.Sprintf("graph: duplicate node name %q", name))
	}
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, Name: name, Loc: loc})
	b.byNme[name] = id
	return id
}

// NodeID returns the ID for a previously added node name.
func (b *Builder) NodeID(name string) (NodeID, bool) {
	id, ok := b.byNme[name]
	return id, ok
}

// AddLink adds a directed link and returns its ID.
func (b *Builder) AddLink(from, to NodeID, capacity, delay float64) LinkID {
	if from == to {
		panic("graph: self-loop links are not allowed")
	}
	id := LinkID(len(b.links))
	b.links = append(b.links, Link{ID: id, From: from, To: to, Capacity: capacity, Delay: delay})
	return id
}

// AddBiLink adds a pair of directed links (one each way) with the same
// capacity and delay, returning both IDs.
func (b *Builder) AddBiLink(a, z NodeID, capacity, delay float64) (LinkID, LinkID) {
	return b.AddLink(a, z, capacity, delay), b.AddLink(z, a, capacity, delay)
}

// AddGeoBiLink adds a bidirectional link whose delay is derived from the
// great-circle distance between the two nodes.
func (b *Builder) AddGeoBiLink(a, z NodeID, capacity float64) (LinkID, LinkID) {
	d := geo.PropagationDelay(b.nodes[a].Loc, b.nodes[z].Loc, geo.DefaultSlack)
	return b.AddBiLink(a, z, capacity, d)
}

// HasLink reports whether a directed link from -> to was already added.
func (b *Builder) HasLink(from, to NodeID) bool {
	for _, l := range b.links {
		if l.From == from && l.To == to {
			return true
		}
	}
	return false
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.nodes) }

// Build validates the accumulated topology and returns the Graph.
func (b *Builder) Build() (*Graph, error) {
	g := &Graph{
		name:  b.name,
		nodes: append([]Node(nil), b.nodes...),
		links: append([]Link(nil), b.links...),
		out:   make([][]LinkID, len(b.nodes)),
		in:    make([][]LinkID, len(b.nodes)),
	}
	for _, l := range g.links {
		if int(l.From) >= len(g.nodes) || int(l.To) >= len(g.nodes) || l.From < 0 || l.To < 0 {
			return nil, fmt.Errorf("graph %q: link %d references unknown node", b.name, l.ID)
		}
		if l.Capacity <= 0 {
			return nil, fmt.Errorf("graph %q: link %d has non-positive capacity", b.name, l.ID)
		}
		if l.Delay < 0 {
			return nil, fmt.Errorf("graph %q: link %d has negative delay", b.name, l.ID)
		}
		g.out[l.From] = append(g.out[l.From], l.ID)
		g.in[l.To] = append(g.in[l.To], l.ID)
	}
	for n := range g.out {
		sort.Slice(g.out[n], func(i, j int) bool { return g.out[n][i] < g.out[n][j] })
		sort.Slice(g.in[n], func(i, j int) bool { return g.in[n][i] < g.in[n][j] })
	}
	return g, nil
}

// MustBuild is Build that panics on error, for statically known topologies.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Clone returns a Builder pre-populated with g's nodes and links, for
// topology-evolution experiments that add links to an existing network.
func Clone(g *Graph) *Builder {
	b := NewBuilder(g.name)
	for _, n := range g.nodes {
		b.AddNode(n.Name, n.Loc)
	}
	for _, l := range g.links {
		b.AddLink(l.From, l.To, l.Capacity, l.Delay)
	}
	return b
}

// WithScaledCapacities returns a copy of g with every link's capacity
// multiplied by factor: reserving fraction h of every link is equivalent
// to routing on a topology scaled by (1-h). The routing schemes do not
// call it — their path solver scales capacities itself — so it serves as
// the reference a test routes on to compare a headroom dial against.
func WithScaledCapacities(g *Graph, factor float64) *Graph {
	b := Clone(g)
	for i := range b.links {
		b.links[i].Capacity *= factor
	}
	return b.MustBuild()
}

// Connected reports whether every node can reach every other node.
func (g *Graph) Connected() bool {
	if len(g.nodes) == 0 {
		return true
	}
	for pass := 0; pass < 2; pass++ {
		seen := make([]bool, len(g.nodes))
		stack := []NodeID{0}
		seen[0] = true
		count := 1
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			adj := g.out[n]
			if pass == 1 {
				adj = g.in[n]
			}
			for _, lid := range adj {
				next := g.links[lid].To
				if pass == 1 {
					next = g.links[lid].From
				}
				if !seen[next] {
					seen[next] = true
					count++
					stack = append(stack, next)
				}
			}
		}
		if count != len(g.nodes) {
			return false
		}
	}
	return true
}

// Diameter returns the largest shortest-path delay between any node pair,
// in seconds. Unreachable pairs are ignored.
func (g *Graph) Diameter() float64 {
	maxD := 0.0
	for n := 0; n < g.NumNodes(); n++ {
		dist, _ := g.ShortestPathTree(NodeID(n), nil, nil)
		for m, d := range dist {
			if m != n && d < infDelay && d > maxD {
				maxD = d
			}
		}
	}
	return maxD
}
