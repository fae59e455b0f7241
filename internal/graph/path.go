package graph

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Path is a loop-free sequence of directed links with its total propagation
// delay cached. Paths are produced by the shortest-path and KSP routines;
// Delay is authoritative for ordering.
type Path struct {
	Links []LinkID
	Delay float64
}

// NewPath builds a Path over g from a link sequence, computing its delay.
// It panics if the links do not form a chain; paths are only constructed
// from algorithm output, so a malformed chain is a programming error.
func NewPath(g *Graph, links []LinkID) Path {
	delay := 0.0
	for i, lid := range links {
		l := g.Link(lid)
		delay += l.Delay
		if i > 0 && g.Link(links[i-1]).To != l.From {
			panic(fmt.Sprintf("graph: links %d and %d do not chain", links[i-1], lid))
		}
	}
	return Path{Links: append([]LinkID(nil), links...), Delay: delay}
}

// Empty reports whether the path has no links.
func (p Path) Empty() bool { return len(p.Links) == 0 }

// Bottleneck returns the minimum capacity along the path, or +Inf for an
// empty path.
func (p Path) Bottleneck(g *Graph) float64 {
	minCap := math.Inf(1)
	for _, lid := range p.Links {
		if c := g.Link(lid).Capacity; c < minCap {
			minCap = c
		}
	}
	return minCap
}

// Src returns the first node of the path.
func (p Path) Src(g *Graph) NodeID { return g.Link(p.Links[0]).From }

// Dst returns the last node of the path.
func (p Path) Dst(g *Graph) NodeID { return g.Link(p.Links[len(p.Links)-1]).To }

// Nodes returns the node sequence visited by the path.
func (p Path) Nodes(g *Graph) []NodeID {
	if p.Empty() {
		return nil
	}
	nodes := make([]NodeID, 0, len(p.Links)+1)
	nodes = append(nodes, g.Link(p.Links[0]).From)
	for _, lid := range p.Links {
		nodes = append(nodes, g.Link(lid).To)
	}
	return nodes
}

// Contains reports whether the path crosses the given link.
func (p Path) Contains(lid LinkID) bool {
	for _, l := range p.Links {
		if l == lid {
			return true
		}
	}
	return false
}

// Equal reports whether two paths use the identical link sequence.
func (p Path) Equal(q Path) bool {
	if len(p.Links) != len(q.Links) {
		return false
	}
	for i := range p.Links {
		if p.Links[i] != q.Links[i] {
			return false
		}
	}
	return true
}

// Key returns a compact string key for the link sequence, for dedup maps:
// each link's decimal ID followed by a comma.
func (p Path) Key() string {
	buf := make([]byte, 0, 4*len(p.Links))
	for _, l := range p.Links {
		buf = append(strconv.AppendInt(buf, int64(l), 10), ',')
	}
	return string(buf)
}

// Format renders the path as "A -> B -> C (12.3 ms)".
func (p Path) Format(g *Graph) string {
	if p.Empty() {
		return "<empty path>"
	}
	var sb strings.Builder
	sb.WriteString(g.Node(p.Src(g)).Name)
	for _, lid := range p.Links {
		sb.WriteString(" -> ")
		sb.WriteString(g.Node(g.Link(lid).To).Name)
	}
	fmt.Fprintf(&sb, " (%.2f ms)", p.Delay*1000)
	return sb.String()
}
