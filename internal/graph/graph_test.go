package graph

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"lowlat/internal/geo"
)

// line builds a chain topology a-b-c-... with unit capacities and the given
// per-hop delay.
func line(t *testing.T, n int, delay float64) *Graph {
	t.Helper()
	b := NewBuilder("line")
	ids := make([]NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = b.AddNode(string(rune('a'+i)), geo.Point{})
	}
	for i := 0; i+1 < n; i++ {
		b.AddBiLink(ids[i], ids[i+1], 1e9, delay)
	}
	return b.MustBuild()
}

// diamond builds the classic four-node diamond:
//
//	  b
//	 / \
//	a   d     a-b-d delay 2, a-c-d delay 3, plus direct a-d delay 10
//	 \ /
//	  c
func diamond(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("diamond")
	a := b.AddNode("a", geo.Point{})
	bb := b.AddNode("b", geo.Point{})
	c := b.AddNode("c", geo.Point{})
	d := b.AddNode("d", geo.Point{})
	b.AddBiLink(a, bb, 10e9, 1)
	b.AddBiLink(bb, d, 10e9, 1)
	b.AddBiLink(a, c, 5e9, 1.5)
	b.AddBiLink(c, d, 5e9, 1.5)
	b.AddBiLink(a, d, 1e9, 10)
	return b.MustBuild()
}

// nid returns the NodeID for a named node, failing the test if absent.
func nid(t *testing.T, g *Graph, name string) NodeID {
	t.Helper()
	n, ok := g.NodeByName(name)
	if !ok {
		t.Fatalf("no node %q", name)
	}
	return n.ID
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder("bad")
	n0 := b.AddNode("x", geo.Point{})
	n1 := b.AddNode("y", geo.Point{})
	b.AddLink(n0, n1, -5, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for non-positive capacity")
	}

	b2 := NewBuilder("bad2")
	m0 := b2.AddNode("x", geo.Point{})
	m1 := b2.AddNode("y", geo.Point{})
	b2.AddLink(m0, m1, 1, -1)
	if _, err := b2.Build(); err == nil {
		t.Fatal("expected error for negative delay")
	}
}

func TestBuilderPanicsOnDuplicateName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate node name")
		}
	}()
	b := NewBuilder("dup")
	b.AddNode("x", geo.Point{})
	b.AddNode("x", geo.Point{})
}

func TestBuilderPanicsOnSelfLoop(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self loop")
		}
	}()
	b := NewBuilder("loop")
	n := b.AddNode("x", geo.Point{})
	b.AddLink(n, n, 1, 1)
}

func TestGraphAccessors(t *testing.T) {
	g := diamond(t)
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumLinks() != 10 {
		t.Fatalf("NumLinks = %d, want 10", g.NumLinks())
	}
	n, ok := g.NodeByName("c")
	if !ok || n.Name != "c" {
		t.Fatalf("NodeByName failed: %v %v", n, ok)
	}
	if _, ok := g.NodeByName("zz"); ok {
		t.Fatal("NodeByName found nonexistent node")
	}
	l, ok := g.FindLink(0, 3)
	if !ok || l.Delay != 10 {
		t.Fatalf("FindLink(a,d) = %v %v, want direct 10s link", l, ok)
	}
	rev, ok := g.Reverse(l)
	if !ok || rev.From != 3 || rev.To != 0 {
		t.Fatalf("Reverse = %v %v", rev, ok)
	}
	if !g.Connected() {
		t.Fatal("diamond should be connected")
	}
}

func TestShortestPathBasic(t *testing.T) {
	g := diamond(t)
	a := nid(t, g, "a")
	d := nid(t, g, "d")
	p, ok := g.ShortestPath(a, d, nil, nil)
	if !ok {
		t.Fatal("no path found")
	}
	if math.Abs(p.Delay-2) > 1e-12 {
		t.Fatalf("shortest delay = %v, want 2 (via b)", p.Delay)
	}
	if len(p.Links) != 2 {
		t.Fatalf("hop count = %d, want 2", len(p.Links))
	}
	if got := p.Src(g); got != a {
		t.Fatalf("Src = %v, want %v", got, a)
	}
	if got := p.Dst(g); got != d {
		t.Fatalf("Dst = %v, want %v", got, d)
	}
}

func TestShortestPathSameNode(t *testing.T) {
	g := diamond(t)
	p, ok := g.ShortestPath(0, 0, nil, nil)
	if !ok || !p.Empty() {
		t.Fatalf("ShortestPath(a,a) = %v %v, want empty path", p, ok)
	}
}

func TestShortestPathWithLinkMask(t *testing.T) {
	g := diamond(t)
	a := nid(t, g, "a")
	d := nid(t, g, "d")
	sp, _ := g.ShortestPath(a, d, nil, nil)

	mask := NewMask(g.NumLinks())
	mask.Set(int32(sp.Links[0]))
	p, ok := g.ShortestPath(a, d, mask, nil)
	if !ok {
		t.Fatal("no alternate path found")
	}
	if math.Abs(p.Delay-3) > 1e-12 {
		t.Fatalf("alternate delay = %v, want 3 (via c)", p.Delay)
	}
}

func TestShortestPathWithNodeMask(t *testing.T) {
	g := diamond(t)
	a := nid(t, g, "a")
	d := nid(t, g, "d")
	bNode := nid(t, g, "b")
	cNode := nid(t, g, "c")

	nm := NewMask(g.NumNodes())
	nm.Set(int32(bNode))
	nm.Set(int32(cNode))
	p, ok := g.ShortestPath(a, d, nil, nm)
	if !ok {
		t.Fatal("direct link should remain")
	}
	if math.Abs(p.Delay-10) > 1e-12 {
		t.Fatalf("delay = %v, want 10 via direct link", p.Delay)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	b := NewBuilder("disc")
	x := b.AddNode("x", geo.Point{})
	y := b.AddNode("y", geo.Point{})
	b.AddNode("z", geo.Point{})
	b.AddBiLink(x, y, 1e9, 1)
	g := b.MustBuild()
	if g.Connected() {
		t.Fatal("graph should be disconnected")
	}
	if _, ok := g.ShortestPath(0, 2, nil, nil); ok {
		t.Fatal("found path to disconnected node")
	}
}

func TestDiameter(t *testing.T) {
	g := line(t, 4, 3)
	if d := g.Diameter(); math.Abs(d-9) > 1e-12 {
		t.Fatalf("diameter = %v, want 9", d)
	}
}

func TestPathHelpers(t *testing.T) {
	g := diamond(t)
	a := nid(t, g, "a")
	d := nid(t, g, "d")
	p, _ := g.ShortestPath(a, d, nil, nil)

	if bn := p.Bottleneck(g); math.Abs(bn-10e9) > 1 {
		t.Fatalf("bottleneck = %v, want 10e9", bn)
	}
	nodes := p.Nodes(g)
	if len(nodes) != 3 || nodes[0] != a || nodes[2] != d {
		t.Fatalf("Nodes = %v", nodes)
	}
	if !p.Contains(p.Links[0]) {
		t.Fatal("Contains failed for own link")
	}
	if p.Contains(LinkID(99)) {
		t.Fatal("Contains matched bogus link")
	}
	if !p.Equal(p) {
		t.Fatal("path should equal itself")
	}
	q := NewPath(g, p.Links)
	if !q.Equal(p) || math.Abs(q.Delay-p.Delay) > 1e-12 {
		t.Fatalf("NewPath roundtrip mismatch: %v vs %v", q, p)
	}
	if p.Format(g) == "" || (Path{}).Format(g) != "<empty path>" {
		t.Fatal("Format output unexpected")
	}
}

func TestNewPathPanicsOnBrokenChain(t *testing.T) {
	g := diamond(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-chaining links")
		}
	}()
	// Link 0 is a->b, link 4 is a->c: they do not chain.
	NewPath(g, []LinkID{0, 4})
}

func TestWithScaledCapacities(t *testing.T) {
	g := diamond(t)
	h := WithScaledCapacities(g, 0.5)
	for i := range g.Links() {
		want := g.Link(LinkID(i)).Capacity * 0.5
		if got := h.Link(LinkID(i)).Capacity; math.Abs(got-want) > 1 {
			t.Fatalf("link %d capacity = %v, want %v", i, got, want)
		}
		if h.Link(LinkID(i)).Delay != g.Link(LinkID(i)).Delay {
			t.Fatal("delay must be preserved")
		}
	}
}

func TestCloneBuilder(t *testing.T) {
	g := diamond(t)
	b := Clone(g)
	x, _ := b.NodeID("b")
	y, _ := b.NodeID("c")
	if b.HasLink(NodeID(x), NodeID(y)) {
		t.Fatal("diamond has no b-c link")
	}
	b.AddBiLink(x, y, 1e9, 0.1)
	h := b.MustBuild()
	if h.NumLinks() != g.NumLinks()+2 {
		t.Fatalf("links = %d, want %d", h.NumLinks(), g.NumLinks()+2)
	}
	if !b.HasLink(x, y) {
		t.Fatal("HasLink should see the new link")
	}
}

func TestMask(t *testing.T) {
	m := NewMask(10)
	if m.Has(3) {
		t.Fatal("fresh mask should be empty")
	}
	m.Set(3)
	m.Set(200) // forces growth
	if !m.Has(3) || !m.Has(200) {
		t.Fatal("Set/Has failed")
	}
	if m.Count() != 2 {
		t.Fatalf("Count = %d, want 2", m.Count())
	}
	c := m.Clone()
	m.Clear(3)
	if m.Has(3) || !c.Has(3) {
		t.Fatal("Clear/Clone interaction wrong")
	}
	var nilMask *Mask
	if nilMask.Has(5) {
		t.Fatal("nil mask should exclude nothing")
	}
	if nilMask.Count() != 0 {
		t.Fatal("nil mask count should be 0")
	}
	if nilMask.Clone() == nil {
		t.Fatal("Clone of nil should be usable")
	}
}

// TestPathKeyMatchesFmt pins Path.Key to the string it was first built
// as, fmt's "%d," per link, over the empty path, small and large IDs and
// the extremes of LinkID.
func TestPathKeyMatchesFmt(t *testing.T) {
	for _, links := range [][]LinkID{
		nil,
		{0},
		{7, 0, 12},
		{9, 10, 99, 100, 999, 1000, 65535, 65536},
		{math.MaxInt32, 1, math.MinInt32, -1},
	} {
		var sb strings.Builder
		for _, l := range links {
			fmt.Fprintf(&sb, "%d,", l)
		}
		if got, want := (Path{Links: links}).Key(), sb.String(); got != want {
			t.Errorf("links %v: Key %q, want %q", links, got, want)
		}
	}
}
