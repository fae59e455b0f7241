// Package topo builds the reproduction's topology dataset: a deterministic
// synthetic zoo standing in for the 116 Internet Topology Zoo networks the
// paper studies, plus the named networks its narrative leans on (a GTS-like
// central-European grid, a Cogent-like intercontinental mesh, and a
// Google-like high-LLPD global network).
//
// Generators place nodes geographically and derive link delays from
// great-circle distances, so every synthetic network has physically
// plausible latency structure. All generators are deterministic: the same
// arguments always produce the same network.
package topo

import (
	"fmt"
	"math"

	"lowlat/internal/geo"
	"lowlat/internal/graph"
	"lowlat/internal/stats"
)

// Capacity tiers used across the zoo, in bits per second.
const (
	Gbps    = 1e9
	Cap10G  = 10 * Gbps
	Cap40G  = 40 * Gbps
	Cap100G = 100 * Gbps
)

const (
	kmPerDegLat = 111.0
	defaultLat  = 45.0
	defaultLon  = 10.0
)

// place converts a (dx, dy) offset in kilometers from the default center to
// a geographic point. dx is east, dy is north.
func place(dxKm, dyKm float64) geo.Point {
	lat := defaultLat + dyKm/kmPerDegLat
	lon := defaultLon + dxKm/(kmPerDegLat*math.Cos(defaultLat*math.Pi/180))
	return geo.Point{Lat: lat, Lon: lon}
}

// Star returns a hub-and-spoke network: one hub, leaves on a circle. Its
// LLPD is zero: no link can be routed around at all.
func Star(name string, leaves int, radiusKm, capacity float64) *graph.Graph {
	b := graph.NewBuilder(name)
	hub := b.AddNode("hub", place(0, 0))
	for i := 0; i < leaves; i++ {
		ang := 2 * math.Pi * float64(i) / float64(leaves)
		n := b.AddNode(fmt.Sprintf("leaf%d", i), place(radiusKm*math.Cos(ang), radiusKm*math.Sin(ang)))
		b.AddGeoBiLink(hub, n, capacity)
	}
	return b.MustBuild()
}

// Tree returns a balanced tree with the given branching factor and depth
// (depth 0 is a single root). Trees have LLPD zero.
func Tree(name string, branching, depth int, spacingKm, capacity float64) *graph.Graph {
	b := graph.NewBuilder(name)
	type qn struct {
		id    graph.NodeID
		level int
		x     float64
	}
	root := b.AddNode("n0", place(0, 0))
	queue := []qn{{root, 0, 0}}
	count := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.level >= depth {
			continue
		}
		span := spacingKm * math.Pow(float64(branching), float64(depth-cur.level-1))
		for c := 0; c < branching; c++ {
			// Each product rounds; the compiler turns /2 into a fusable *0.5.
			x := cur.x + float64(span*(float64(c)-float64(float64(branching-1)/2)))
			id := b.AddNode(fmt.Sprintf("n%d", count), place(x, -spacingKm*float64(cur.level+1)))
			count++
			b.AddGeoBiLink(cur.id, id, capacity)
			queue = append(queue, qn{id, cur.level + 1, x})
		}
	}
	return b.MustBuild()
}

// Ring returns n nodes on a circle of the given radius, each linked to its
// two neighbors. Rings have path diversity but a high latency cost for
// going the "wrong way" around — the paper's mid-LLPD class.
func Ring(name string, n int, radiusKm, capacity float64) *graph.Graph {
	b := graph.NewBuilder(name)
	ids := ringNodes(b, n, radiusKm)
	for i := 0; i < n; i++ {
		b.AddGeoBiLink(ids[i], ids[(i+1)%n], capacity)
	}
	return b.MustBuild()
}

func ringNodes(b *graph.Builder, n int, radiusKm float64) []graph.NodeID {
	ids := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		ang := 2 * math.Pi * float64(i) / float64(n)
		ids[i] = b.AddNode(fmt.Sprintf("r%d", i), place(radiusKm*math.Cos(ang), radiusKm*math.Sin(ang)))
	}
	return ids
}

// ChordedRing returns a ring with an extra chord every `every` nodes,
// raising LLPD above a plain ring.
func ChordedRing(name string, n, every int, radiusKm, capacity float64) *graph.Graph {
	b := graph.NewBuilder(name)
	ids := ringNodes(b, n, radiusKm)
	for i := 0; i < n; i++ {
		b.AddGeoBiLink(ids[i], ids[(i+1)%n], capacity)
	}
	for i := 0; i < n; i += every {
		j := (i + n/2) % n
		if i < j && !b.HasLink(ids[i], ids[j]) {
			b.AddGeoBiLink(ids[i], ids[j], capacity)
		}
	}
	return b.MustBuild()
}

// DoubleRing returns two concentric rings joined by spokes, a common
// survivable-WAN design.
func DoubleRing(name string, n int, outerKm float64, capacity float64) *graph.Graph {
	b := graph.NewBuilder(name)
	outer := make([]graph.NodeID, n)
	inner := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		ang := 2 * math.Pi * float64(i) / float64(n)
		outer[i] = b.AddNode(fmt.Sprintf("o%d", i), place(outerKm*math.Cos(ang), outerKm*math.Sin(ang)))
		inner[i] = b.AddNode(fmt.Sprintf("i%d", i), place(0.55*outerKm*math.Cos(ang), 0.55*outerKm*math.Sin(ang)))
	}
	for i := 0; i < n; i++ {
		b.AddGeoBiLink(outer[i], outer[(i+1)%n], capacity)
		b.AddGeoBiLink(inner[i], inner[(i+1)%n], capacity)
		b.AddGeoBiLink(outer[i], inner[i], capacity)
	}
	return b.MustBuild()
}

// Ladder returns a 2 x rungs ladder (two parallel chains with rungs).
func Ladder(name string, rungs int, spacingKm, capacity float64) *graph.Graph {
	b := graph.NewBuilder(name)
	top := make([]graph.NodeID, rungs)
	bot := make([]graph.NodeID, rungs)
	for i := 0; i < rungs; i++ {
		x := spacingKm * float64(i)
		top[i] = b.AddNode(fmt.Sprintf("t%d", i), place(x, spacingKm/2))
		bot[i] = b.AddNode(fmt.Sprintf("b%d", i), place(x, -spacingKm/2))
		b.AddGeoBiLink(top[i], bot[i], capacity)
		if i > 0 {
			b.AddGeoBiLink(top[i-1], top[i], capacity)
			b.AddGeoBiLink(bot[i-1], bot[i], capacity)
		}
	}
	return b.MustBuild()
}

// Grid returns a w x h two-dimensional grid with the given node spacing —
// the paper's canonical high-LLPD class (GTS-like).
func Grid(name string, w, h int, spacingKm, capacity float64) *graph.Graph {
	g, _ := gridBuilder(name, w, h, spacingKm, capacity, false)
	return g
}

// GridDiag returns a grid with diagonal links added in every cell, an even
// denser mesh.
func GridDiag(name string, w, h int, spacingKm, capacity float64) *graph.Graph {
	g, _ := gridBuilder(name, w, h, spacingKm, capacity, true)
	return g
}

func gridBuilder(name string, w, h int, spacingKm, capacity float64, diag bool) (*graph.Graph, []graph.NodeID) {
	b := graph.NewBuilder(name)
	ids := make([]graph.NodeID, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			ids[y*w+x] = b.AddNode(fmt.Sprintf("g%d_%d", x, y),
				place(spacingKm*float64(x), spacingKm*float64(y)))
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddGeoBiLink(ids[y*w+x], ids[y*w+x+1], capacity)
			}
			if y+1 < h {
				b.AddGeoBiLink(ids[y*w+x], ids[(y+1)*w+x], capacity)
			}
			if diag && x+1 < w && y+1 < h {
				b.AddGeoBiLink(ids[y*w+x], ids[(y+1)*w+x+1], capacity)
			}
		}
	}
	return b.MustBuild(), ids
}

// Clique returns a full mesh — the paper identifies these as overlay
// networks whose APA CDFs are horizontal lines.
func Clique(name string, n int, radiusKm, capacity float64) *graph.Graph {
	b := graph.NewBuilder(name)
	ids := ringNodes(b, n, radiusKm)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddGeoBiLink(ids[i], ids[j], capacity)
		}
	}
	return b.MustBuild()
}

// RandomGeo returns a Waxman-style random geographic mesh over a widthKm x
// heightKm box: a random spanning tree guarantees connectivity, then extra
// links are added with probability alpha * exp(-d / (beta * maxDist)).
func RandomGeo(name string, n int, widthKm, heightKm, alpha, beta, capacity float64, seed int64) *graph.Graph {
	rng := stats.Rng(seed)
	b := graph.NewBuilder(name)
	xs := make([]float64, n)
	ys := make([]float64, n)
	ids := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64() * widthKm
		ys[i] = rng.Float64() * heightKm
		ids[i] = b.AddNode(fmt.Sprintf("w%d", i), place(xs[i], ys[i]))
	}
	dist := func(i, j int) float64 {
		return math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
	}
	// Spanning tree: connect each node to its nearest already-placed node.
	for i := 1; i < n; i++ {
		best, bestD := 0, math.Inf(1)
		for j := 0; j < i; j++ {
			if d := dist(i, j); d < bestD {
				best, bestD = j, d
			}
		}
		b.AddGeoBiLink(ids[i], ids[best], capacity)
	}
	maxDist := math.Hypot(widthKm, heightKm)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if b.HasLink(ids[i], ids[j]) {
				continue
			}
			p := alpha * math.Exp(-dist(i, j)/(beta*maxDist))
			if rng.Float64() < p {
				b.AddGeoBiLink(ids[i], ids[j], capacity)
			}
		}
	}
	return b.MustBuild()
}

// MultiRegion returns `regions` regional meshes spread along an east-west
// span, joined by `interLinks` long-haul links per adjacent region pair —
// the paper's Cogent-like intercontinental class. Long-haul links get the
// long-haul capacity tier; regional links the regional tier.
func MultiRegion(name string, regions, perRegion int, regionSpanKm, interDistKm float64,
	interLinks int, regionalCap, longHaulCap float64, seed int64) *graph.Graph {
	rng := stats.Rng(seed)
	b := graph.NewBuilder(name)
	regionNodes := make([][]graph.NodeID, regions)
	regionX := make([][]float64, regions)
	regionY := make([][]float64, regions)
	for r := 0; r < regions; r++ {
		baseX := float64(r) * (regionSpanKm + interDistKm)
		nodes := make([]graph.NodeID, perRegion)
		xs := make([]float64, perRegion)
		ys := make([]float64, perRegion)
		for i := 0; i < perRegion; i++ {
			xs[i] = float64(baseX) + float64(rng.Float64()*regionSpanKm)
			ys[i] = rng.Float64() * regionSpanKm
			nodes[i] = b.AddNode(fmt.Sprintf("r%dn%d", r, i), place(xs[i], ys[i]))
		}
		// Dense regional mesh: nearest-neighbor tree plus extra links.
		for i := 1; i < perRegion; i++ {
			best, bestD := 0, math.Inf(1)
			for j := 0; j < i; j++ {
				if d := math.Hypot(xs[i]-xs[j], ys[i]-ys[j]); d < bestD {
					best, bestD = j, d
				}
			}
			b.AddGeoBiLink(nodes[i], nodes[best], regionalCap)
		}
		extra := perRegion
		for e := 0; e < extra; e++ {
			i, j := rng.Intn(perRegion), rng.Intn(perRegion)
			if i != j && !b.HasLink(nodes[i], nodes[j]) {
				b.AddGeoBiLink(nodes[i], nodes[j], regionalCap)
			}
		}
		regionNodes[r] = nodes
		regionX[r] = xs
		regionY[r] = ys
	}
	for r := 0; r+1 < regions; r++ {
		for k := 0; k < interLinks; k++ {
			i := rng.Intn(perRegion)
			j := rng.Intn(perRegion)
			if !b.HasLink(regionNodes[r][i], regionNodes[r+1][j]) {
				b.AddGeoBiLink(regionNodes[r][i], regionNodes[r+1][j], longHaulCap)
			}
		}
	}
	return b.MustBuild()
}

// Wheel returns a star whose leaves are also joined in a ring, giving
// hub-and-spoke networks limited redundancy.
func Wheel(name string, leaves int, radiusKm, capacity float64) *graph.Graph {
	b := graph.NewBuilder(name)
	hub := b.AddNode("hub", place(0, 0))
	ids := make([]graph.NodeID, leaves)
	for i := 0; i < leaves; i++ {
		ang := 2 * math.Pi * float64(i) / float64(leaves)
		ids[i] = b.AddNode(fmt.Sprintf("leaf%d", i), place(radiusKm*math.Cos(ang), radiusKm*math.Sin(ang)))
		b.AddGeoBiLink(hub, ids[i], capacity)
	}
	for i := 0; i < leaves; i++ {
		b.AddGeoBiLink(ids[i], ids[(i+1)%leaves], capacity)
	}
	return b.MustBuild()
}
