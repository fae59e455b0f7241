package topo

import (
	"fmt"
	"sync"

	"lowlat/internal/graph"
)

// Class buckets the zoo's networks by structure; the paper's analysis maps
// classes to LLPD ranges (trees ≈ 0, rings mid, grids/intercontinental
// high, cliques degenerate).
type Class string

// Zoo structural classes.
const (
	ClassStar             Class = "star"
	ClassTree             Class = "tree"
	ClassWheel            Class = "wheel"
	ClassRing             Class = "ring"
	ClassChordedRing      Class = "chorded-ring"
	ClassDoubleRing       Class = "double-ring"
	ClassLadder           Class = "ladder"
	ClassGrid             Class = "grid"
	ClassGridDiag         Class = "grid-diag"
	ClassMesh             Class = "mesh"
	ClassIntercontinental Class = "intercontinental"
	ClassClique           Class = "clique"
)

// Entry is one zoo network: a name, its structural class, and a lazy
// deterministic constructor.
type Entry struct {
	Name  string
	Class Class
	Build func() *graph.Graph
}

// ZooSize is the number of networks in the synthetic zoo, matching the 116
// Topology Zoo networks the paper studies.
const ZooSize = 116

// Zoo returns the full synthetic topology zoo: 116 deterministic networks
// spanning the structural spectrum of the Internet Topology Zoo, including
// the GTS-like and Cogent-like networks the paper's narrative features.
// GoogleLike is deliberately not part of the zoo (the paper adds it
// separately in Figure 19).
func Zoo() []Entry {
	var entries []Entry
	add := func(name string, class Class, build func() *graph.Graph) {
		entries = append(entries, Entry{Name: name, Class: class, Build: build})
	}

	for _, leaves := range []int{6, 9, 12, 16, 20, 26} {
		l := leaves
		add(fmt.Sprintf("star-%d", l), ClassStar, func() *graph.Graph {
			return Star(fmt.Sprintf("star-%d", l), l, 900, Cap10G)
		})
	}
	for _, bd := range [][2]int{{2, 3}, {2, 4}, {2, 5}, {3, 3}, {3, 4}, {4, 3}} {
		b, d := bd[0], bd[1]
		add(fmt.Sprintf("tree-%dx%d", b, d), ClassTree, func() *graph.Graph {
			return Tree(fmt.Sprintf("tree-%dx%d", b, d), b, d, 450, Cap10G)
		})
	}
	for _, leaves := range []int{6, 8, 10, 12, 16, 20} {
		l := leaves
		add(fmt.Sprintf("wheel-%d", l), ClassWheel, func() *graph.Graph {
			return Wheel(fmt.Sprintf("wheel-%d", l), l, 1100, Cap10G)
		})
	}
	for _, n := range []int{8, 10, 12, 14, 16, 20, 24, 28, 32, 36} {
		nn := n
		add(fmt.Sprintf("ring-%d", nn), ClassRing, func() *graph.Graph {
			return Ring(fmt.Sprintf("ring-%d", nn), nn, 1400, Cap10G)
		})
	}
	for _, ne := range [][2]int{{12, 3}, {16, 2}, {16, 4}, {20, 5}, {24, 3}, {24, 6}, {28, 7}, {32, 8}} {
		n, e := ne[0], ne[1]
		add(fmt.Sprintf("chord-ring-%d-%d", n, e), ClassChordedRing, func() *graph.Graph {
			return ChordedRing(fmt.Sprintf("chord-ring-%d-%d", n, e), n, e, 1400, Cap10G)
		})
	}
	for _, n := range []int{5, 6, 8, 10, 12, 14} {
		nn := n
		add(fmt.Sprintf("double-ring-%d", nn), ClassDoubleRing, func() *graph.Graph {
			return DoubleRing(fmt.Sprintf("double-ring-%d", nn), nn, 1500, Cap10G)
		})
	}
	for _, rungs := range []int{4, 5, 6, 8, 10, 12} {
		r := rungs
		add(fmt.Sprintf("ladder-%d", r), ClassLadder, func() *graph.Graph {
			return Ladder(fmt.Sprintf("ladder-%d", r), r, 550, Cap10G)
		})
	}
	for _, wh := range [][2]int{
		{3, 3}, {3, 4}, {4, 4}, {3, 5}, {4, 5}, {5, 5}, {4, 6}, {5, 6},
		{6, 6}, {4, 7}, {5, 7}, {6, 7}, {7, 7}, {5, 8}, {6, 8}, {7, 8},
	} {
		w, h := wh[0], wh[1]
		add(fmt.Sprintf("grid-%dx%d", w, h), ClassGrid, func() *graph.Graph {
			return Grid(fmt.Sprintf("grid-%dx%d", w, h), w, h, 650, Cap10G)
		})
	}
	for _, wh := range [][2]int{{3, 3}, {4, 4}, {4, 5}, {5, 5}, {5, 6}, {6, 6}} {
		w, h := wh[0], wh[1]
		add(fmt.Sprintf("grid-diag-%dx%d", w, h), ClassGridDiag, func() *graph.Graph {
			return GridDiag(fmt.Sprintf("grid-diag-%dx%d", w, h), w, h, 700, Cap10G)
		})
	}
	seed := int64(1000)
	for _, n := range []int{12, 16, 20, 24, 28, 32, 36, 40} {
		for _, dense := range []bool{false, true} {
			nn, dd, s := n, dense, seed
			seed++
			suffix := "sparse"
			alpha := 0.25
			if dd {
				suffix = "dense"
				alpha = 0.6
			}
			name := fmt.Sprintf("mesh-%d-%s", nn, suffix)
			add(name, ClassMesh, func() *graph.Graph {
				return RandomGeo(name, nn, 3200, 2300, alpha, 0.3, Cap10G, s)
			})
		}
	}
	for _, n := range []int{28, 32, 36, 40, 44, 48, 56, 64, 72, 80} {
		nn, s := n, seed
		seed++
		name := fmt.Sprintf("mesh-%d-wide", nn)
		add(name, ClassMesh, func() *graph.Graph {
			return RandomGeo(name, nn, 4600, 3000, 0.3, 0.22, Cap10G, s)
		})
	}
	add("grid-8x8", ClassGrid, func() *graph.Graph {
		return Grid("grid-8x8", 8, 8, 650, Cap10G)
	})
	for i, cfg := range [][3]int{
		{2, 8, 2}, {2, 10, 3}, {2, 12, 3}, {3, 8, 2}, {3, 10, 3},
		{2, 16, 4}, {3, 12, 3}, {2, 20, 4}, {4, 8, 2}, {3, 16, 4}, {4, 10, 3},
	} {
		regions, per, inter := cfg[0], cfg[1], cfg[2]
		s := int64(5000 + i)
		name := fmt.Sprintf("intercont-%dx%d-%d", regions, per, inter)
		add(name, ClassIntercontinental, func() *graph.Graph {
			return MultiRegion(name, regions, per, 1600, 5200, inter, Cap40G, Cap100G, s)
		})
	}
	for _, n := range []int{5, 6, 8, 10, 12, 14} {
		nn := n
		add(fmt.Sprintf("clique-%d", nn), ClassClique, func() *graph.Graph {
			return Clique(fmt.Sprintf("clique-%d", nn), nn, 1600, Cap10G)
		})
	}
	add("gts-like", ClassGrid, GTSLike)
	add("cogent-like", ClassIntercontinental, CogentLike)

	if len(entries) != ZooSize {
		panic(fmt.Sprintf("topo: zoo has %d entries, want %d", len(entries), ZooSize))
	}
	return entries
}

// zooIndex maps every zoo name to its entry, built once from Zoo, which
// formats all 116 names on every call: ByName runs on every net-term
// resolution.
var zooIndex = sync.OnceValue(func() map[string]Entry {
	idx := make(map[string]Entry, ZooSize)
	for _, e := range Zoo() {
		idx[e.Name] = e
	}
	return idx
})

// ByName returns the zoo entry with the given name.
func ByName(name string) (Entry, bool) {
	if e, ok := zooIndex()[name]; ok {
		return e, true
	}
	if name == "google-like" {
		return Entry{Name: name, Class: ClassIntercontinental, Build: GoogleLike}, true
	}
	return Entry{}, false
}
