package lowlat

import (
	"lowlat/internal/geo"
	"lowlat/internal/graph"
	"lowlat/internal/topo"
)

// This file is the topology half of the public facade: building a
// topology by hand or from a generator, the synthetic zoo, and LLPD-guided
// growth.

// Graph is an immutable directed network topology.
type Graph = graph.Graph

// Builder accumulates nodes and links and produces an immutable Graph.
type Builder = graph.Builder

// Point is a geographic coordinate (latitude, longitude in degrees).
type Point = geo.Point

// ZooEntry is one synthetic stand-in network from the 116-network zoo,
// tagged with its structural class.
type ZooEntry = topo.Entry

// AddedLink records one link added by GrowTopology together with the LLPD
// it achieved.
type AddedLink = topo.AddedLink

// GrowConfig parameterizes GrowTopology.
type GrowConfig = topo.GrowConfig

// NewBuilder returns a Builder for a topology with the given name.
func NewBuilder(name string) *Builder { return graph.NewBuilder(name) }

// Zoo returns the 116-network synthetic topology zoo that stands in for
// the paper's Internet Topology Zoo selection. Entries are ordered by
// name; construction is deterministic.
func Zoo() []ZooEntry { return topo.Zoo() }

// GTSLike returns the synthetic stand-in for GTS's Central Europe network
// (Figure 2): a dense national grid with high LLPD.
func GTSLike() *Graph { return topo.GTSLike() }

// CogentLike returns the synthetic stand-in for Cogent: a two-continent
// network with diverse intercontinental paths.
func CogentLike() *Graph { return topo.CogentLike() }

// GrowTopology adds links to g one at a time, each time choosing the
// candidate that most increases LLPD, until the link count has grown by
// cfg.GrowFraction (the §8 "does routing influence topology?" experiment,
// Figure 20). It returns the grown topology and the links added.
func GrowTopology(g *Graph, cfg GrowConfig) (*Graph, []AddedLink) {
	return topo.Grow(g, cfg)
}

// Synthetic generators, exported so users can build controlled topologies
// like the ones the zoo is made of.

// Grid returns a w x h two-dimensional grid with the given node spacing,
// the structure the paper identifies as high-LLPD (GTS-like).
func Grid(name string, w, h int, spacingKm, capacity float64) *Graph {
	return topo.Grid(name, w, h, spacingKm, capacity)
}

// Ring returns an n-node ring, the paper's canonical mid-LLPD structure.
func Ring(name string, n int, radiusKm, capacity float64) *Graph {
	return topo.Ring(name, n, radiusKm, capacity)
}

// Tree returns a balanced tree, the paper's canonical low-LLPD structure.
func Tree(name string, branching, depth int, spacingKm, capacity float64) *Graph {
	return topo.Tree(name, branching, depth, spacingKm, capacity)
}
