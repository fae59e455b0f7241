package graph

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// Fingerprint returns a structural hash of the graph: name, nodes (names
// and coordinates) and links (endpoints, capacity, delay). Two graphs with
// equal fingerprints route identically, which is what lets a
// routing.SolverCache share path computations between separately built
// copies of the same topology. Graphs are immutable, so the fingerprint is
// stable for the life of the value: it is hashed once, on first use, and
// remembered.
func (g *Graph) Fingerprint() uint64 {
	g.fpOnce.Do(func() { g.fp = g.fingerprint() })
	return g.fp
}

func (g *Graph) fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeF64 := func(v float64) { writeU64(math.Float64bits(v)) }

	h.Write([]byte(g.name))
	writeU64(uint64(len(g.nodes)))
	for _, n := range g.nodes {
		h.Write([]byte(n.Name))
		writeF64(n.Loc.Lat)
		writeF64(n.Loc.Lon)
	}
	writeU64(uint64(len(g.links)))
	for _, l := range g.links {
		writeU64(uint64(uint32(l.From))<<32 | uint64(uint32(l.To)))
		writeF64(l.Capacity)
		writeF64(l.Delay)
	}
	return h.Sum64()
}
