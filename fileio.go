package lowlat

import (
	"io"

	"lowlat/internal/graph"
	"lowlat/internal/topoio"
)

// This file exposes the on-disk topology formats: Internet Topology Zoo
// GraphML [29] and REPETITA [16], the two datasets the paper's pipeline
// consumes, plus the library's own text format.

// TopologyReadOptions bundles per-format options for the auto-detecting
// readers.
type TopologyReadOptions = topoio.ReadOptions

// ReadTopologyFile loads a topology file in any supported format, deriving
// a default name from the file basename.
func ReadTopologyFile(path string, opts TopologyReadOptions) (*Graph, error) {
	return topoio.ReadFile(path, opts)
}

// WriteGraphML renders g as Topology Zoo-compatible GraphML.
func WriteGraphML(w io.Writer, g *graph.Graph) error { return topoio.WriteGraphML(w, g) }

// WriteRepetita renders g in REPETITA format (bandwidth in Kbps, delay in
// microseconds).
func WriteRepetita(w io.Writer, g *graph.Graph) error { return topoio.WriteRepetita(w, g) }
