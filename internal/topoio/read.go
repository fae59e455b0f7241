package topoio

import (
	"bytes"
	"io"
	"os"

	"lowlat/internal/graph"
	"lowlat/internal/topo"
)

// ReadOptions configures the auto-detecting reader; each format reads
// at its own defaults.
type ReadOptions struct {
	// Name overrides the graph name for formats that carry none.
	Name string
}

// Read sniffs the format of r's content and parses it.
func Read(r io.Reader, opts ReadOptions) (*graph.Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ReadBytes(data, opts)
}

// ReadBytes is Read over in-memory data.
func ReadBytes(data []byte, opts ReadOptions) (*graph.Graph, error) {
	switch f := Detect(data); f {
	case FormatGraphML:
		return ReadGraphML(bytes.NewReader(data), GraphMLOptions{KeepName: opts.Name})
	case FormatRepetita:
		return ReadRepetita(bytes.NewReader(data), RepetitaOptions{Name: opts.Name})
	case FormatNative:
		return topo.Unmarshal(data)
	default:
		return nil, errf(FormatUnknown, "detect", "unrecognized topology format")
	}
}

// ReadFile loads a topology file, deriving a default name from the file
// basename when the format carries none.
func ReadFile(path string, opts ReadOptions) (*graph.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if opts.Name == "" {
		opts.Name = baseName(path)
	}
	return ReadBytes(data, opts)
}

func baseName(path string) string {
	base := path
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == '\\' {
			base = path[i+1:]
			break
		}
	}
	for i := len(base) - 1; i >= 0; i-- {
		if base[i] == '.' {
			return base[:i]
		}
	}
	return base
}
