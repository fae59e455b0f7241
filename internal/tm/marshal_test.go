package tm_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"lowlat/internal/geo"
	"lowlat/internal/graph"
	"lowlat/internal/tm"
	"lowlat/internal/tmgen"
	"lowlat/internal/topo"
)

// fmtMarshal is Marshal as it was first written, one fmt.Fprintf per
// line, kept as the reference for the bytes the matrix digests hash.
func fmtMarshal(g *graph.Graph, m *tm.Matrix) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "tm %s\n", g.Name())
	for _, a := range m.Aggregates {
		fmt.Fprintf(&buf, "agg %s %s %g %d",
			g.Node(a.Src).Name, g.Node(a.Dst).Name, a.Volume, a.Flows)
		if a.Weight != 0 && a.Weight != 1 {
			fmt.Fprintf(&buf, " %g", a.Weight)
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestMarshalMatchesFmt pins Marshal's bytes to the fmt form: on
// generated zoo matrices, and on volumes and weights at the edges of %g's
// notation (the switch to an exponent at 1e21 and 1e-5, subnormals,
// zeros, infinities) with weights other than 1.
func TestMarshalMatchesFmt(t *testing.T) {
	for _, name := range []string{"ring-8", "grid-4x4", "tree-2x4"} {
		e, ok := topo.ByName(name)
		if !ok {
			t.Fatalf("%s missing from the zoo", name)
		}
		g := e.Build()
		for seed := int64(0); seed < 2; seed++ {
			res, err := tmgen.Generate(g, tmgen.Config{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if got, want := tm.Marshal(g, res.Matrix), fmtMarshal(g, res.Matrix); !bytes.Equal(got, want) {
				t.Fatalf("%s seed %d: Marshal differs from the fmt form:\n%s\nwant\n%s", name, seed, got, want)
			}
		}
	}

	b := graph.NewBuilder("edge-floats")
	x := b.AddNode("x", geo.Point{})
	y := b.AddNode("y-2", geo.Point{})
	b.AddBiLink(x, y, 10e9, 0.001)
	g := b.MustBuild()
	floats := []float64{
		1e21, 1e20, 999999999999999999999, 1e-5, 1e-4, 0.00001234, 123456, 1234567,
		5e-324, math.SmallestNonzeroFloat64 * 7, 2.2250738585072014e-308, math.MaxFloat64,
		0, math.Copysign(0, -1), 0.1 + 0.2, 1.0 / 3, 2.5e9, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	var aggs []tm.Aggregate
	for i, v := range floats {
		aggs = append(aggs,
			tm.Aggregate{Src: x, Dst: y, Volume: v, Flows: i},
			tm.Aggregate{Src: y, Dst: x, Volume: 1, Flows: -i, Weight: v},
			tm.Aggregate{Src: x, Dst: y, Volume: v, Flows: 1 << 40, Weight: 1})
	}
	m := &tm.Matrix{Aggregates: aggs}
	if got, want := tm.Marshal(g, m), fmtMarshal(g, m); !bytes.Equal(got, want) {
		t.Fatalf("edge floats: Marshal differs from the fmt form:\n%s\nwant\n%s", got, want)
	}
}
