package topoio

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"lowlat/internal/geo"
	"lowlat/internal/graph"
)

// GraphMLOptions controls how Topology Zoo GraphML is interpreted.
type GraphMLOptions struct {
	// DefaultCapacity is used for edges that carry no recognizable
	// speed attribute (bits/sec). Default 10 Gb/s, the zoo's most
	// common provisioned tier.
	DefaultCapacity float64
	// DefaultDelay is used for edges between nodes lacking coordinates
	// (seconds). Default 1 ms.
	DefaultDelay float64
	// KeepName overrides the graph name; empty uses the GraphML
	// "Network" attribute or the graph element id.
	KeepName string
}

func (o GraphMLOptions) withDefaults() GraphMLOptions {
	if o.DefaultCapacity <= 0 {
		o.DefaultCapacity = 10e9
	}
	if o.DefaultDelay <= 0 {
		o.DefaultDelay = 0.001
	}
	return o
}

// Raw XML shapes. GraphML is attribute-soup: typed values live in <data>
// children keyed by <key> declarations, so decoding happens in two passes.

type xmlGraphML struct {
	XMLName xml.Name    `xml:"graphml"`
	Keys    []xmlKey    `xml:"key"`
	Graphs  []xmlGraphG `xml:"graph"`
}

type xmlKey struct {
	ID       string `xml:"id,attr"`
	For      string `xml:"for,attr"`
	AttrName string `xml:"attr.name,attr"`
	AttrType string `xml:"attr.type,attr"`
}

type xmlGraphG struct {
	ID          string    `xml:"id,attr"`
	EdgeDefault string    `xml:"edgedefault,attr"`
	Data        []xmlData `xml:"data"`
	Nodes       []xmlNode `xml:"node"`
	Edges       []xmlEdge `xml:"edge"`
}

type xmlNode struct {
	ID   string    `xml:"id,attr"`
	Data []xmlData `xml:"data"`
}

type xmlEdge struct {
	Source string    `xml:"source,attr"`
	Target string    `xml:"target,attr"`
	Data   []xmlData `xml:"data"`
}

type xmlData struct {
	Key   string `xml:"key,attr"`
	Value string `xml:",chardata"`
}

// attrs resolves <data> entries against <key> declarations into a
// name -> value map.
type keyTable map[string]string // key id -> attr.name (lower-cased)

func (kt keyTable) resolve(data []xmlData) map[string]string {
	m := make(map[string]string, len(data))
	for _, d := range data {
		name, ok := kt[d.Key]
		if !ok {
			name = strings.ToLower(d.Key)
		}
		m[name] = strings.TrimSpace(d.Value)
	}
	return m
}

// ReadGraphML parses Internet Topology Zoo GraphML. Node coordinates come
// from the zoo's Latitude/Longitude attributes; link capacities from
// LinkSpeedRaw (bits/sec) when present; link delays are derived from
// great-circle distance, as the paper does via [16].
func ReadGraphML(r io.Reader, opts GraphMLOptions) (*graph.Graph, error) {
	opts = opts.withDefaults()

	var doc xmlGraphML
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, errf(FormatGraphML, "decode", "%v", err)
	}
	if len(doc.Graphs) == 0 {
		return nil, errf(FormatGraphML, "structure", "no <graph> element")
	}
	gx := doc.Graphs[0]

	kt := make(keyTable, len(doc.Keys))
	for _, k := range doc.Keys {
		kt[k.ID] = strings.ToLower(k.AttrName)
	}

	name := opts.KeepName
	if name == "" {
		gattrs := kt.resolve(gx.Data)
		name = gattrs["network"]
	}
	if name == "" {
		name = gx.ID
	}
	if name == "" {
		name = "graphml"
	}

	b := graph.NewBuilder(name)
	type nodeInfo struct {
		id     graph.NodeID
		loc    geo.Point
		hasLoc bool
	}
	nodes := make(map[string]nodeInfo, len(gx.Nodes))
	usedNames := make(map[string]int, len(gx.Nodes))
	for _, n := range gx.Nodes {
		attrs := kt.resolve(n.Data)
		label := attrs["label"]
		if label == "" {
			label = "node-" + n.ID
		}
		// The zoo reuses city labels within one map; disambiguate.
		if c := usedNames[label]; c > 0 {
			label = fmt.Sprintf("%s#%d", label, c)
		}
		usedNames[attrs["label"]]++

		var loc geo.Point
		hasLoc := false
		if lat, ok := parseFloat(attrs["latitude"]); ok {
			if lon, ok2 := parseFloat(attrs["longitude"]); ok2 {
				loc = geo.Point{Lat: lat, Lon: lon}
				hasLoc = true
			}
		}
		if _, dup := nodes[n.ID]; dup {
			return nil, errf(FormatGraphML, "node", "duplicate node id %q", n.ID)
		}
		id := b.AddNode(label, loc)
		nodes[n.ID] = nodeInfo{id: id, loc: loc, hasLoc: hasLoc}
	}

	directed := gx.EdgeDefault == "directed"
	for i, e := range gx.Edges {
		src, ok := nodes[e.Source]
		if !ok {
			return nil, errf(FormatGraphML, "edge", "edge %d references unknown node %q", i, e.Source)
		}
		dst, ok := nodes[e.Target]
		if !ok {
			return nil, errf(FormatGraphML, "edge", "edge %d references unknown node %q", i, e.Target)
		}
		if src.id == dst.id {
			continue // self-loops carry no routing meaning
		}
		attrs := kt.resolve(e.Data)
		capacity := edgeCapacity(attrs, opts.DefaultCapacity)

		delay := opts.DefaultDelay
		if d, ok := parseFloat(attrs["delay"]); ok && d > 0 {
			delay = d
		} else if src.hasLoc && dst.hasLoc {
			if d := geo.PropagationDelay(src.loc, dst.loc, geo.DefaultSlack); d > 0 {
				delay = d
			}
		}

		if b.HasLink(src.id, dst.id) {
			continue // parallel edges: keep the first
		}
		b.AddLink(src.id, dst.id, capacity, delay)
		if !directed && !b.HasLink(dst.id, src.id) {
			b.AddLink(dst.id, src.id, capacity, delay)
		}
	}

	return b.Build()
}

// edgeCapacity extracts a link speed in bits/sec from zoo attributes:
// LinkSpeedRaw is already bits/sec; otherwise LinkSpeed + LinkSpeedUnits.
func edgeCapacity(attrs map[string]string, def float64) float64 {
	if v, ok := parseFloat(attrs["linkspeedraw"]); ok && v > 0 {
		return v
	}
	v, ok := parseFloat(attrs["linkspeed"])
	if !ok || v <= 0 {
		return def
	}
	switch strings.ToUpper(attrs["linkspeedunits"]) {
	case "K":
		return v * 1e3
	case "M":
		return v * 1e6
	case "G", "":
		return v * 1e9
	case "T":
		return v * 1e12
	default:
		return def
	}
}

func parseFloat(s string) (float64, bool) {
	if s == "" {
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// WriteGraphML renders g as Topology Zoo-compatible GraphML: undirected
// edges (the library's bidirectional link pairs collapse back to one
// edge), Latitude/Longitude node attributes, and LinkSpeedRaw plus an
// explicit delay attribute per edge so a round trip is lossless even
// without coordinates.
func WriteGraphML(w io.Writer, g *graph.Graph) error {
	type edgeOut struct {
		from, to graph.NodeID
		cap      float64
		delay    float64
	}
	seen := make(map[[2]graph.NodeID]bool, g.NumLinks())
	var edges []edgeOut
	asymmetric := false
	for _, l := range g.Links() {
		if seen[[2]graph.NodeID{l.To, l.From}] {
			// Reverse already emitted; verify symmetry.
			if rev, ok := g.FindLink(l.To, l.From); ok &&
				(rev.Capacity != l.Capacity || rev.Delay != l.Delay) {
				asymmetric = true
			}
			continue
		}
		if _, ok := g.FindLink(l.To, l.From); !ok {
			asymmetric = true
		}
		seen[[2]graph.NodeID{l.From, l.To}] = true
		edges = append(edges, edgeOut{from: l.From, to: l.To, cap: l.Capacity, delay: l.Delay})
	}
	if asymmetric {
		return errf(FormatGraphML, "write",
			"graph %q has asymmetric links; GraphML export assumes undirected edges", g.Name())
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})

	var sb strings.Builder
	sb.WriteString(xml.Header)
	sb.WriteString(`<graphml xmlns="http://graphml.graphdrawing.org/xmlns">` + "\n")
	sb.WriteString(`  <key id="d0" for="graph" attr.name="Network" attr.type="string"/>` + "\n")
	sb.WriteString(`  <key id="d1" for="node" attr.name="label" attr.type="string"/>` + "\n")
	sb.WriteString(`  <key id="d2" for="node" attr.name="Latitude" attr.type="double"/>` + "\n")
	sb.WriteString(`  <key id="d3" for="node" attr.name="Longitude" attr.type="double"/>` + "\n")
	sb.WriteString(`  <key id="d4" for="edge" attr.name="LinkSpeedRaw" attr.type="double"/>` + "\n")
	sb.WriteString(`  <key id="d5" for="edge" attr.name="delay" attr.type="double"/>` + "\n")
	sb.WriteString(`  <graph edgedefault="undirected">` + "\n")
	fmt.Fprintf(&sb, "    <data key=\"d0\">%s</data>\n", xmlEscape(g.Name()))
	for i, n := range g.Nodes() {
		fmt.Fprintf(&sb, "    <node id=\"%d\">\n", i)
		fmt.Fprintf(&sb, "      <data key=\"d1\">%s</data>\n", xmlEscape(n.Name))
		fmt.Fprintf(&sb, "      <data key=\"d2\">%.6f</data>\n", n.Loc.Lat)
		fmt.Fprintf(&sb, "      <data key=\"d3\">%.6f</data>\n", n.Loc.Lon)
		sb.WriteString("    </node>\n")
	}
	for _, e := range edges {
		fmt.Fprintf(&sb, "    <edge source=\"%d\" target=\"%d\">\n", e.from, e.to)
		fmt.Fprintf(&sb, "      <data key=\"d4\">%g</data>\n", e.cap)
		fmt.Fprintf(&sb, "      <data key=\"d5\">%.9g</data>\n", e.delay)
		sb.WriteString("    </edge>\n")
	}
	sb.WriteString("  </graph>\n</graphml>\n")

	_, err := io.WriteString(w, sb.String())
	return err
}

func xmlEscape(s string) string {
	var sb strings.Builder
	if err := xml.EscapeText(&sb, []byte(s)); err != nil {
		return s
	}
	return sb.String()
}
