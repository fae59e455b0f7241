package tm

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"lowlat/internal/graph"
)

// Marshal renders a matrix in the library's plain-text format:
//
//	tm <topology-name>
//	agg <src> <dst> <volume-bps> <flows> [weight]
//
// Node names come from the graph the matrix was generated for. Floats are
// written in strconv's shortest 'g' form, the bytes fmt's %g gives, which
// the store's matrix digests hash.
func Marshal(g *graph.Graph, m *Matrix) []byte {
	buf := make([]byte, 0, 8+len(g.Name())+40*len(m.Aggregates))
	buf = append(append(append(buf, "tm "...), g.Name()...), '\n')
	for _, a := range m.Aggregates {
		buf = append(append(buf, "agg "...), g.Node(a.Src).Name...)
		buf = append(append(buf, ' '), g.Node(a.Dst).Name...)
		buf = strconv.AppendFloat(append(buf, ' '), a.Volume, 'g', -1, 64)
		buf = strconv.AppendInt(append(buf, ' '), int64(a.Flows), 10)
		if a.Weight != 0 && a.Weight != 1 {
			buf = strconv.AppendFloat(append(buf, ' '), a.Weight, 'g', -1, 64)
		}
		buf = append(buf, '\n')
	}
	return buf
}

// Unmarshal parses the text format produced by Marshal, resolving node
// names against g.
func Unmarshal(g *graph.Graph, data []byte) (*Matrix, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var aggs []Aggregate
	lineNo := 0
	sawHeader := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "tm":
			if sawHeader {
				return nil, fmt.Errorf("tm: line %d: duplicate header", lineNo)
			}
			sawHeader = true
		case "agg":
			if !sawHeader {
				return nil, fmt.Errorf("tm: line %d: agg before header", lineNo)
			}
			if len(f) != 5 && len(f) != 6 {
				return nil, fmt.Errorf("tm: line %d: want 5 or 6 fields, got %d", lineNo, len(f))
			}
			src, ok := g.NodeByName(f[1])
			if !ok {
				return nil, fmt.Errorf("tm: line %d: unknown node %q", lineNo, f[1])
			}
			dst, ok := g.NodeByName(f[2])
			if !ok {
				return nil, fmt.Errorf("tm: line %d: unknown node %q", lineNo, f[2])
			}
			vol, err := strconv.ParseFloat(f[3], 64)
			if err != nil || vol < 0 {
				return nil, fmt.Errorf("tm: line %d: bad volume %q", lineNo, f[3])
			}
			flows, err := strconv.Atoi(f[4])
			if err != nil || flows < 0 {
				return nil, fmt.Errorf("tm: line %d: bad flow count %q", lineNo, f[4])
			}
			a := Aggregate{Src: src.ID, Dst: dst.ID, Volume: vol, Flows: flows}
			if len(f) == 6 {
				w, err := strconv.ParseFloat(f[5], 64)
				if err != nil || w <= 0 {
					return nil, fmt.Errorf("tm: line %d: bad weight %q", lineNo, f[5])
				}
				a.Weight = w
			}
			aggs = append(aggs, a)
		default:
			return nil, fmt.Errorf("tm: line %d: unknown directive %q", lineNo, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, fmt.Errorf("tm: missing header")
	}
	return New(aggs), nil
}
