package serve

import (
	"sort"

	"lowlat/internal/store"
)

// CDFPoint is one point of an empirical CDF: the metric value v at
// cumulative fraction q.
type CDFPoint struct {
	Q float64 `json:"q"`
	V float64 `json:"v"`
}

// ClassSummary aggregates every stored cell of one topology class: the
// landscape answer to "how does this class of networks behave under the
// stored schemes", in the CDF-over-networks form the paper's Figures 3/4
// plot.
type ClassSummary struct {
	// Cells is how many stored results the class aggregates.
	Cells int `json:"cells"`
	// Nets is how many distinct networks contributed.
	Nets int `json:"nets"`
	// FitFraction is the share of cells whose placement fit (no
	// congested link).
	FitFraction float64 `json:"fit_fraction"`
	// Metrics holds one CDF per stored metric, keyed congested / stretch
	// / max_stretch / max_util.
	Metrics map[string][]CDFPoint `json:"metrics"`
}

// Summary is the aggregate landscape over a (possibly filtered) result
// slice, grouped by topology class.
type Summary struct {
	// Cells is the total cell count summarized.
	Cells int `json:"cells"`
	// Points is how many CDF points each metric carries.
	Points int `json:"points"`
	// Classes maps class name to its aggregate; cells with no class
	// label group under "unclassified".
	Classes map[string]*ClassSummary `json:"classes"`
}

// Summarize aggregates results into per-class metric CDFs with the given
// number of evenly spaced quantile points (minimum 2: min and max). The
// input order does not matter; equal stores summarize identically.
func Summarize(results []store.Result, points int) *Summary {
	if points < 2 {
		points = 2
	}
	sum := &Summary{Cells: len(results), Points: points, Classes: make(map[string]*ClassSummary)}
	type group struct {
		vals map[string][]float64
		nets map[string]bool
		fit  int
	}
	groups := make(map[string]*group)
	for _, r := range results {
		class := r.Meta.Class
		if class == "" {
			class = "unclassified"
		}
		g, ok := groups[class]
		if !ok {
			g = &group{vals: make(map[string][]float64), nets: make(map[string]bool)}
			groups[class] = g
		}
		g.vals["congested"] = append(g.vals["congested"], r.Metrics.Congested)
		g.vals["stretch"] = append(g.vals["stretch"], r.Metrics.Stretch)
		g.vals["max_stretch"] = append(g.vals["max_stretch"], r.Metrics.MaxStretch)
		g.vals["max_util"] = append(g.vals["max_util"], r.Metrics.MaxUtil)
		g.nets[r.Meta.Net] = true
		if r.Metrics.Fits {
			g.fit++
		}
	}
	for class, g := range groups {
		n := len(g.vals["congested"])
		cs := &ClassSummary{
			Cells:   n,
			Nets:    len(g.nets),
			Metrics: make(map[string][]CDFPoint),
		}
		if n > 0 {
			cs.FitFraction = float64(g.fit) / float64(n)
		}
		for metric, vals := range g.vals {
			sort.Float64s(vals)
			cs.Metrics[metric] = cdfPoints(vals, points)
		}
		sum.Classes[class] = cs
	}
	return sum
}

// cdfPoints samples the empirical CDF of sorted vals at `points` evenly
// spaced cumulative fractions from 0 to 1 (nearest-rank quantiles).
func cdfPoints(vals []float64, points int) []CDFPoint {
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		q := float64(i) / float64(points-1)
		idx := int(float64(q*float64(len(vals)-1)) + 0.5)
		out = append(out, CDFPoint{Q: q, V: vals[idx]})
	}
	return out
}
