package topo

import (
	"math"
	"sort"

	"lowlat/internal/geo"
	"lowlat/internal/graph"
	"lowlat/internal/metrics"
	"lowlat/internal/stats"
)

// GrowConfig parameterizes LLPD-guided topology growth (§8, Figure 20).
// Candidates are scored by LLPD at the paper's APA settings.
type GrowConfig struct {
	// Fraction of additional (bidirectional) links to add relative to the
	// current link count. Paper default: 0.05.
	Fraction float64
	// CandidateSample bounds how many absent node pairs are scored per
	// added link (0 = all). Scoring a candidate requires a full LLPD
	// computation, so sampling keeps growth tractable on larger networks.
	CandidateSample int
	// Seed drives candidate sampling.
	Seed int64
}

func (c GrowConfig) withDefaults() GrowConfig {
	if c.Fraction <= 0 {
		c.Fraction = 0.05
	}
	if c.CandidateSample == 0 {
		c.CandidateSample = 24
	}
	return c
}

// AddedLink records one link added by Grow.
type AddedLink struct {
	From, To graph.NodeID
	LLPD     float64 // LLPD after adding this link
}

// Grow evolves a topology the way the paper does for Figure 20: among
// candidate absent links, repeatedly add the one yielding the greatest
// LLPD increase, until the number of bidirectional links has grown by
// cfg.Fraction. New links get great-circle delays and the network's median
// link capacity. Returns the grown graph and the additions in order.
func Grow(g *graph.Graph, cfg GrowConfig) (*graph.Graph, []AddedLink) {
	cfg = cfg.withDefaults()
	toAdd := int(math.Ceil(cfg.Fraction * float64(g.NumLinks()) / 2))
	if toAdd < 1 {
		toAdd = 1
	}
	capacity := MedianLinkCapacity(g)
	rng := stats.Rng(cfg.Seed)

	cur := g
	var added []AddedLink
	for round := 0; round < toAdd; round++ {
		type cand struct{ a, b graph.NodeID }
		var candidates []cand
		for a := 0; a < cur.NumNodes(); a++ {
			for b := a + 1; b < cur.NumNodes(); b++ {
				if _, exists := cur.FindLink(graph.NodeID(a), graph.NodeID(b)); !exists {
					candidates = append(candidates, cand{graph.NodeID(a), graph.NodeID(b)})
				}
			}
		}
		if len(candidates) == 0 {
			break
		}
		// Prefer geographically short candidates: they are the plausible
		// low-latency additions, and bias the sample toward them before
		// scoring. Sort by distance, keep a window, then sample.
		sort.Slice(candidates, func(i, j int) bool {
			di := geo.DistanceKm(cur.Node(candidates[i].a).Loc, cur.Node(candidates[i].b).Loc)
			dj := geo.DistanceKm(cur.Node(candidates[j].a).Loc, cur.Node(candidates[j].b).Loc)
			return di < dj
		})
		if cfg.CandidateSample > 0 && len(candidates) > cfg.CandidateSample {
			window := cfg.CandidateSample * 3
			if window > len(candidates) {
				window = len(candidates)
			}
			candidates = candidates[:window]
			rng.Shuffle(len(candidates), func(i, j int) {
				candidates[i], candidates[j] = candidates[j], candidates[i]
			})
			candidates = candidates[:cfg.CandidateSample]
		}

		bestLLPD := -1.0
		var bestGraph *graph.Graph
		var bestAdd AddedLink
		for _, c := range candidates {
			b := graph.Clone(cur)
			b.AddGeoBiLink(c.a, c.b, capacity)
			trial := b.MustBuild()
			llpd := metrics.LLPD(trial, metrics.APAConfig{})
			if llpd > bestLLPD {
				bestLLPD = llpd
				bestGraph = trial
				bestAdd = AddedLink{From: c.a, To: c.b, LLPD: llpd}
			}
		}
		cur = bestGraph
		added = append(added, bestAdd)
	}
	return cur, added
}

// MedianLinkCapacity returns the median capacity across g's links.
func MedianLinkCapacity(g *graph.Graph) float64 {
	caps := make([]float64, 0, g.NumLinks())
	for _, l := range g.Links() {
		caps = append(caps, l.Capacity)
	}
	return stats.Median(caps)
}
