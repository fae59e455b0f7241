// Package metrics implements the paper's topology metrics: alternate path
// availability (APA) and low-latency path diversity (LLPD), §2.
//
// For a PoP pair, APA is the fraction of links on the pair's shortest path
// that can be routed around without exceeding a delay-stretch limit, where
// the route-around must be capacity-viable: the lowest-latency alternate
// paths avoiding the link are accumulated until their min-cut matches the
// shortest path's bottleneck, and the alternate's delay is that of the
// last (n-th) path added. LLPD is the fraction of pairs with APA >= 0.7.
package metrics

import (
	"math"

	"lowlat/internal/graph"
)

// maxAlternates caps how many alternate paths are accumulated while
// seeking a capacity-viable route-around.
const maxAlternates = 8

// APAConfig parameterizes the APA/LLPD computation. The zero value is
// replaced by the paper's defaults.
type APAConfig struct {
	// StretchLimit is the maximum tolerable ratio of alternate delay to
	// shortest-path delay. Paper default: 1.4 ("a path stretch of 40%").
	StretchLimit float64
	// APAThreshold is the per-pair APA above which a pair counts toward
	// LLPD. Paper default: 0.7.
	APAThreshold float64
}

func (c APAConfig) withDefaults() APAConfig {
	if c.StretchLimit <= 0 {
		c.StretchLimit = 1.4
	}
	if c.APAThreshold <= 0 {
		c.APAThreshold = 0.7
	}
	return c
}

// PairAPA returns the APA of the src-dst pair and whether the pair is
// connected at all.
func PairAPA(g *graph.Graph, src, dst graph.NodeID, cfg APAConfig) (float64, bool) {
	cfg = cfg.withDefaults()
	sp, ok := g.ShortestPath(src, dst, nil, nil)
	if !ok || sp.Empty() || sp.Delay <= 0 {
		return 0, false
	}
	bottleneck := sp.Bottleneck(g)
	routable := 0
	for _, lid := range sp.Links {
		if canRouteAround(g, src, dst, lid, sp.Delay, bottleneck, cfg) {
			routable++
		}
	}
	return float64(routable) / float64(len(sp.Links)), true
}

// canRouteAround reports whether link lid of the pair's shortest path can
// be avoided within the stretch limit by a capacity-viable alternate.
func canRouteAround(g *graph.Graph, src, dst graph.NodeID, lid graph.LinkID,
	spDelay, spBottleneck float64, cfg APAConfig) bool {
	mask := graph.NewMask(g.NumLinks())
	mask.Set(int32(lid))
	ksp := graph.NewKSP(g, src, dst, mask)

	maxDelay := cfg.StretchLimit * spDelay
	inUnion := make(map[graph.LinkID]bool)
	for n := 0; n < maxAlternates; n++ {
		p, ok := ksp.At(n)
		if !ok {
			return false // alternates exhausted
		}
		if p.Delay > float64(maxDelay)+1e-12 {
			return false // every further alternate is even longer
		}
		for _, l := range p.Links {
			inUnion[l] = true
		}
		// Min-cut over the union of the accumulated alternates: is the
		// combined capacity enough to stand in for the shortest path?
		cut := graph.MinCut(g, src, dst, func(l graph.Link) bool {
			return inUnion[l.ID]
		})
		if cut >= spBottleneck-1e-6 {
			return true
		}
	}
	return false
}

// APADistribution returns one APA sample per connected unordered PoP pair.
// A CDF of these samples is one curve of the paper's Figure 1.
func APADistribution(g *graph.Graph, cfg APAConfig) []float64 {
	var out []float64
	for s := 0; s < g.NumNodes(); s++ {
		for d := s + 1; d < g.NumNodes(); d++ {
			if apa, ok := PairAPA(g, graph.NodeID(s), graph.NodeID(d), cfg); ok {
				out = append(out, apa)
			}
		}
	}
	return out
}

// LLPD returns the low-latency path diversity of g: the fraction of
// connected PoP pairs whose APA meets the threshold.
func LLPD(g *graph.Graph, cfg APAConfig) float64 {
	cfg = cfg.withDefaults()
	dist := APADistribution(g, cfg)
	if len(dist) == 0 {
		return 0
	}
	count := 0
	for _, apa := range dist {
		if apa >= cfg.APAThreshold-1e-12 {
			count++
		}
	}
	return float64(count) / float64(len(dist))
}

// Stretch returns delay/shortest for a single pair, used by tests and the
// growth experiment; returns +Inf when the pair is disconnected.
func Stretch(g *graph.Graph, src, dst graph.NodeID, delay float64) float64 {
	sp, ok := g.ShortestPath(src, dst, nil, nil)
	if !ok || sp.Delay <= 0 {
		return math.Inf(1)
	}
	return delay / sp.Delay
}
