package lowlat

import (
	"lowlat/internal/graph"
	"lowlat/internal/metrics"
)

// This file exposes the §2 topology metrics.

// APAConfig parameterizes alternate-path availability: the path-stretch
// limit (default 1.4) and capacity-viability rules.
type APAConfig = metrics.APAConfig

// APADistribution returns APA for every ordered PoP pair; its CDF is one
// curve of Figure 1.
func APADistribution(g *graph.Graph, cfg APAConfig) []float64 {
	return metrics.APADistribution(g, cfg)
}

// LLPD returns the topology's low-latency path diversity: the fraction of
// PoP pairs with APA >= 0.7 (§2).
func LLPD(g *graph.Graph, cfg APAConfig) float64 {
	return metrics.LLPD(g, cfg)
}
