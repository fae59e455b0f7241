package lowlat

import (
	"lowlat/internal/routing"
)

// This file is the routing half of the public facade: the Scheme interface
// and constructors for the schemes the paper evaluates (§3).

// Scheme places a traffic matrix onto a topology. All of the paper's
// routing systems satisfy it.
type Scheme = routing.Scheme

// LatencyOpt is the latency-optimal placement: the Figure 12 LP over
// iteratively grown path sets (Figure 13) with the §4 headroom dial.
type LatencyOpt = routing.LatencyOpt

// NewShortestPath returns the shortest-path scheme.
func NewShortestPath() Scheme { return routing.SP{} }

// NewB4 returns the B4 scheme with the given reserved headroom fraction
// (0 for the paper's §3 configuration).
func NewB4(headroom float64) Scheme { return routing.B4{Headroom: headroom} }

// NewMinMax returns unrestricted MinMax with latency tie-break.
func NewMinMax() Scheme { return routing.MinMax{} }

// NewMinMaxK returns MinMax restricted to each aggregate's k shortest
// paths (the paper evaluates k = 10).
func NewMinMaxK(k int) Scheme { return routing.MinMax{K: k} }

// NewMPLSTE returns the MPLS-TE auto-bandwidth scheme.
func NewMPLSTE() Scheme { return routing.MPLSTE{} }

// NewLatencyOptimal returns the latency-optimal scheme with the given
// headroom fraction (0 reproduces Figure 4(a)).
func NewLatencyOptimal(headroom float64) Scheme {
	return routing.LatencyOpt{Headroom: headroom}
}

// Schemes returns the paper's four §3 routing systems plus the
// latency-optimal placement, in the order of Figure 4.
func Schemes() []Scheme {
	return []Scheme{
		routing.LatencyOpt{},
		routing.B4{},
		routing.MinMax{},
		routing.MinMax{K: 10},
		routing.SP{},
	}
}
