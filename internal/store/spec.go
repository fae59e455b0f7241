package store

import (
	"strconv"
)

// CellSpec is the request-side address of one scenario cell: the
// coordinates a caller knows *before* any graph is built or matrix
// generated — a resolvable net term, a matrix seed, a scheme name and its
// knobs, and the (load, locality) operating point. It is the complement
// of CellKey, the content-side address: deterministic generation maps one
// normalized spec to exactly one key, which is what lets every placement
// backend (local engine, remote daemon, hash-sharded cluster) agree on
// where a cell lives without talking to each other.
type CellSpec struct {
	// Net is a single-network sweep grid term: a zoo or named network
	// ("gts-like", "ring-12"), "randomgeo:<n>:<seed>", or
	// "multiregion:<RxP>:<seed>".
	Net string `json:"net"`
	// Seed is the traffic-matrix seed.
	Seed int64 `json:"seed"`
	// Scheme is a routing.ByName scheme name.
	Scheme string `json:"scheme"`
	// Headroom is the reserved-capacity fraction for schemes with a dial.
	Headroom float64 `json:"headroom,omitempty"`
	// Load is the target min-cut utilization (0 = the paper's 1/1.3).
	Load float64 `json:"load,omitempty"`
	// Locality is the traffic locality parameter ℓ. Unlike the HTTP wire
	// type, a CellSpec is always fully resolved: 0 means pure gravity, and
	// callers that want the default write 1 explicitly (Normalized does).
	Locality float64 `json:"locality"`
}

// DefaultLoad is the operating point a zero Load normalizes to — the
// paper's "traffic can grow by 30%" calibration.
const DefaultLoad = 1 / 1.3

// Normalized returns the spec with defaults applied: a zero Load becomes
// DefaultLoad. Identity-sensitive callers (ring placement, request
// coalescing) must normalize first so "load 0" and "load 1/1.3" collide.
func (s CellSpec) Normalized() CellSpec {
	if s.Load == 0 {
		s.Load = DefaultLoad
	}
	return s
}

// String renders the spec in its canonical form, one field per "|"-
// separated term. Two specs that would generate the same cell render
// identically (after Normalized), so the string doubles as a coalescing
// key and as the consistent-hash ring key for Place routing.
//
// The form is fmt's "%s|%d|%s|%g|%g|%g", built with strconv: %g is
// strconv's shortest 'g' formatting, signs and NaN included.
func (s CellSpec) String() string {
	var buf [96]byte
	b := append(append(buf[:0], s.Net...), '|')
	b = append(strconv.AppendInt(b, s.Seed, 10), '|')
	b = append(b, s.Scheme...)
	for _, f := range [...]float64{s.Headroom, s.Load, s.Locality} {
		b = strconv.AppendFloat(append(b, '|'), f, 'g', -1, 64)
	}
	return string(b)
}
