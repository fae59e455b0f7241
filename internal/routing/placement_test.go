package routing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lowlat/internal/tm"
)

// TestQuickLinkLoadConservation: total volume-hops equals the sum of link
// loads for any scheme's placement.
func TestQuickLinkLoadConservation(t *testing.T) {
	f := func(seed int64, schemePick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng, 6+rng.Intn(4), 0.3)
		m := randomMatrix(rng, g, 5+rng.Intn(6), 3)
		schemes := []Scheme{SP{}, B4{}, LatencyOpt{}, MinMax{K: 3}}
		s := schemes[int(schemePick)%len(schemes)]
		p, err := s.Place(g, m)
		if err != nil {
			return false
		}
		want := 0.0
		for i, allocs := range p.Allocs {
			vol := m.Aggregates[i].Volume
			for _, a := range allocs {
				want += vol * a.Fraction * float64(len(a.Path.Links))
			}
		}
		got := 0.0
		for _, l := range p.LinkLoads() {
			got += l
		}
		return math.Abs(got-want) < 1e-3*(want+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStretchAtLeastOne: volume-weighted stretch and max stretch are
// never below 1 for any placement that routes everything.
func TestQuickStretchAtLeastOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng, 6+rng.Intn(4), 0.35)
		m := randomMatrix(rng, g, 6, 2)
		p, err := (LatencyOpt{}).Place(g, m)
		if err != nil {
			return false
		}
		ms := p.MaxStretch()
		return p.LatencyStretch() >= 1-1e-9 && (math.IsInf(ms, 1) || ms >= 1-1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPlacementValidateCatchesCorruption: hand-corrupted placements fail
// validation for the right reasons.
func TestPlacementValidateCatchesCorruption(t *testing.T) {
	g := twoPath(t, 10e9, 10e9)
	m := tm.New([]tm.Aggregate{agg(0, 2, 5)})
	p, err := (LatencyOpt{}).Place(g, m)
	if err != nil {
		t.Fatal(err)
	}

	bad := *p
	bad.Allocs = [][]PathAlloc{{{Path: p.Allocs[0][0].Path, Fraction: 0.5}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("fractions summing to 0.5 must fail")
	}

	bad2 := *p
	wrong, _ := g.ShortestPath(1, 2, nil, nil)
	bad2.Allocs = [][]PathAlloc{{{Path: wrong, Fraction: 1}}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("path with wrong endpoints must fail")
	}

	bad3 := *p
	bad3.Allocs = [][]PathAlloc{}
	if err := bad3.Validate(); err == nil {
		t.Fatal("size mismatch must fail")
	}
}

// TestEmptyMatrixPlacement: schemes handle empty traffic gracefully.
func TestEmptyMatrixPlacement(t *testing.T) {
	g := twoPath(t, 10e9, 10e9)
	empty := tm.New(nil)
	for _, s := range []Scheme{SP{}, B4{}, LatencyOpt{}, MinMax{}} {
		p, err := s.Place(g, empty)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if p.CongestedPairFraction() != 0 || p.MaxUtilization() != 0 {
			t.Fatalf("%s: empty matrix should produce an idle network", s.Name())
		}
		if s := p.LatencyStretch(); s != 1 {
			t.Fatalf("empty stretch = %v, want 1 by convention", s)
		}
	}
}
