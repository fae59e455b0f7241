package routing

import (
	"math"
	"testing"

	"lowlat/internal/geo"
	"lowlat/internal/graph"
	"lowlat/internal/tm"
)

// twoPath builds a topology with two parallel routes between a and z:
// direct (delay 10ms, capFast) and via m (delay 14ms, capSlow).
func twoPath(t testing.TB, capFast, capSlow float64) *graph.Graph {
	b := graph.NewBuilder("twopath")
	a := b.AddNode("a", geo.Point{})
	mid := b.AddNode("m", geo.Point{})
	z := b.AddNode("z", geo.Point{})
	b.AddBiLink(a, z, capFast, 0.010)
	b.AddBiLink(a, mid, capSlow, 0.007)
	b.AddBiLink(mid, z, capSlow, 0.007)
	return b.MustBuild()
}

func agg(src, dst graph.NodeID, gbps float64) tm.Aggregate {
	return tm.Aggregate{Src: src, Dst: dst, Volume: gbps * 1e9, Flows: int(gbps * 1000)}
}

func TestSPPlacesEverythingOnShortest(t *testing.T) {
	g := twoPath(t, 10e9, 10e9)
	m := tm.New([]tm.Aggregate{agg(0, 2, 15)}) // exceeds the 10G direct link
	p, err := SP{}.Place(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Allocs[0]) != 1 || len(p.Allocs[0][0].Path.Links) != 1 {
		t.Fatalf("SP must use the single-link direct path: %+v", p.Allocs[0])
	}
	// SP congests the direct link and reports the pair congested.
	if got := p.CongestedPairFraction(); got != 1 {
		t.Fatalf("congested fraction = %v, want 1", got)
	}
	if mu := p.MaxUtilization(); math.Abs(mu-1.5) > 1e-9 {
		t.Fatalf("max utilization = %v, want 1.5", mu)
	}
	if s := p.LatencyStretch(); math.Abs(s-1) > 1e-9 {
		t.Fatalf("SP stretch = %v, want 1", s)
	}
}

func TestLatencyOptSplitsToAvoidCongestion(t *testing.T) {
	g := twoPath(t, 10e9, 10e9)
	m := tm.New([]tm.Aggregate{agg(0, 2, 15)})
	p, stats, err := LatencyOpt{}.PlaceWithStats(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats.MaxOverload > 1+1e-6 {
		t.Fatalf("latency-opt left overload %v", stats.MaxOverload)
	}
	if p.CongestedPairFraction() != 0 {
		t.Fatal("latency-opt must avoid congestion when possible")
	}
	// Optimal: fill the 10ms direct path (10G), spill 5G onto the 14ms
	// detour. Volume-weighted delay = (10*10 + 5*14)/ (15*10).
	wantStretch := (10*0.010 + 5*0.014) / (15 * 0.010)
	if s := p.LatencyStretch(); math.Abs(s-wantStretch) > 1e-3 {
		t.Fatalf("stretch = %v, want %v", s, wantStretch)
	}
	if len(p.Allocs[0]) != 2 {
		t.Fatalf("expected a split across 2 paths, got %d", len(p.Allocs[0]))
	}
}

func TestLatencyOptStaysOnShortestWhenItFits(t *testing.T) {
	g := twoPath(t, 10e9, 10e9)
	m := tm.New([]tm.Aggregate{agg(0, 2, 8)})
	p, err := LatencyOpt{}.Place(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if s := p.LatencyStretch(); math.Abs(s-1) > 1e-9 {
		t.Fatalf("stretch = %v, want exactly 1 (no reason to detour)", s)
	}
}

func TestLatencyOptHeadroomDial(t *testing.T) {
	g := twoPath(t, 10e9, 10e9)
	m := tm.New([]tm.Aggregate{agg(0, 2, 8)})

	// 8G fits the direct link at 0% headroom, but with 30% headroom the
	// scaled direct capacity is 7G: 1G must detour, increasing stretch.
	p0, err := LatencyOpt{Headroom: 0}.Place(g, m)
	if err != nil {
		t.Fatal(err)
	}
	p30, err := LatencyOpt{Headroom: 0.3}.Place(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if s0 := p0.LatencyStretch(); math.Abs(s0-1) > 1e-9 {
		t.Fatalf("0%% headroom stretch = %v", s0)
	}
	s30 := p30.LatencyStretch()
	want := (7*0.010 + 1*0.014) / (8 * 0.010)
	if math.Abs(s30-want) > 1e-3 {
		t.Fatalf("30%% headroom stretch = %v, want %v", s30, want)
	}
	// Real utilization stays below 1-headroom on every link.
	for _, u := range p30.Utilizations() {
		if u > 0.7+1e-6 {
			t.Fatalf("utilization %v exceeds 1-headroom", u)
		}
	}
}

func TestMinMaxSpreadsLoad(t *testing.T) {
	g := twoPath(t, 10e9, 10e9)
	m := tm.New([]tm.Aggregate{agg(0, 2, 8)})
	p, stats, err := MinMax{}.PlaceWithStats(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// MinMax pushes utilization down: 8G over two routes whose bottleneck
	// is 10G each -> peak utilization 0.4 by splitting evenly.
	if stats.MaxOverload > 0.4+1e-3 {
		t.Fatalf("minmax peak utilization = %v, want ~0.4", stats.MaxOverload)
	}
	// And pays latency for it, unlike latency-opt.
	if s := p.LatencyStretch(); s <= 1 {
		t.Fatalf("minmax stretch = %v, should exceed 1", s)
	}
}

func TestMinMaxUsesCircuitousPaths(t *testing.T) {
	// The paper's §3 criticism: pure MinMax forces traffic over
	// circuitous paths purely to shave peak utilization. With a direct
	// 20ms route and detours of 28ms and 100ms, MinMax splits across all
	// three (peak 0.2) while latency-opt leaves the 100ms detour unused.
	b := graph.NewBuilder("three")
	a := b.AddNode("a", geo.Point{})
	m1 := b.AddNode("m1", geo.Point{})
	m2 := b.AddNode("m2", geo.Point{})
	z := b.AddNode("z", geo.Point{})
	b.AddBiLink(a, z, 10e9, 0.010)
	b.AddBiLink(a, m1, 10e9, 0.007)
	b.AddBiLink(m1, z, 10e9, 0.007)
	b.AddBiLink(a, m2, 10e9, 0.050)
	b.AddBiLink(m2, z, 10e9, 0.050)
	g := b.MustBuild()

	m := tm.New([]tm.Aggregate{agg(0, 3, 6)})
	p, stats, err := MinMax{}.PlaceWithStats(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxOverload > 0.2+1e-3 {
		t.Fatalf("minmax peak = %v, want 0.2 via three-way split", stats.MaxOverload)
	}
	usedLong := false
	for _, al := range p.Allocs[0] {
		if al.Fraction > 0.05 && al.Path.Delay > 0.05 {
			usedLong = true
		}
	}
	if !usedLong {
		t.Fatal("pure MinMax should use the circuitous path to reduce peak utilization")
	}

	opt, err := LatencyOpt{}.Place(g, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, al := range opt.Allocs[0] {
		if al.Fraction > fracEps && al.Path.Delay > 0.05 {
			t.Fatalf("latency-opt used the 100ms detour needlessly: %+v", al)
		}
	}
}

func TestMinMaxLatencyTieBreak(t *testing.T) {
	// Peak utilization is pinned by a shared bottleneck in front of two
	// equal-capacity tails of different delay; every placement has the
	// same peak, so the latency tie-break must choose the short tail.
	b := graph.NewBuilder("tails")
	a := b.AddNode("a", geo.Point{})
	mid := b.AddNode("m", geo.Point{})
	t1 := b.AddNode("t1", geo.Point{})
	t2 := b.AddNode("t2", geo.Point{})
	z := b.AddNode("z", geo.Point{})
	b.AddBiLink(a, mid, 10e9, 0.001) // shared bottleneck: util 0.8 regardless
	b.AddBiLink(mid, t1, 20e9, 0.001)
	b.AddBiLink(t1, z, 20e9, 0.001)
	b.AddBiLink(mid, t2, 20e9, 0.005)
	b.AddBiLink(t2, z, 20e9, 0.005)
	g := b.MustBuild()

	m := tm.New([]tm.Aggregate{agg(0, 4, 8)})
	p, _, err := MinMax{}.PlaceWithStats(g, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, al := range p.Allocs[0] {
		if al.Fraction > 0.05 && al.Path.Delay > 0.004 {
			t.Fatalf("tie-break failed: long tail carries fraction %v", al.Fraction)
		}
	}
}

func TestMinMaxKLimitsChoice(t *testing.T) {
	g := twoPath(t, 10e9, 10e9)
	m := tm.New([]tm.Aggregate{agg(0, 2, 8)})
	p, stats, err := MinMax{K: 1}.PlaceWithStats(g, m)
	if err != nil {
		t.Fatal(err)
	}
	// K=1 pins everything to the shortest path: utilization 0.8.
	if math.Abs(stats.MaxOverload-0.8) > 1e-6 {
		t.Fatalf("K=1 peak utilization = %v, want 0.8", stats.MaxOverload)
	}
	if len(p.Allocs[0]) != 1 {
		t.Fatalf("K=1 must single-path: %+v", p.Allocs[0])
	}
}

func TestB4FillsShortestThenSpills(t *testing.T) {
	g := twoPath(t, 10e9, 10e9)
	m := tm.New([]tm.Aggregate{agg(0, 2, 15)})
	p, err := B4{}.Place(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Allocs[0]) != 2 {
		t.Fatalf("B4 should use 2 paths, got %+v", p.Allocs[0])
	}
	// First (shortest) path gets ~10/15 of the traffic.
	if f := p.Allocs[0][0].Fraction; math.Abs(f-10.0/15) > 0.05 {
		t.Fatalf("shortest-path fraction = %v, want ~0.67", f)
	}
}

func TestB4GetsStuckWhereOptimalFits(t *testing.T) {
	// The paper's Figure 5 pathology, miniaturized: V has two exits whose
	// onward links are consumed by transit aggregates that B4 places
	// greedily; the exact-fit placement exists but greedy order misses
	// it. Nodes: V with exits X and Y, destination D. Red X->D and blue
	// Y->D fill the D-links while green V->D needs a slice of each.
	b := graph.NewBuilder("fig5")
	v := b.AddNode("V", geo.Point{})
	x := b.AddNode("X", geo.Point{})
	y := b.AddNode("Y", geo.Point{})
	d := b.AddNode("D", geo.Point{})
	b.AddBiLink(v, x, 10e9, 0.002)
	b.AddBiLink(v, y, 10e9, 0.0022)
	b.AddBiLink(x, d, 10e9, 0.002)
	b.AddBiLink(y, d, 10e9, 0.002)
	g := b.MustBuild()

	// 20G into D over 20G of D-facing capacity: exactly fittable, with a
	// unique split (red and blue direct, green 1G via each exit).
	m := tm.New([]tm.Aggregate{
		agg(x, d, 9),
		agg(y, d, 9),
		agg(v, d, 2),
	})

	opt, stats, err := LatencyOpt{}.PlaceWithStats(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxOverload > 1+1e-6 {
		t.Fatalf("optimal routing should fit this traffic, overload %v", stats.MaxOverload)
	}
	if !opt.Fits() || opt.CongestedPairFraction() != 0 {
		t.Fatal("optimal placement must fit without congestion")
	}

	greedy, err := B4{}.Place(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := greedy.Validate(); err != nil {
		t.Fatal(err)
	}
	if greedy.Fits() {
		t.Fatalf("expected B4's greedy order to overload where optimal fits (max util %v)",
			greedy.MaxUtilization())
	}
	if greedy.CongestedPairFraction() == 0 {
		t.Fatal("B4's forced traffic should congest at least one pair")
	}
}

func TestB4HeadroomSecondPass(t *testing.T) {
	g := twoPath(t, 10e9, 2e9)
	// 11G demand: with 10% headroom the first pass caps the direct link
	// at 9G and the detour at 1.8G; the remaining traffic must eat into
	// the reserved headroom on the second pass.
	m := tm.New([]tm.Aggregate{agg(0, 2, 11)})
	p, err := B4{Headroom: 0.1}.Place(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Fits() {
		t.Fatalf("B4's second pass should fit the remainder inside headroom (max util %v)",
			p.MaxUtilization())
	}
	// Without the second pass (i.e. headroom simply shrinking the
	// network), the same demand cannot fit: 11G > 10.8G of scaled
	// capacity, so the force-placed remainder overloads the direct link.
	shrunk := graph.WithScaledCapacities(g, 0.9)
	pNoPass, err := B4{}.Place(shrunk, m)
	if err != nil {
		t.Fatal(err)
	}
	if pNoPass.Fits() {
		t.Fatal("sanity: demand must not fit in the shrunken network")
	}
}

func TestSchemeNames(t *testing.T) {
	cases := map[string]Scheme{
		"sp":         SP{},
		"b4":         B4{},
		"b4+hr":      B4{Headroom: 0.1},
		"latopt":     LatencyOpt{},
		"minmax":     MinMax{},
		"minmax-k10": MinMax{K: 10},
	}
	for want, s := range cases {
		if got := s.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
	if got := (LatencyOpt{Headroom: 0.25}).Name(); got != "latopt+hr25%" {
		t.Errorf("headroom name = %q", got)
	}
}

// TestSpecNameRoundTrips pins that SpecName and Headroom rebuild every
// scheme point a sweep grid can name — what lets a planned cell travel
// to a remote backend by request coordinates.
func TestSpecNameRoundTrips(t *testing.T) {
	for _, name := range SchemeNames() {
		for _, h := range []float64{0, 0.1, 0.25} {
			s, err := ByName(name, h)
			if err != nil {
				t.Fatal(err)
			}
			again, err := ByName(SpecName(s), Headroom(s))
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if again.Name() != s.Name() || ConfigString(again) != ConfigString(s) {
				t.Errorf("%s (config %s) rebuilt as %s (config %s)", s.Name(), ConfigString(s), again.Name(), ConfigString(again))
			}
		}
	}
}

func TestUnroutableAggregate(t *testing.T) {
	b := graph.NewBuilder("disc")
	b.AddNode("a", geo.Point{})
	b.AddNode("b", geo.Point{})
	g := b.MustBuild()
	m := tm.New([]tm.Aggregate{{Src: 0, Dst: 1, Volume: 1e9, Flows: 1}})
	for _, s := range []Scheme{SP{}, B4{}, LatencyOpt{}, MinMax{}} {
		if _, err := s.Place(g, m); err == nil {
			t.Errorf("%s: expected error for unroutable aggregate", s.Name())
		}
	}
	if _, err := LinkBasedLatencyOpt(g, m, 0); err == nil {
		t.Error("link-based: expected error for unroutable aggregate")
	}
}
