package tmgen

import (
	"math"
	"strings"
	"testing"

	"lowlat/internal/graph"
	"lowlat/internal/routing"
	"lowlat/internal/topo"
)

func marginals(g *graph.Graph, aggs []float64, m [][]float64) ([]float64, []float64) {
	n := len(m)
	rows := make([]float64, n)
	cols := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			rows[i] += m[i][j]
			cols[j] += m[i][j]
		}
	}
	return rows, cols
}

func matrixOf(g *graph.Graph, r *Result) [][]float64 {
	n := g.NumNodes()
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for _, a := range r.Matrix.Aggregates {
		m[a.Src][a.Dst] = a.Volume
	}
	return m
}

func TestGenerateBasics(t *testing.T) {
	g := topo.Grid("g", 4, 4, 650, topo.Cap10G)
	res, err := Generate(g, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Matrix
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 16*15 {
		t.Fatalf("aggregates = %d, want full mesh %d", m.Len(), 16*15)
	}
	for _, a := range m.Aggregates {
		if a.Volume <= 0 || a.Flows < 1 {
			t.Fatalf("bad aggregate %+v", a)
		}
	}
	// Flow counts are proportional to volume (1000 flows per Gbps).
	for _, a := range m.Aggregates {
		want := a.Volume / 1e9 * 1000
		if want >= 2 && math.Abs(float64(a.Flows)-want) > want*0.5+1 {
			t.Fatalf("flows %d not proportional to volume %v", a.Flows, a.Volume)
		}
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	g := topo.Ring("r", 10, 1200, topo.Cap10G)
	a, err := Generate(g, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(g, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Matrix.Len() != b.Matrix.Len() {
		t.Fatal("same seed, different matrices")
	}
	for i := range a.Matrix.Aggregates {
		if a.Matrix.Aggregates[i] != b.Matrix.Aggregates[i] {
			t.Fatal("same seed, different aggregates")
		}
	}
	c, err := Generate(g, Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Matrix.Aggregates {
		if a.Matrix.Aggregates[i].Volume != c.Matrix.Aggregates[i].Volume {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical volumes")
	}
}

func TestScalingHitsTargetUtilization(t *testing.T) {
	g := topo.Grid("g", 4, 4, 650, topo.Cap10G)
	for _, target := range []float64{0.6, 1 / 1.3, 0.9} {
		res, err := Generate(g, Config{Seed: 3, TargetMaxUtil: target})
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := (routing.MinMax{}).PlaceWithStats(g, res.Matrix)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(stats.MaxOverload-target) > 0.02 {
			t.Fatalf("target %v: MinMax peak = %v", target, stats.MaxOverload)
		}
	}
}

func TestPaperLoadSemantics(t *testing.T) {
	// The paper's calibration: "with optimal routing it is still (just)
	// possible to route the network without congestion if all traffic
	// increases by 30%". Scaling the default matrix by 1.3 must still
	// fit; by 1.4 must not.
	g := topo.Grid("g", 4, 4, 650, topo.Cap10G)
	res, err := Generate(g, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	_, up13, err := (routing.MinMax{}).PlaceWithStats(g, res.Matrix.Scale(1.3))
	if err != nil {
		t.Fatal(err)
	}
	if up13.MaxOverload > 1+0.02 {
		t.Fatalf("+30%% should just fit, peak = %v", up13.MaxOverload)
	}
	_, up14, err := (routing.MinMax{}).PlaceWithStats(g, res.Matrix.Scale(1.45))
	if err != nil {
		t.Fatal(err)
	}
	if up14.MaxOverload <= 1 {
		t.Fatalf("+45%% should overload, peak = %v", up14.MaxOverload)
	}
}

func TestLocalityPreservesMarginals(t *testing.T) {
	g := topo.Grid("g", 4, 4, 650, topo.Cap10G)
	noLoc, err := Generate(g, Config{Seed: 7, NoLocality: true, TargetMaxUtil: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	loc, err := Generate(g, Config{Seed: 7, Locality: 1, TargetMaxUtil: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Compare per-PoP totals after normalizing total volume (scaling
	// differs between the two matrices).
	mn := matrixOf(g, noLoc)
	ml := matrixOf(g, loc)
	var sn, sl float64
	for i := range mn {
		for j := range mn {
			sn += mn[i][j]
			sl += ml[i][j]
		}
	}
	rn, cn := marginals(g, nil, mn)
	rl, cl := marginals(g, nil, ml)
	for i := range rn {
		if math.Abs(rn[i]/sn-rl[i]/sl) > 1e-6 {
			t.Fatalf("row marginal %d changed: %v vs %v", i, rn[i]/sn, rl[i]/sl)
		}
		if math.Abs(cn[i]/sn-cl[i]/sl) > 1e-6 {
			t.Fatalf("col marginal %d changed: %v vs %v", i, cn[i]/sn, cl[i]/sl)
		}
	}
}

func TestLocalityShortensTraffic(t *testing.T) {
	g := topo.Grid("g", 4, 4, 650, topo.Cap10G)
	weightedDist := func(r *Result) float64 {
		num, den := 0.0, 0.0
		for _, a := range r.Matrix.Aggregates {
			sp, _ := g.ShortestPath(a.Src, a.Dst, nil, nil)
			num += a.Volume * sp.Delay
			den += a.Volume
		}
		return num / den
	}
	noLoc, err := Generate(g, Config{Seed: 9, NoLocality: true, TargetMaxUtil: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	loc1, err := Generate(g, Config{Seed: 9, Locality: 1, TargetMaxUtil: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	loc2, err := Generate(g, Config{Seed: 9, Locality: 2, TargetMaxUtil: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	d0, d1, d2 := weightedDist(noLoc), weightedDist(loc1), weightedDist(loc2)
	if !(d0 > d1 && d1 >= d2) {
		t.Fatalf("locality must shorten mean traffic distance: %v, %v, %v", d0, d1, d2)
	}
	// Locality caps growth at (1+ℓ)x the base demand per aggregate.
	base := matrixOf(g, noLoc)
	shaped := matrixOf(g, loc1)
	var sb, ss float64
	for i := range base {
		for j := range base {
			sb += base[i][j]
			ss += shaped[i][j]
		}
	}
	for i := range base {
		for j := range base {
			if base[i][j] == 0 {
				continue
			}
			if shaped[i][j]/ss > 2*base[i][j]/sb*(1+1e-6) {
				t.Fatalf("aggregate %d->%d grew beyond (1+l): %v vs base %v",
					i, j, shaped[i][j]/ss, base[i][j]/sb)
			}
		}
	}
}

func TestGenerateSet(t *testing.T) {
	g := topo.Ring("r", 8, 1200, topo.Cap10G)
	ms, err := GenerateSet(g, Config{Seed: 100}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("got %d matrices", len(ms))
	}
	if ms[0].TotalVolume() == ms[1].TotalVolume() {
		t.Fatal("matrices in a set should differ")
	}
}

func TestGenerateTooSmall(t *testing.T) {
	b := graph.NewBuilder("one")
	b.AddNode("only", struct{ Lat, Lon float64 }{})
	if _, err := Generate(b.MustBuild(), Config{}); err == nil {
		t.Fatal("expected error for single-node graph")
	}
}

// TestGenerateDisconnected: a pair with no path has no distance for the
// locality LP to weigh it by, so Generate names the pair instead of
// handing the LP an unreachable-distance sentinel as a cost.
func TestGenerateDisconnected(t *testing.T) {
	b := graph.NewBuilder("split")
	a := b.AddNode("a", struct{ Lat, Lon float64 }{})
	bb := b.AddNode("b", struct{ Lat, Lon float64 }{})
	c := b.AddNode("c", struct{ Lat, Lon float64 }{})
	d := b.AddNode("d", struct{ Lat, Lon float64 }{})
	b.AddBiLink(a, bb, topo.Cap10G, 0.001)
	b.AddBiLink(c, d, topo.Cap10G, 0.001)
	_, err := Generate(b.MustBuild(), Config{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "tmgen: split has no path from a to c") {
		t.Fatalf("err = %v, want the first unreachable pair named", err)
	}
}

// TestCalibrationSolves: starting from the shortest-path peak, the
// calibration reaches its target within two MinMax solves — one at the
// shortest-path scale, and one at the corrected scale where MinMax beats
// shortest paths — on every net, seed and target here.
func TestCalibrationSolves(t *testing.T) {
	seen := map[int]int{}
	for _, name := range []string{"ring-16", "wheel-16", "tree-2x4", "star-12", "grid-4x4"} {
		e, ok := topo.ByName(name)
		if !ok {
			t.Fatalf("%s missing from the zoo", name)
		}
		g := e.Build()
		cache := routing.NewPathCache(g)
		for seed := int64(0); seed < 20; seed++ {
			for _, target := range []float64{0.6, 1 / 1.3, 0.9} {
				res, err := Generate(g, Config{Seed: seed, TargetMaxUtil: target, Cache: cache})
				if err != nil {
					t.Fatalf("%s seed %d target %v: %v", name, seed, target, err)
				}
				if res.Solves < 1 || res.Solves > 2 {
					t.Errorf("%s seed %d target %v: %d MinMax solves, want 1 or 2", name, seed, target, res.Solves)
				}
				seen[res.Solves]++
			}
		}
	}
	t.Logf("MinMax solves per matrix: %v", seen)
}
