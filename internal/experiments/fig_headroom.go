package experiments

import (
	"fmt"
	"sort"

	"lowlat/internal/routing"
	"lowlat/internal/stats"
	"lowlat/internal/topo"
)

// Fig7Result reproduces Figure 7: the link-utilization CDF of the GTS-like
// network's median traffic matrix under latency-optimal and MinMax
// placement.
type Fig7Result struct {
	LatOptUtil []float64
	MinMaxUtil []float64
	// Means mirror the figure legend ("Latency-optimal (mean 0.32),
	// MinMax (mean 0.30)").
	LatOptMean float64
	MinMaxMean float64
	// Stretches back the §4 text: "median latency stretch ... 15% for
	// MinMax and 4% for latency-optimal".
	LatOptStretch float64
	MinMaxStretch float64
}

// Fig7 picks the GTS-like matrix with median latency-optimal stretch and
// reports both schemes' utilization distributions.
func Fig7(cfg Config) (*Fig7Result, error) {
	cfg = cfg.withDefaults()
	ctx, r := cfg.ctx(), cfg.newRunner()
	e, _ := topo.ByName("gts-like") // a zoo entry: the lookup cannot miss
	net := Network{Name: e.Name, Class: e.Class, Graph: e.Build()}
	g := net.Graph
	set, err := cfg.matrices(net, r.Cache().ForGraph(g))
	if err != nil {
		return nil, err
	}

	grid, err := placeGrid(ctx, r, cfg, []Network{net}, []matrixSet{set}, []routing.Scheme{routing.LatencyOpt{}})
	if err != nil {
		return nil, err
	}
	ranked := stretches(grid[0][0])
	order := make([]int, len(set.ms))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ranked[order[a]] < ranked[order[b]] })
	median := set.ms[order[len(order)/2]]

	// Utilizations are not in store.Metrics, so the two placements the
	// CDFs are drawn from are solved directly.
	opt, err := r.Cache().Place(routing.LatencyOpt{}, g, median)
	if err != nil {
		return nil, fmt.Errorf("gts-like/latopt: %w", err)
	}
	mm, err := r.Cache().Place(routing.MinMax{}, g, median)
	if err != nil {
		return nil, fmt.Errorf("gts-like/minmax: %w", err)
	}
	res := &Fig7Result{
		LatOptUtil:    opt.Utilizations(),
		MinMaxUtil:    mm.Utilizations(),
		LatOptStretch: opt.LatencyStretch(),
		MinMaxStretch: mm.LatencyStretch(),
	}
	res.LatOptMean, _ = stats.MeanStd(res.LatOptUtil)
	res.MinMaxMean, _ = stats.MeanStd(res.MinMaxUtil)
	return res, nil
}

// Tables renders utilization quantiles for both schemes.
func (r *Fig7Result) Tables() []*Table {
	lat := stats.NewCDF(r.LatOptUtil)
	mm := stats.NewCDF(r.MinMaxUtil)
	t := &Table{
		Title:  "Figure 7: link utilization CDF, GTS-like median matrix",
		Header: []string{"quantile", "latency-optimal", "minmax"},
		Notes: []string{
			fmt.Sprintf("means: latency-optimal %.3f, minmax %.3f (paper: 0.32 / 0.30)", r.LatOptMean, r.MinMaxMean),
			fmt.Sprintf("median stretch: latency-optimal %.3f, minmax %.3f (paper: ~1.04 / ~1.15)", r.LatOptStretch, r.MinMaxStretch),
			"the latency-optimal busiest links sit near 100% utilization; minmax's do not",
		},
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("p%.0f", q*100), f3(lat.Quantile(q)), f3(mm.Quantile(q)),
		})
	}
	return []*Table{t}
}

// Fig8Result reproduces Figure 8: median latency stretch as headroom is
// dialed up, at a lighter load (min-cut 60%).
type Fig8Result struct {
	Headrooms []float64
	// Rows are per network, sorted by LLPD; Stretch[i][j] is network i's
	// median stretch at headroom j.
	Names   []string
	LLPD    []float64
	Stretch [][]float64
}

// Fig8 sweeps headroom {0, 11%, 23%, 40%} with latency-optimal routing.
// The whole (headroom x network x matrix) cube is one grid.
func Fig8(cfg Config) (*Fig8Result, error) {
	cfg = cfg.withDefaults()
	cfg.TargetMaxUtil = 1 / 1.65 // the paper's lighter load for this figure
	nets := cfg.networks()
	ctx, r := cfg.ctx(), cfg.newRunner()
	res := &Fig8Result{Headrooms: []float64{0, 0.11, 0.23, 0.40}}

	schemes := make([]routing.Scheme, len(res.Headrooms))
	for j, h := range res.Headrooms {
		schemes[j] = routing.LatencyOpt{Headroom: h}
	}
	grid, err := placeNets(ctx, r, cfg, nets, schemes)
	if err != nil {
		return nil, err
	}
	for _, i := range sortByLLPD(nets) {
		n := nets[i]
		row := make([]float64, len(res.Headrooms))
		for j := range res.Headrooms {
			row[j] = stats.Median(stretches(grid[j][i]))
		}
		res.Names = append(res.Names, n.Name)
		res.LLPD = append(res.LLPD, n.LLPD)
		res.Stretch = append(res.Stretch, row)
	}
	return res, nil
}

// Tables renders the sweep.
func (r *Fig8Result) Tables() []*Table {
	header := []string{"network", "LLPD"}
	for _, h := range r.Headrooms {
		header = append(header, fPct(h)+" hr")
	}
	t := &Table{
		Title:  "Figure 8: median latency stretch vs headroom (load 60% min-cut)",
		Header: header,
		Notes: []string{
			"stretch grows only mildly with headroom until the MinMax extreme",
		},
	}
	for i := range r.Names {
		row := []string{r.Names[i], f3(r.LLPD[i])}
		for _, s := range r.Stretch[i] {
			row = append(row, f3(s))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}
}
