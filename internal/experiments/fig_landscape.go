package experiments

import (
	"context"
	"fmt"

	"lowlat/internal/engine"
	"lowlat/internal/metrics"
	"lowlat/internal/routing"
	"lowlat/internal/stats"
	"lowlat/internal/store"
	"lowlat/internal/topo"
)

// Fig1Result reproduces Figure 1: one APA CDF per network (stretch limit
// 1.4). Each row summarizes a curve by the fraction of PoP pairs whose APA
// reaches common thresholds, plus the network's LLPD.
type Fig1Result struct {
	Rows []Fig1Row
}

// Fig1Row is one network's APA curve summary.
type Fig1Row struct {
	Name      string
	Class     topo.Class
	Pairs     int
	FracAPA30 float64 // fraction of pairs with APA >= 0.3
	FracAPA50 float64
	FracAPA70 float64 // == LLPD by definition
	FracAPA90 float64
	LLPD      float64
}

// Fig1 computes APA distributions for every network in the configured zoo,
// one network per engine work unit (APA is the per-pair max-flow sweep, the
// most expensive pure-metric computation in the suite).
func Fig1(cfg Config) (*Fig1Result, error) {
	cfg = cfg.withDefaults()
	nets := cfg.networks()
	rows, err := engine.Map(cfg.ctx(), cfg.Workers, nets,
		func(_ context.Context, _ int, n Network) (Fig1Row, error) {
			dist := metrics.APADistribution(n.Graph, metrics.APAConfig{})
			row := Fig1Row{Name: n.Name, Class: n.Class, Pairs: len(dist), LLPD: n.LLPD}
			for _, apa := range dist {
				if apa >= 0.3 {
					row.FracAPA30++
				}
				if apa >= 0.5 {
					row.FracAPA50++
				}
				if apa >= 0.7 {
					row.FracAPA70++
				}
				if apa >= 0.9 {
					row.FracAPA90++
				}
			}
			if len(dist) > 0 {
				f := float64(len(dist))
				row.FracAPA30 /= f
				row.FracAPA50 /= f
				row.FracAPA70 /= f
				row.FracAPA90 /= f
			}
			return row, nil
		})
	if err != nil {
		return nil, err
	}
	return &Fig1Result{Rows: rows}, nil
}

// Table renders the result.
func (r *Fig1Result) Table() *Table {
	t := &Table{
		Title:  "Figure 1: APA distribution per network (stretch limit 1.4)",
		Header: []string{"network", "class", "pairs", ">=0.3", ">=0.5", ">=0.7", ">=0.9", "LLPD"},
		Notes: []string{
			"fraction of PoP pairs whose APA meets each threshold; >=0.7 is LLPD",
			"clique rows have single-step (horizontal) CDFs: APA is 0 or 1 per pair",
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Name, string(row.Class), fmt.Sprint(row.Pairs),
			f3(row.FracAPA30), f3(row.FracAPA50), f3(row.FracAPA70), f3(row.FracAPA90),
			f3(row.LLPD),
		})
	}
	return t
}

// CongestionRow is one network's congestion outcome under one scheme.
type CongestionRow struct {
	Name            string
	LLPD            float64
	MedianCongested float64
	P90Congested    float64
	MedianStretch   float64
	P90Stretch      float64
}

// Fig3Result reproduces Figure 3: shortest-path routing congestion versus
// LLPD (median and 90th percentile across traffic matrices).
type Fig3Result struct {
	Rows []CongestionRow
}

// Fig3 runs delay-proportional shortest-path routing over the zoo.
func Fig3(cfg Config) (*Fig3Result, error) {
	cfg = cfg.withDefaults()
	rows, err := congestionRows(cfg.ctx(), cfg.newRunner(), cfg, cfg.networks(), routing.SP{})
	if err != nil {
		return nil, err
	}
	return &Fig3Result{Rows: rows[0]}, nil
}

// congestionRows places each scheme over every network's matrices and
// summarizes rows[scheme] per network, sorted by LLPD.
func congestionRows(ctx context.Context, r *engine.Runner, cfg Config, nets []Network, schemes ...routing.Scheme) ([][]CongestionRow, error) {
	grid, err := placeNets(ctx, r, cfg, nets, schemes)
	if err != nil {
		return nil, err
	}
	rows := make([][]CongestionRow, len(schemes))
	for si := range schemes {
		for _, i := range sortByLLPD(nets) {
			rows[si] = append(rows[si], congestionRow(nets[i], grid[si][i]))
		}
	}
	return rows, nil
}

func congestionRow(n Network, cells []store.Metrics) CongestionRow {
	cong := make([]float64, len(cells))
	for i, c := range cells {
		cong[i] = c.Congested
	}
	stretch := stretches(cells)
	return CongestionRow{
		Name:            n.Name,
		LLPD:            n.LLPD,
		MedianCongested: stats.Median(cong),
		P90Congested:    stats.Percentile(cong, 90),
		MedianStretch:   stats.Median(stretch),
		P90Stretch:      stats.Percentile(stretch, 90),
	}
}

// Table renders the result.
func (r *Fig3Result) Table() *Table {
	return congestionTable("Figure 3: SP routing congestion vs LLPD", r.Rows,
		"networks sorted by LLPD; high-LLPD networks concentrate traffic under SP")
}

func congestionTable(title string, rows []CongestionRow, note string) *Table {
	t := &Table{
		Title: title,
		Header: []string{"network", "LLPD", "med-congested", "p90-congested",
			"med-stretch", "p90-stretch"},
		Notes: []string{note},
	}
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{
			row.Name, f3(row.LLPD), f3(row.MedianCongested), f3(row.P90Congested),
			f3(row.MedianStretch), f3(row.P90Stretch),
		})
	}
	return t
}

// Fig4Result reproduces Figure 4: congestion and latency stretch for the
// four active schemes across the zoo.
type Fig4Result struct {
	// Schemes maps scheme name to per-network rows sorted by LLPD.
	Schemes map[string][]CongestionRow
	Order   []string
}

// Fig4 evaluates latency-optimal, B4, MinMax and MinMax-K10 placements.
// All four schemes are one grid, so their cells share one solver cache
// and fill the pool together.
func Fig4(cfg Config) (*Fig4Result, error) {
	cfg = cfg.withDefaults()
	schemes := []routing.Scheme{
		routing.LatencyOpt{},
		routing.B4{},
		routing.MinMax{},
		routing.MinMax{K: 10},
	}
	rows, err := congestionRows(cfg.ctx(), cfg.newRunner(), cfg, cfg.networks(), schemes...)
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{Schemes: make(map[string][]CongestionRow)}
	for si, s := range schemes {
		res.Schemes[s.Name()] = rows[si]
		res.Order = append(res.Order, s.Name())
	}
	return res, nil
}

// Tables renders one table per sub-figure.
func (r *Fig4Result) Tables() []*Table {
	notes := map[string]string{
		"latopt":     "4(a): optimal can always fit; stretch stays low even at high LLPD",
		"b4":         "4(b): greedy local minima congest high-LLPD networks (GTS, Cogent)",
		"minmax":     "4(c): never congests, but pays latency for utilization",
		"minmax-k10": "4(d): k=10 restores some latency but congests high-LLPD networks",
	}
	var out []*Table
	for _, name := range r.Order {
		out = append(out, congestionTable(
			fmt.Sprintf("Figure 4 (%s): congestion and stretch vs LLPD", name),
			r.Schemes[name], notes[name]))
	}
	return out
}

// Fig19Result reproduces Figure 19: the Figure 3 data with a Google-like
// network added.
type Fig19Result struct {
	Rows      []CongestionRow
	GoogleRow CongestionRow
}

// Fig19 runs SP routing with the Google-like topology appended.
func Fig19(cfg Config) (*Fig19Result, error) {
	cfg = cfg.withDefaults()
	base, err := Fig3(cfg)
	if err != nil {
		return nil, err
	}
	g := topo.GoogleLike()
	google := Network{
		Name:  "google-like",
		Class: topo.ClassIntercontinental,
		Graph: g,
		LLPD:  metrics.LLPD(g, metrics.APAConfig{}),
	}
	rows, err := congestionRows(cfg.ctx(), cfg.newRunner(), cfg, []Network{google}, routing.SP{})
	if err != nil {
		return nil, err
	}
	return &Fig19Result{Rows: base.Rows, GoogleRow: rows[0][0]}, nil
}

// Table renders the result.
func (r *Fig19Result) Table() *Table {
	t := congestionTable("Figure 19: SP congestion vs LLPD, with Google-like network",
		append(append([]CongestionRow{}, r.Rows...), r.GoogleRow),
		"the Google-like network has the highest LLPD of all and cannot be SP-routed")
	return t
}
