package experiments

import (
	"context"
	"fmt"
	"strings"

	"lowlat/internal/dynamics"
	"lowlat/internal/engine"
	"lowlat/internal/routing"
	"lowlat/internal/tm"
	"lowlat/internal/topo"
)

// FigDynamics goes beyond the paper's static landscape: it replays every
// scheme through internal/dynamics' event timeline — a seeded random
// link-failure walk combined with diurnal demand churn — and reports how
// gracefully each scheme degrades: latency stretch, per-epoch path churn,
// remaining headroom, and epochs that no longer fit. FatPaths and cISP
// both argue this is the regime where low-latency routing designs earn
// (or lose) their keep.

// dynamicsEpochs is the timeline length of the fig_dynamics driver.
const dynamicsEpochs = 6

// dynamicsSchemes are the contenders: plain shortest path, B4's greedy
// waterfill, MinMax, and LDR's optimization stage with its 10% headroom
// dial — the configuration §4 argues survives bursts.
func dynamicsSchemes() []routing.Scheme {
	return []routing.Scheme{
		routing.SP{},
		routing.B4{},
		routing.MinMax{},
		routing.LatencyOpt{Headroom: 0.10},
	}
}

// FigDynamicsResult holds one timeline summary per (network, scheme).
type FigDynamicsResult struct {
	Rows []*dynamics.Result
}

// dynamicsNetworks picks the driver's evaluation set: at most four
// networks of distinct structural classes (so the table spans the LLPD
// range instead of four near-identical stars), capped to small-to-medium
// sizes — failure timelines re-optimize every epoch, so the driver has to
// stay affordable. Zoo order makes the pick deterministic.
func dynamicsNetworks(cfg Config) []Network {
	seen := make(map[topo.Class]bool)
	var out []Network
	for _, n := range cfg.networks() {
		if n.Graph.NumNodes() > 32 || seen[n.Class] {
			continue
		}
		seen[n.Class] = true
		out = append(out, n)
		if len(out) >= 4 {
			break
		}
	}
	return out
}

// FigDynamics runs the failure/churn timeline for every (network, scheme)
// pair. Pairs fan out across the engine pool; each pair's timeline runs
// sequentially against the shared solver cache, so total concurrency stays
// bounded and output is byte-identical at every pool width.
func FigDynamics(cfg Config) (*FigDynamicsResult, error) {
	cfg = cfg.withDefaults()
	nets := dynamicsNetworks(cfg)
	ctx, r := cfg.ctx(), cfg.newRunner()
	// Each timeline starts from the network's first matrix.
	mats, err := engine.Map(ctx, r.Workers(), nets,
		func(_ context.Context, _ int, n Network) (*tm.Matrix, error) {
			m, _, err := cfg.matrix(n, 0, r.Cache().ForGraph(n.Graph))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", n.Name, err)
			}
			return m, nil
		})
	if err != nil {
		return nil, err
	}
	schemes := dynamicsSchemes()
	type pair struct {
		net    Network
		matrix *tm.Matrix
		scheme routing.Scheme
	}
	var pairs []pair
	for i, n := range nets {
		for _, s := range schemes {
			pairs = append(pairs, pair{n, mats[i], s})
		}
	}
	seq := r.WithWorkers(1)
	rows, err := engine.Map(ctx, r.Workers(), pairs,
		func(ctx context.Context, _ int, p pair) (*dynamics.Result, error) {
			return dynamics.Run(ctx, seq, p.net.Graph, p.matrix, p.scheme, dynamics.Config{
				Seed:     cfg.Seed + int64(hashName(p.net.Name)),
				Epochs:   dynamicsEpochs,
				Failures: dynamics.FailRandom,
				Churn:    dynamics.ChurnDiurnal,
			})
		})
	if err != nil {
		return nil, err
	}
	return &FigDynamicsResult{Rows: rows}, nil
}

// Tables renders the per-pair timeline summaries.
func (r *FigDynamicsResult) Tables() []*Table {
	t := &Table{
		Title: "Figure D (dynamics): scheme resilience under link failures and diurnal churn",
		Header: []string{"network", "scheme", "epochs", "mean stretch", "worst stretch",
			"mean churn", "min headroom", "unfit epochs", "lost demand"},
		Notes: []string{
			"seeded random link-failure walk + diurnal demand swing, re-optimized every epoch",
			"churn = fraction of pairs whose path set changed; lost = demand a partition stranded",
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Network, displayName2(row.Scheme), fmt.Sprintf("%d", len(row.Epochs)),
			f3(row.MeanStretch()), f3(row.WorstStretch()), f3(row.MeanChurn()),
			f3(row.MinHeadroom()), fPct(row.UnfitFrac()), fPct(row.MaxLostDemand()),
		})
	}
	return []*Table{t}
}

// displayName2 maps scheme Name() strings onto the figure legends
// (displayName works on scheme values; timelines carry only the name).
func displayName2(name string) string {
	switch {
	case name == "sp":
		return "SP"
	case strings.HasPrefix(name, "b4"):
		return "B4"
	case strings.HasPrefix(name, "latopt"):
		return "LDR"
	case name == "minmax":
		return "MinMax"
	case strings.HasPrefix(name, "minmax-k"):
		return "MinMaxK" + strings.TrimPrefix(name, "minmax-k")
	}
	return name
}
