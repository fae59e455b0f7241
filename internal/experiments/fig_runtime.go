package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"lowlat/internal/engine"
	"lowlat/internal/routing"
	"lowlat/internal/stats"
)

// Fig15Result reproduces Figure 15: optimization runtime on the networks
// with LLPD > 0.5 (the hardest to route) for warm-cache LDR, cold-cache
// LDR, and the link-based multi-commodity formulation.
type Fig15Result struct {
	Networks []string
	WarmMs   []float64
	ColdMs   []float64
	LinkMs   []float64 // NaN when skipped (network too large)
	// LinkBasedSpeedupMedian is the median cold-LDR/link-based runtime
	// ratio over networks where both ran (paper: ~100x).
	LinkSlowdownMedian float64
}

// Fig15 times the path-calculation stage of LDR — the Figure 13 iterative
// LP, which the paper reports sub-second runtimes for — on each
// high-LLPD network, with a cold and a warm k-shortest-path cache, against
// the link-based multi-commodity formulation of the same optimization.
// The link-based model is skipped above linkBasedMaxNodes nodes: its cost
// is the entire point of the figure. (The full LDR cycle including the
// multiplexing appraisal is exercised and timed in the core package and
// the ldrcycle benchmarks.)
func Fig15(cfg Config) (*Fig15Result, error) {
	cfg = cfg.withDefaults()
	const linkBasedMaxNodes = 26

	var hard []Network
	for _, n := range cfg.networks() {
		if n.LLPD > 0.5 {
			hard = append(hard, n)
		}
	}

	// Each network is one engine unit that does its own cold/warm/link
	// timing with a private cache (sharing the run cache would make every
	// measurement warm). Timings are per-solve wall clock, so parallel
	// units measure the same code path; absolute numbers get noisier as
	// Workers grows, which is inherent to timing figures.
	type timing struct {
		coldMs, warmMs, linkMs float64
	}
	timings, err := engine.Map(cfg.ctx(), cfg.Workers, hard,
		func(_ context.Context, _ int, n Network) (timing, error) {
			m, err := cfg.matrix(n, 0, nil)
			if err != nil {
				return timing{}, fmt.Errorf("%s: %w", n.Name, err)
			}

			cache := routing.NewPathCache(n.Graph)
			start := time.Now()
			if _, err := (routing.LatencyOpt{Cache: cache}).Place(n.Graph, m); err != nil {
				return timing{}, fmt.Errorf("%s cold: %w", n.Name, err)
			}
			coldMs := float64(time.Since(start).Microseconds()) / 1000

			start = time.Now()
			if _, err := (routing.LatencyOpt{Cache: cache}).Place(n.Graph, m); err != nil {
				return timing{}, fmt.Errorf("%s warm: %w", n.Name, err)
			}
			warmMs := float64(time.Since(start).Microseconds()) / 1000

			linkMs := math.NaN()
			if n.Graph.NumNodes() <= linkBasedMaxNodes {
				start := time.Now()
				if _, err := routing.LinkBasedLatencyOpt(n.Graph, m, 0); err != nil {
					return timing{}, fmt.Errorf("%s link-based: %w", n.Name, err)
				}
				linkMs = float64(time.Since(start).Microseconds()) / 1000
			}
			return timing{coldMs: coldMs, warmMs: warmMs, linkMs: linkMs}, nil
		})
	if err != nil {
		return nil, err
	}

	res := &Fig15Result{}
	var slowdowns []float64
	for i, n := range hard {
		t := timings[i]
		res.Networks = append(res.Networks, n.Name)
		res.ColdMs = append(res.ColdMs, t.coldMs)
		res.WarmMs = append(res.WarmMs, t.warmMs)
		res.LinkMs = append(res.LinkMs, t.linkMs)
		if !math.IsNaN(t.linkMs) && t.coldMs > 0 {
			slowdowns = append(slowdowns, t.linkMs/t.coldMs)
		}
	}
	if len(slowdowns) > 0 {
		res.LinkSlowdownMedian = stats.Median(slowdowns)
	}
	return res, nil
}

// Table renders per-network runtimes and distribution quantiles.
func (r *Fig15Result) Table() *Table {
	t := &Table{
		Title:  "Figure 15: optimization runtime (ms), networks with LLPD > 0.5",
		Header: []string{"network", "LDR warm", "LDR cold", "link-based"},
		Notes: []string{
			fmt.Sprintf("median link-based/cold-LDR slowdown: %.0fx (paper: ~100x)", r.LinkSlowdownMedian),
			"link-based entries are blank for networks too large to be worth solving",
		},
	}
	for i := range r.Networks {
		link := "-"
		if !math.IsNaN(r.LinkMs[i]) {
			link = f3(r.LinkMs[i])
		}
		t.Rows = append(t.Rows, []string{r.Networks[i], f3(r.WarmMs[i]), f3(r.ColdMs[i]), link})
	}
	warm := stats.NewCDF(r.WarmMs)
	cold := stats.NewCDF(r.ColdMs)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"runtime medians: warm %.1f ms, cold %.1f ms", warm.Quantile(0.5), cold.Quantile(0.5)))
	return t
}
