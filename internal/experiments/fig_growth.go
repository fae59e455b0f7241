package experiments

import (
	"context"
	"sort"

	"lowlat/internal/engine"
	"lowlat/internal/graph"
	"lowlat/internal/metrics"
	"lowlat/internal/routing"
	"lowlat/internal/stats"
	"lowlat/internal/tm"
	"lowlat/internal/topo"
)

// Fig20Row is one (network, scheme) outcome of the growth experiment.
type Fig20Row struct {
	Network        string
	Scheme         string
	BeforeMedian   float64
	AfterMedian    float64
	BeforeP90      float64
	AfterP90       float64
	LLPDBefore     float64
	LLPDAfter      float64
	AddedBiLinks   int
	ImprovedMed    bool
	ImprovedP90    bool
	DegradedEither bool
}

// Fig20Result reproduces Figure 20: latency stretch before and after
// adding 5% more links chosen greedily for LLPD gain, on the networks that
// are hardest to route with low latency (excluding cliques).
type Fig20Result struct {
	Rows []Fig20Row
}

// Fig20 selects the hard networks, grows them, and re-evaluates the four
// schemes. Candidate ranking, topology growth and the before/after
// evaluations each fan out through the engine.
func Fig20(cfg Config) (*Fig20Result, error) {
	cfg = cfg.withDefaults()
	ctx, r := cfg.ctx(), cfg.newRunner()

	// Rank candidate networks by latency-optimal median stretch (the
	// paper's "difficult to route with low latency, even with optimal
	// traffic placement"), excluding cliques and oversized networks.
	var pool []Network
	for _, n := range cfg.networks() {
		if n.Class == topo.ClassClique || n.Graph.NumNodes() > 24 {
			continue
		}
		pool = append(pool, n)
	}
	medians, err := medianStretches(ctx, r, cfg, pool, routing.LatencyOpt{})
	if err != nil {
		return nil, err
	}
	type cand struct {
		net     Network
		stretch float64
	}
	cands := make([]cand, len(pool))
	for i, n := range pool {
		cands[i] = cand{n, medians[i]}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].stretch > cands[b].stretch })
	if len(cands) > 4 {
		cands = cands[:4]
	}

	// Grow each candidate topology in parallel (LLPD-guided link search
	// is itself a small sweep per candidate).
	type grownNet struct {
		grown     *graph.Graph
		added     int
		llpdAfter float64
	}
	grownNets, err := engine.Map(ctx, r.Workers(), cands,
		func(_ context.Context, _ int, c cand) (grownNet, error) {
			grown, added := topo.Grow(c.net.Graph, topo.GrowConfig{
				Fraction: 0.05, Seed: cfg.Seed, CandidateSample: 16,
			})
			return grownNet{
				grown:     grown,
				added:     len(added),
				llpdAfter: metrics.LLPD(grown, metrics.APAConfig{}),
			}, nil
		})
	if err != nil {
		return nil, err
	}

	schemes := stretchSchemes(0)
	res := &Fig20Result{}
	for ci, c := range cands {
		g := grownNets[ci]
		// The same traffic is offered to both topologies: demands do not
		// change when links are added (node IDs are preserved by Grow).
		ms, err := cfg.matrices(c.net, r.Cache().ForGraph(c.net.Graph))
		if err != nil {
			return nil, err
		}
		for _, scheme := range schemes {
			name := displayName(scheme)
			before, err := stretchSamples(ctx, r, c.net.Graph, ms, scheme)
			if err != nil {
				return nil, err
			}
			after, err := stretchSamples(ctx, r, g.grown, ms, scheme)
			if err != nil {
				return nil, err
			}
			row := Fig20Row{
				Network:      c.net.Name,
				Scheme:       name,
				BeforeMedian: stats.Median(before),
				AfterMedian:  stats.Median(after),
				BeforeP90:    stats.Percentile(before, 90),
				AfterP90:     stats.Percentile(after, 90),
				LLPDBefore:   c.net.LLPD,
				LLPDAfter:    g.llpdAfter,
				AddedBiLinks: g.added,
			}
			row.ImprovedMed = row.AfterMedian <= row.BeforeMedian+1e-9
			row.ImprovedP90 = row.AfterP90 <= row.BeforeP90+1e-9
			row.DegradedEither = !row.ImprovedMed || !row.ImprovedP90
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// medianStretches evaluates one scheme over every network's matrix set and
// returns each network's median latency stretch, in network order.
func medianStretches(ctx context.Context, r *engine.Runner, cfg Config, nets []Network, scheme routing.Scheme) ([]float64, error) {
	runs, err := runScheme(ctx, r, nets, cfg, scheme)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(nets))
	for i, rs := range runs {
		var stretches []float64
		for _, sr := range rs {
			stretches = append(stretches, sr.Stretch)
		}
		out[i] = stats.Median(stretches)
	}
	return out, nil
}

// stretchSamples collects latency stretch for the given matrices on the
// given topology, one engine scenario per matrix.
func stretchSamples(ctx context.Context, r *engine.Runner, g *graph.Graph, ms []*tm.Matrix, scheme routing.Scheme) ([]float64, error) {
	scs := make([]engine.Scenario, len(ms))
	for i, m := range ms {
		scs[i] = engine.Scenario{
			Tag:    g.Name() + "/" + scheme.Name(),
			Graph:  g,
			Matrix: m,
			Scheme: scheme,
		}
	}
	results, err := r.Run(ctx, scs)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(results))
	for i, sr := range results {
		out[i] = sr.Placement.LatencyStretch()
	}
	return out, nil
}

// Table renders the before/after comparison.
func (r *Fig20Result) Table() *Table {
	t := &Table{
		Title: "Figure 20: latency stretch before/after +5% LLPD-guided links",
		Header: []string{"network", "scheme", "med before", "med after",
			"p90 before", "p90 after", "LLPD before", "LLPD after"},
		Notes: []string{
			"LDR exploits new links fully; MinMax can get worse (it load-balances wider)",
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Network, row.Scheme, f3(row.BeforeMedian), f3(row.AfterMedian),
			f3(row.BeforeP90), f3(row.AfterP90), f3(row.LLPDBefore), f3(row.LLPDAfter),
		})
	}
	return t
}
