package experiments

import (
	"context"
	"sort"

	"lowlat/internal/engine"
	"lowlat/internal/metrics"
	"lowlat/internal/routing"
	"lowlat/internal/stats"
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
// evaluations each fan out through the engine; the ranking's cells are
// the before pass's LDR cells, recalled rather than re-placed.
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
	ranking, err := placeNets(ctx, r, cfg, pool, []routing.Scheme{routing.LatencyOpt{}})
	if err != nil {
		return nil, err
	}
	type cand struct {
		net     Network
		stretch float64
	}
	cands := make([]cand, len(pool))
	for i, n := range pool {
		cands[i] = cand{n, stats.Median(stretches(ranking[0][i]))}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].stretch > cands[b].stretch })
	if len(cands) > 4 {
		cands = cands[:4]
	}
	hard := make([]Network, len(cands))
	for i, c := range cands {
		hard[i] = c.net
	}

	// Grow each candidate topology in parallel (LLPD-guided link search
	// is itself a small sweep per candidate). A grown topology is a
	// network of its own, so its cells are labelled apart from the
	// original's.
	type grownNet struct {
		net   Network
		added int
	}
	grown, err := engine.Map(ctx, r.Workers(), hard,
		func(_ context.Context, _ int, n Network) (grownNet, error) {
			g, added := topo.Grow(n.Graph, topo.GrowConfig{
				Fraction: 0.05, Seed: cfg.Seed, CandidateSample: 16,
			})
			return grownNet{
				net: Network{
					Name:  n.Name + "+grown",
					Class: n.Class,
					Graph: g,
					LLPD:  metrics.LLPD(g, metrics.APAConfig{}),
				},
				added: len(added),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	grownNets := make([]Network, len(grown))
	for i, g := range grown {
		grownNets[i] = g.net
	}

	// The same traffic is offered to both topologies: demands do not
	// change when links are added (node IDs are preserved by Grow).
	mats, err := netMatrices(ctx, r, cfg, hard)
	if err != nil {
		return nil, err
	}
	schemes := stretchSchemes(0)
	before, err := placeGrid(ctx, r, cfg, hard, mats, schemes)
	if err != nil {
		return nil, err
	}
	after, err := placeGrid(ctx, r, cfg, grownNets, mats, schemes)
	if err != nil {
		return nil, err
	}
	res := &Fig20Result{}
	for ni, n := range hard {
		for si, scheme := range schemes {
			b, a := stretches(before[si][ni]), stretches(after[si][ni])
			row := Fig20Row{
				Network:      n.Name,
				Scheme:       displayName(scheme),
				BeforeMedian: stats.Median(b),
				AfterMedian:  stats.Median(a),
				BeforeP90:    stats.Percentile(b, 90),
				AfterP90:     stats.Percentile(a, 90),
				LLPDBefore:   n.LLPD,
				LLPDAfter:    grown[ni].net.LLPD,
				AddedBiLinks: grown[ni].added,
			}
			row.ImprovedMed = row.AfterMedian <= row.BeforeMedian+1e-9
			row.ImprovedP90 = row.AfterP90 <= row.BeforeP90+1e-9
			row.DegradedEither = !row.ImprovedMed || !row.ImprovedP90
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
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
