// Package core implements LDR (Low Delay Routing), the paper's proposed
// centralized intra-domain routing system (§5). A Controller runs the
// measure → predict → optimize → appraise loop of Figures 11 and 14:
//
//  1. ingress measurements arrive as per-aggregate 100 ms bitrate series;
//  2. Algorithm 1 predicts each aggregate's next-minute mean (B_a);
//  3. the Figure 12/13 path-based LP computes a latency-optimal placement
//     for the predicted demands, growing per-aggregate path sets only
//     around overloaded links (k-shortest paths are cached across runs);
//  4. every link of the proposed placement is appraised for statistical
//     multiplexing (peak-sum prefilter, then the temporal-correlation and
//     PMF-convolution tests); and
//  5. aggregates sharing a failing link have their demands scaled up —
//     adding headroom exactly where multiplexing is poor — and the loop
//     repeats from 3.
//
// Scaling up aggregates rather than scaling down link capacity is the
// paper's deliberate choice: it lets the optimizer substitute less
// variable aggregates onto the link instead of merely shrinking it.
package core

import (
	"fmt"
	"sort"
	"time"

	"lowlat/internal/graph"
	"lowlat/internal/mux"
	"lowlat/internal/predict"
	"lowlat/internal/routing"
	"lowlat/internal/tm"
)

// Config parameterizes a Controller. The zero value uses the paper's
// settings.
type Config struct {
	// Mux configures the multiplexing tests (10 ms queue bound, 100 ms
	// bins, 60 s interval).
	Mux mux.CheckConfig
	// MaxMuxRounds bounds the appraise/re-optimize loop (default 8).
	MaxMuxRounds int
	// ScaleLinksInstead switches to the alternative the paper rejects in
	// §5: when a link fails the multiplexing test, shrink that link's
	// capacity rather than scaling up the offending aggregates. Kept as
	// an ablation knob — it "prevents other less variable aggregates
	// being chosen to use the link instead".
	ScaleLinksInstead bool
}

// scaleUp is the factor applied to the demands of aggregates that share
// a failing link, mirroring the 10% hedge. LDR reserves no uniform
// headroom on top: its headroom is demand-driven, added only where
// multiplexing fails.
const scaleUp = 1.1

func (c Config) withDefaults() Config {
	if c.MaxMuxRounds <= 0 {
		c.MaxMuxRounds = 8
	}
	return c
}

// AggregateInput is one ingress-reported aggregate: its endpoints, flow
// count, and the measured 100 ms bitrate series from the last interval.
type AggregateInput struct {
	Src   graph.NodeID
	Dst   graph.NodeID
	Flows int
	// Series holds measured bitrates (bits/sec) per 100 ms bin.
	Series []float64
}

// Result is the outcome of one optimization cycle.
type Result struct {
	Placement *routing.Placement
	// Demands holds the per-aggregate B_a values actually optimized
	// (prediction x multiplexing scale-up).
	Demands []float64
	// Multipliers holds the final per-aggregate scale-up factors (1.0
	// when the aggregate never shared a failing link).
	Multipliers []float64
	// MuxRounds is how many optimize/appraise iterations ran.
	MuxRounds int
	// UnresolvedLinks lists links still failing the multiplexing test
	// when the round budget ran out (empty on clean convergence).
	UnresolvedLinks []graph.LinkID
	// Stats accumulates LP solver work across all rounds.
	Stats routing.SolveStats
	// Appraisal counts what the multiplexing appraisal did across all
	// rounds.
	Appraisal Appraisal
	// Runtime is the wall-clock duration of the cycle.
	Runtime time.Duration
}

// Appraisal counts link checks by how far each got: cleared by the
// peak-sum prefilter, rejected by the temporal test, or taken through the
// PMF convolution. A slow cycle is one with many Convolved.
type Appraisal struct {
	Links             int // link checks run
	SkippedByPeakSum  int
	FailedTemporal    int
	Convolved         int
	FailedConvolution int
}

func (a *Appraisal) count(v mux.Verdict) {
	a.Links++
	switch {
	case v.SkippedByPeakSum:
		a.SkippedByPeakSum++
	case v.FailedTemporal:
		a.FailedTemporal++
	default:
		a.Convolved++
		if v.FailedConvolution {
			a.FailedConvolution++
		}
	}
}

// Controller is a long-lived LDR instance bound to one topology. It owns
// the per-pair k-shortest-path cache (warm across cycles — the effect
// Figure 15's cold-cache curve isolates) and per-aggregate predictors.
type Controller struct {
	g     *graph.Graph
	cfg   Config
	cache *routing.PathCache
	preds map[[2]graph.NodeID]*predict.Predictor
	// checkLinks is the appraisal of one placement, appraiseLinks; the
	// differential tests swap in the reference implementation.
	checkLinks func(p *routing.Placement, inputs []AggregateInput, peaks []float64, visit func(graph.LinkID, mux.Verdict))
}

// NewController returns a Controller for the topology.
func NewController(g *graph.Graph, cfg Config) *Controller {
	c := &Controller{
		g:     g,
		cfg:   cfg.withDefaults(),
		cache: routing.NewPathCache(g),
		preds: make(map[[2]graph.NodeID]*predict.Predictor),
	}
	c.checkLinks = c.appraiseLinks
	return c
}

// Optimize runs one full control cycle over the reported aggregates.
func (c *Controller) Optimize(inputs []AggregateInput) (*Result, error) {
	start := time.Now()
	if len(inputs) == 0 {
		return nil, fmt.Errorf("core: no aggregates")
	}
	inputs = sortedInputs(inputs)
	for i := 1; i < len(inputs); i++ {
		if inputs[i].Src == inputs[i-1].Src && inputs[i].Dst == inputs[i-1].Dst {
			return nil, fmt.Errorf("core: duplicate aggregate %d -> %d", inputs[i].Src, inputs[i].Dst)
		}
	}

	// Predict next-minute means (Algorithm 1) from the measured series.
	// Each series' peak is taken once here for every round's appraisal.
	base := make([]float64, len(inputs))
	peaks := make([]float64, len(inputs))
	for i, in := range inputs {
		if len(in.Series) == 0 {
			return nil, fmt.Errorf("core: aggregate %d has no measurements", i)
		}
		mean := 0.0
		for _, v := range in.Series {
			mean += v
		}
		mean /= float64(len(in.Series))
		key := [2]graph.NodeID{in.Src, in.Dst}
		p := c.preds[key]
		if p == nil {
			p = &predict.Predictor{}
			c.preds[key] = p
		}
		base[i] = p.Next(mean)
		peaks[i] = mux.Peak(in.Series)
	}

	multipliers := make([]float64, len(inputs))
	for i := range multipliers {
		multipliers[i] = 1
	}
	// Per-link capacity multipliers for the ScaleLinksInstead ablation.
	linkScale := make([]float64, c.g.NumLinks())
	for i := range linkScale {
		linkScale[i] = 1
	}

	res := &Result{Multipliers: multipliers}
	for round := 1; round <= c.cfg.MaxMuxRounds; round++ {
		res.MuxRounds = round

		aggs := make([]tm.Aggregate, len(inputs))
		demands := make([]float64, len(inputs))
		for i, in := range inputs {
			demands[i] = base[i] * multipliers[i]
			if demands[i] <= 0 {
				// Idle aggregates keep a floor demand so matrix and
				// placement indices stay aligned with inputs.
				demands[i] = 1
			}
			flows := in.Flows
			if flows <= 0 {
				flows = 1
			}
			aggs[i] = tm.Aggregate{Src: in.Src, Dst: in.Dst, Volume: demands[i], Flows: flows}
		}
		matrix := tm.New(aggs)

		optGraph := c.g
		optCache := c.cache
		if c.cfg.ScaleLinksInstead && round > 1 {
			// Rebuild the topology with shrunken failing links; link
			// IDs are preserved, so placements and the appraisal map
			// back to the real topology directly.
			bb := graph.NewBuilder(c.g.Name() + "-scaled")
			for _, n := range c.g.Nodes() {
				bb.AddNode(n.Name, n.Loc)
			}
			for _, l := range c.g.Links() {
				bb.AddLink(l.From, l.To, l.Capacity*linkScale[l.ID], l.Delay)
			}
			optGraph = bb.MustBuild()
			optCache = routing.NewPathCache(optGraph)
		}

		placement, stats, err := routing.LatencyOpt{Cache: optCache}.PlaceWithStats(optGraph, matrix)
		if err != nil {
			return nil, err
		}
		if optGraph != c.g {
			// Re-anchor the placement on the real topology (link IDs
			// and delays are identical).
			placement.G = c.g
		}
		res.Stats.LPRuns += stats.LPRuns
		res.Stats.LPPivots += stats.LPPivots
		res.Stats.GrowRounds += stats.GrowRounds
		res.Stats.MaxOverload = stats.MaxOverload
		res.Placement = placement
		res.Demands = demands

		failing := c.appraise(placement, inputs, peaks, &res.Appraisal)
		if len(failing) == 0 {
			res.UnresolvedLinks = nil
			res.Runtime = time.Since(start)
			return res, nil
		}
		res.UnresolvedLinks = failing

		if c.cfg.ScaleLinksInstead {
			// Ablation mode: shrink the failing links themselves.
			for _, lid := range failing {
				linkScale[lid] /= scaleUp
			}
			continue
		}
		// Scale up every aggregate crossing a failing link (A in
		// Figure 14): headroom is added only where multiplexing is
		// unsatisfactory.
		failSet := make(map[graph.LinkID]bool, len(failing))
		for _, lid := range failing {
			failSet[lid] = true
		}
		for i, allocs := range placement.Allocs {
		scan:
			for _, al := range allocs {
				for _, lid := range al.Path.Links {
					if failSet[lid] {
						multipliers[i] *= scaleUp
						break scan
					}
				}
			}
		}
	}
	res.Runtime = time.Since(start)
	return res, nil
}

// appraise runs the multiplexing tests on every link of the placement,
// tallies the verdicts and returns the links that fail, in LinkID order.
func (c *Controller) appraise(p *routing.Placement, inputs []AggregateInput, peaks []float64, tally *Appraisal) []graph.LinkID {
	var failing []graph.LinkID
	c.checkLinks(p, inputs, peaks, func(lid graph.LinkID, v mux.Verdict) {
		tally.count(v)
		if !v.Pass {
			failing = append(failing, lid)
		}
	})
	return failing
}

// AppraisePlacement exposes the multiplexing appraisal for placements
// computed by any scheme — the paper notes (§8) the same machinery can
// retrofit headroom onto B4 or MinMax. inputs are matched to the
// placement's aggregates by (src, dst) order.
func (c *Controller) AppraisePlacement(p *routing.Placement, inputs []AggregateInput) map[graph.LinkID]mux.Verdict {
	inputs = sortedInputs(inputs)
	peaks := make([]float64, len(inputs))
	for i, in := range inputs {
		peaks[i] = mux.Peak(in.Series)
	}
	out := make(map[graph.LinkID]mux.Verdict)
	c.checkLinks(p, inputs, peaks, func(lid graph.LinkID, v mux.Verdict) { out[lid] = v })
	return out
}

// sortedInputs returns a copy of inputs ordered the way tm.New orders
// aggregates, so input index i, matrix aggregate i and placement.Allocs[i]
// all line up.
func sortedInputs(inputs []AggregateInput) []AggregateInput {
	inputs = append([]AggregateInput(nil), inputs...)
	sort.Slice(inputs, func(a, b int) bool {
		if inputs[a].Src != inputs[b].Src {
			return inputs[a].Src < inputs[b].Src
		}
		return inputs[a].Dst < inputs[b].Dst
	})
	return inputs
}

// linkTraffic is what one link carries under a placement: the series of
// each allocation crossing it, and each series' peak.
type linkTraffic struct {
	series [][]float64
	peaks  []float64
}

// appraiseLinks runs the multiplexing tests on every link the placement
// uses, in LinkID order, handing each verdict to visit. peaks[i] is
// mux.Peak(inputs[i].Series).
//
// An aggregate contributes its measured series scaled by the fraction
// placed on the link. A whole allocation contributes the input series
// itself — shared, read-only — and only a split one a scaled copy; either
// way the peak follows from the aggregate's: rounding is monotone, so
// max(v*f) == max(v)*f bit for bit, and the prefilter decides a link
// without touching a sample.
func (c *Controller) appraiseLinks(p *routing.Placement, inputs []AggregateInput, peaks []float64, visit func(graph.LinkID, mux.Verdict)) {
	links := make([]linkTraffic, c.g.NumLinks())
	for i, allocs := range p.Allocs {
		for _, al := range allocs {
			if al.Fraction < 1e-7 {
				continue
			}
			series, peak := inputs[i].Series, peaks[i]
			if al.Fraction != 1 {
				series = make([]float64, len(series))
				for t, v := range inputs[i].Series {
					series[t] = v * al.Fraction
				}
				peak *= al.Fraction
			}
			for _, lid := range al.Path.Links {
				lt := &links[lid]
				lt.series = append(lt.series, series)
				lt.peaks = append(lt.peaks, peak)
			}
		}
	}
	for lid, lt := range links {
		if len(lt.series) == 0 {
			continue
		}
		lid := graph.LinkID(lid)
		visit(lid, mux.CheckLinkPeaks(lt.series, lt.peaks, c.g.Link(lid).Capacity, c.cfg.Mux))
	}
}
