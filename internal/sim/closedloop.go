package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"lowlat/internal/core"
	"lowlat/internal/engine"
	"lowlat/internal/graph"
	"lowlat/internal/routing"
	"lowlat/internal/tm"
	"lowlat/internal/trace"
)

// AggregateSpec describes one aggregate's traffic process for a closed-loop
// run: a base mean rate that drifts minute to minute, with sub-second
// bursts of a given relative magnitude and temporal correlation.
type AggregateSpec struct {
	Src      graph.NodeID
	Dst      graph.NodeID
	Flows    int
	MeanBps  float64
	BurstStd float64 // relative to the current mean (e.g. 0.25)
	Corr     float64 // AR(1) coefficient of per-bin noise
}

// SpecsFromMatrix derives traffic processes from a traffic matrix:
// aggregate volumes become base means; burstiness is drawn deterministically
// per aggregate in [0.05, 0.40], mirroring the spread in the CAIDA traces.
func SpecsFromMatrix(m *tm.Matrix, seed int64) []AggregateSpec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]AggregateSpec, m.Len())
	for i, a := range m.Aggregates {
		specs[i] = AggregateSpec{
			Src:      a.Src,
			Dst:      a.Dst,
			Flows:    a.Flows,
			MeanBps:  a.Volume,
			BurstStd: 0.05 + float64(0.35*rng.Float64()),
			Corr:     0.9,
		}
	}
	return specs
}

// ClosedLoopConfig drives the full Figure 11 cycle over simulated minutes:
// measure (last minute's per-bin rates) -> optimize (LDR or a static
// scheme) -> install -> play the next minute's traffic over the installed
// placement in the fluid simulator.
type ClosedLoopConfig struct {
	// Minutes is the simulated duration (default 10).
	Minutes int
	// BinSec is the measurement and simulation bin (default 0.1).
	BinSec float64
	// Seed drives traffic generation.
	Seed int64
	// DriftPerMinute is the relative sigma of each aggregate's
	// minute-to-minute mean random walk (default 0.025, matching the
	// <10%/min the paper cites for backbone links).
	DriftPerMinute float64
	// Scheme, when non-nil, replaces LDR (run at the paper's settings): each minute the scheme places
	// a matrix whose demands are last minute's measured means. This is
	// how the B4/MinMax comparisons run.
	Scheme routing.Scheme
	// BufferSec bounds link buffers during simulation (0 = unbounded).
	BufferSec float64
}

// queueBoundSec is the transient queue bound a minute is judged against:
// the 10 ms LDR's multiplexing test guards.
const queueBoundSec = 0.010

func (c ClosedLoopConfig) withDefaults() ClosedLoopConfig {
	if c.Minutes <= 0 {
		c.Minutes = 10
	}
	if c.BinSec <= 0 {
		c.BinSec = 0.1
	}
	if c.DriftPerMinute <= 0 {
		c.DriftPerMinute = 0.025
	}
	return c
}

// MinuteStats records one simulated minute.
type MinuteStats struct {
	Minute int
	// MaxQueueSec is the worst transient queue drain time on any link.
	MaxQueueSec float64
	// CongestedFraction is the fraction of aggregates whose traffic
	// crossed a link that queued persistently (>50% of bins).
	CongestedFraction float64
	// LatencyStretch is the placement's propagation stretch.
	LatencyStretch float64
	// DropFraction is fluid lost to finite buffers.
	DropFraction float64
	// MuxRounds is LDR's appraisal rounds (0 for static schemes).
	MuxRounds int
	// Unresolved counts links LDR left failing the multiplexing test.
	Unresolved int
}

// ClosedLoopResult aggregates a run.
type ClosedLoopResult struct {
	Minutes []MinuteStats
	// WorstQueueSec is the maximum MaxQueueSec across minutes.
	WorstQueueSec float64
	// MeanStretch averages the per-minute placement stretch.
	MeanStretch float64
	// QueueViolations counts minutes whose worst queue exceeded bound.
	QueueViolations int
	// QueueBoundSec echoes the bound used for counting violations.
	QueueBoundSec float64
}

// ClosedLoopJob is one independent closed-loop drive: a topology, its
// traffic processes, and the cycle configuration.
type ClosedLoopJob struct {
	// Name labels the job in errors (typically the network name).
	Name   string
	Graph  *graph.Graph
	Specs  []AggregateSpec
	Config ClosedLoopConfig
}

// RunClosedLoopBatch drives independent closed-loop simulations through
// the shared engine pool (workers <= 0 selects one per CPU). Each job is
// self-contained — its own controller, caches and RNG state — so results
// are identical to running the jobs sequentially; they return in job
// order. The first failure cancels jobs that have not started.
func RunClosedLoopBatch(ctx context.Context, workers int, jobs []ClosedLoopJob) ([]*ClosedLoopResult, error) {
	return engine.Map(ctx, workers, jobs,
		func(_ context.Context, i int, j ClosedLoopJob) (*ClosedLoopResult, error) {
			res, err := RunClosedLoop(j.Graph, j.Specs, j.Config)
			if err != nil {
				name := j.Name
				if name == "" {
					name = fmt.Sprintf("job %d", i)
				}
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			return res, nil
		})
}

// RunClosedLoop simulates cfg.Minutes of control cycles on g for the given
// traffic processes.
func RunClosedLoop(g *graph.Graph, specs []AggregateSpec, cfg ClosedLoopConfig) (*ClosedLoopResult, error) {
	cfg = cfg.withDefaults()
	if len(specs) == 0 {
		return nil, errors.New("sim: no aggregate specs")
	}
	binsPerMinute := int(60 / cfg.BinSec)
	if binsPerMinute <= 0 {
		return nil, fmt.Errorf("sim: bin %vs too coarse for a minute", cfg.BinSec)
	}

	// Both the controller and tm.New order aggregates by (src, dst);
	// sorting the specs identically keeps spec index i aligned with
	// placement.Allocs[i] when simulating. Duplicates would silently
	// break that alignment, so they are rejected.
	specs = append([]AggregateSpec(nil), specs...)
	sort.Slice(specs, func(a, b int) bool {
		if specs[a].Src != specs[b].Src {
			return specs[a].Src < specs[b].Src
		}
		return specs[a].Dst < specs[b].Dst
	})
	for i := 1; i < len(specs); i++ {
		if specs[i].Src == specs[i-1].Src && specs[i].Dst == specs[i-1].Dst {
			return nil, fmt.Errorf("sim: duplicate aggregate %d -> %d", specs[i].Src, specs[i].Dst)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	means := make([]float64, len(specs))
	for i, s := range specs {
		if s.MeanBps <= 0 {
			return nil, fmt.Errorf("sim: aggregate %d has non-positive mean", i)
		}
		means[i] = s.MeanBps
	}

	genMinute := func(minute int) [][]float64 {
		series := make([][]float64, len(specs))
		for i, s := range specs {
			seed := cfg.Seed ^ int64(minute)<<20 ^ int64(i)<<2 ^ 0x5bd1e995
			series[i] = trace.AggregateSeries(seed, binsPerMinute, means[i], s.BurstStd, s.Corr)
		}
		return series
	}

	drift := func() {
		for i := range means {
			f := 1 + float64(rng.NormFloat64()*cfg.DriftPerMinute)
			if f < 0.5 {
				f = 0.5
			}
			means[i] *= f
		}
	}

	var ctl *core.Controller
	if cfg.Scheme == nil {
		ctl = core.NewController(g, core.Config{})
	}

	res := &ClosedLoopResult{QueueBoundSec: queueBoundSec}
	measured := genMinute(0) // bootstrap: minute 0 doubles as first measurement

	for minute := 0; minute < cfg.Minutes; minute++ {
		var placement *routing.Placement
		stats := MinuteStats{Minute: minute}

		if ctl != nil {
			inputs := make([]core.AggregateInput, len(specs))
			for i, s := range specs {
				inputs[i] = core.AggregateInput{Src: s.Src, Dst: s.Dst, Flows: s.Flows, Series: measured[i]}
			}
			out, err := ctl.Optimize(inputs)
			if err != nil {
				return nil, fmt.Errorf("sim: minute %d: %w", minute, err)
			}
			placement = out.Placement
			stats.MuxRounds = out.MuxRounds
			stats.Unresolved = len(out.UnresolvedLinks)
		} else {
			aggs := make([]tm.Aggregate, len(specs))
			for i, s := range specs {
				mean := meanOf(measured[i])
				if mean < 1 {
					// tm.New drops zero-volume aggregates, which
					// would misalign Allocs with the spec order.
					mean = 1
				}
				aggs[i] = tm.Aggregate{Src: s.Src, Dst: s.Dst, Volume: mean, Flows: s.Flows}
			}
			var err error
			placement, err = cfg.Scheme.Place(g, tm.New(aggs))
			if err != nil {
				return nil, fmt.Errorf("sim: minute %d: %w", minute, err)
			}
		}

		// The installed placement carries the *next* minute's traffic.
		drift()
		live := genMinute(minute + 1)
		simRes, err := Run(placement, live, Config{BinSec: cfg.BinSec, BufferSec: cfg.BufferSec})
		if err != nil {
			return nil, fmt.Errorf("sim: minute %d: %w", minute, err)
		}

		stats.MaxQueueSec = simRes.MaxQueueSec
		stats.DropFraction = simRes.DropFraction()
		stats.LatencyStretch = placement.LatencyStretch()
		stats.CongestedFraction = congestedFraction(placement, simRes)
		res.Minutes = append(res.Minutes, stats)

		if stats.MaxQueueSec > res.WorstQueueSec {
			res.WorstQueueSec = stats.MaxQueueSec
		}
		if stats.MaxQueueSec > queueBoundSec {
			res.QueueViolations++
		}
		res.MeanStretch += stats.LatencyStretch

		measured = live
	}
	res.MeanStretch /= float64(len(res.Minutes))
	return res, nil
}

// congestedFraction maps the simulator's persistent-queue links back to
// aggregate pairs, mirroring the paper's "fraction of pairs congested".
func congestedFraction(p *routing.Placement, r *Result) float64 {
	if p.TM.Len() == 0 {
		return 0
	}
	persistent := make([]bool, len(r.Links))
	for lid, ls := range r.Links {
		persistent[lid] = ls.QueuedBins > r.Bins/2
	}
	n := 0
	for _, allocs := range p.Allocs {
		hit := false
		for _, al := range allocs {
			for _, lid := range al.Path.Links {
				if persistent[lid] {
					hit = true
				}
			}
		}
		if hit {
			n++
		}
	}
	return float64(n) / float64(p.TM.Len())
}

func meanOf(series []float64) float64 {
	if len(series) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range series {
		sum += v
	}
	return sum / float64(len(series))
}
