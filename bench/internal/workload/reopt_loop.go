package workload

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"lowlat/bench/internal/span"
	"lowlat/bench/internal/stat"
	"lowlat/internal/core"
	"lowlat/internal/dynamics"
	"lowlat/internal/engine"
	"lowlat/internal/graph"
	"lowlat/internal/mux"
	"lowlat/internal/routing"
	"lowlat/internal/sweep"
	"lowlat/internal/tm"
	"lowlat/internal/trace"
)

// reopt_loop: the paper's Fig. 15 claim — LDR re-optimises fast enough
// to run every control cycle. Phase A drives core.Controller.Optimize
// (predict, optimise, multiplexing appraisal) with one long-lived
// controller per net and fresh measurement series every cycle; phase B
// replays six-epoch failure + diurnal-churn timelines through
// dynamics.Run. tmgen and store do no timed work here.
//
// Three nets, so the median control cycle sits inside the middle net's
// cluster of cycle times instead of in the gap between two.
var reoptNets = []string{"ring-16", "grid-4x4", "wheel-16"}

const (
	reoptInputSets = 6   // distinct measurement sets per net, cycled
	reoptBins      = 600 // one minute of 100 ms bins
	reoptEpochs    = 6
	reoptLoad      = 0.70
	reoptBurst     = 0.10
	// reoptBaseSeed fixes each net's demand matrix: the operator's network
	// and its traffic are what they are, and the run seed varies what a
	// controller sees change from minute to minute — the measurements and
	// the failures. (A matrix per run seed moves a cycle's cost tenfold,
	// which would bury any change to the code under the draw.)
	reoptBaseSeed = 7
	// reoptCountCycles is how many leading cycles the exact-count metrics
	// cover, so they do not depend on how many cycles the time allowed.
	reoptCountCycles = 6
)

// reoptNet is one prepared topology.
type reoptNet struct {
	g      *graph.Graph
	base   *tm.Matrix
	inputs [reoptInputSets][]core.AggregateInput
	ctrl   *core.Controller
}

type reoptEnv struct {
	nets []*reoptNet
}

// prepareReopt builds, per net, the graph, a calibrated base matrix and
// the measurement sets: per aggregate a one-minute series around its
// matrix volume. Load 0.70 with bursts of 10% of the mean (AR(1) 0.8) is
// busy enough that the appraisal rejects links and the LP re-solves, and
// it is a plateau: every cycle takes the same number of rounds (2 on
// ring-16, 3 on grid-4x4 and wheel-16) whatever the series seed. At 15%
// bursts the round count flips between 2 and 4 with the draw and a
// cycle's cost with it; near 20% a cycle takes seconds and 50k pivots.
func prepareReopt(seed int64) (*reoptEnv, error) {
	env := &reoptEnv{}
	for ni, name := range reoptNets {
		spec, err := sweep.ResolveNet(name)
		if err != nil {
			return nil, err
		}
		base, err := sweep.GenerateMatrix(spec.Graph, reoptBaseSeed, reoptLoad, 1, nil)
		if err != nil {
			return nil, fmt.Errorf("reopt_loop: %s: %w", name, err)
		}
		n := &reoptNet{g: spec.Graph, base: base, ctrl: core.NewController(spec.Graph, core.Config{})}
		for set := range n.inputs {
			in := make([]core.AggregateInput, base.Len())
			for i, a := range base.Aggregates {
				in[i] = core.AggregateInput{
					Src: a.Src, Dst: a.Dst, Flows: a.Flows,
					Series: trace.AggregateSeries(seed*7919+int64(ni*1_000_000+set*10_000+i), reoptBins, a.Volume, reoptBurst, 0.8),
				}
			}
			n.inputs[set] = in
		}
		env.nets = append(env.nets, n)
	}
	return env, nil
}

// cycleInputs is control cycle c's (net, measurement set).
func (e *reoptEnv) cycleInputs(c int) (*reoptNet, []core.AggregateInput) {
	n := e.nets[c%len(e.nets)]
	return n, n.inputs[(c/len(e.nets))%reoptInputSets]
}

// reoptTimelines is phase B's catalogue: every net under MinMax and
// under LatencyOpt, one round of six timelines.
const reoptTimelines = 6

// timeline is catalogue entry t: a net, a scheme and a fixed dynamics
// seed. Which links a seeded failure walk takes down moves a timeline's
// cost tenfold (12 ms to 1.4 s on grid-4x4), so the run seed does not
// pick them: every run, and every round of a run, replays the same six.
func (e *reoptEnv) timeline(t int) (*reoptNet, routing.Scheme, dynamics.Config) {
	n := e.nets[t%len(e.nets)]
	var scheme routing.Scheme = routing.MinMax{}
	if t/len(e.nets) == 1 {
		scheme = routing.LatencyOpt{}
	}
	return n, scheme, dynamics.Config{
		Seed:     1,
		Epochs:   reoptEpochs,
		Failures: dynamics.FailRandom,
		Churn:    dynamics.ChurnDiurnal,
	}
}

// cycleRecord is what one control cycle did.
type cycleRecord struct {
	ns, allocBytes int64
	rounds, pivots int
}

// ReoptLoop runs the reopt_loop workload.
func ReoptLoop(ctx context.Context, cfg Config) (*Result, error) {
	res := newResult()
	env, err := timedSetup(cfg, res, func() (*reoptEnv, error) { return prepareReopt(cfg.Seed) }, func(*reoptEnv) {})
	if err != nil {
		return nil, err
	}
	total := cfg.Seconds
	var rec *span.Recorder
	if cfg.Trace {
		rec = span.NewRecorder()
		total *= 0.5
	}

	// Phase B: the failure/churn timelines, whole rounds of the catalogue,
	// each round on a fresh runner so every round does the same work.
	var runNs []int64
	var firstRun *dynamics.Result
	mb := startMeter()
	for d := time.Duration(total * 0.4 * float64(time.Second)); ctx.Err() == nil && mb.elapsed() < d; {
		runner := engine.NewRunner(1)
		for t := 0; t < reoptTimelines; t++ {
			n, scheme, dcfg := env.timeline(t)
			t0 := time.Now()
			out, err := dynamics.Run(ctx, runner, n.g, n.base, scheme, dcfg)
			runNs = append(runNs, time.Since(t0).Nanoseconds())
			res.Attempted += reoptEpochs
			if err != nil || len(out.Epochs) != reoptEpochs {
				res.fail("reopt_loop: timeline %d: %v", t, err)
				continue
			}
			if firstRun == nil {
				firstRun = out
			}
		}
		mb.round(reoptTimelines*reoptEpochs, nil)
	}
	useB := mb.stop()

	// Phase A: control cycles, whole rounds of the nets.
	var cycles []cycleRecord
	var first []*core.Result
	ma := startMeter()
	for c, d := 0, time.Duration(total*0.6*float64(time.Second)); ctx.Err() == nil && ma.elapsed() < d; {
		var roundNs []int64
		for range env.nets {
			n, inputs := env.cycleInputs(c)
			var ms0, ms1 runtime.MemStats
			if cfg.Trace {
				runtime.ReadMemStats(&ms0)
			}
			t0 := time.Now()
			r, err := n.ctrl.Optimize(inputs)
			ns := time.Since(t0).Nanoseconds()
			roundNs = append(roundNs, ns)
			res.Attempted++
			c++
			if err != nil || r.Placement == nil || len(r.Demands) != len(inputs) {
				res.fail("reopt_loop: cycle %d: %v", c-1, err)
				continue
			}
			rec0 := cycleRecord{ns: ns, rounds: r.MuxRounds, pivots: r.Stats.LPPivots}
			if cfg.Trace {
				runtime.ReadMemStats(&ms1)
				rec0.allocBytes = int64(ms1.TotalAlloc - ms0.TotalAlloc)
			}
			cycles = append(cycles, rec0)
			if len(first) < reoptCountCycles {
				first = append(first, r)
			}
		}
		ma.round(len(env.nets), roundNs)
	}
	useA := ma.stop()

	epochs := len(runNs) * reoptEpochs
	cycleMs := make([]float64, len(cycles))
	for i, c := range cycles {
		cycleMs[i] = float64(c.ns) / 1e6
	}
	// Latency, CPU and allocation per operation are phase A's: a control
	// cycle is the operation the Fig. 15 claim is about. The latency is
	// the median over all cycles — the middle net's cluster; a round holds
	// only three cycles, too few to take a median per round. Phase B
	// answers with its throughput.
	useA.latMs = []float64{stat.Median(cycleMs)}
	useA.wallS = useB.wallS
	useA.ops += epochs
	useA.heap = useA.heap.Add(useB.heap)
	useA.peakRSS = max(useA.peakRSS, useB.peakRSS)
	res.reportUsage(useA, cfg.Trace)

	// Oracle: the control loop and the timeline replay are deterministic.
	// Fresh controllers fed the first cycles again must do exactly the
	// same LP work and propose the same demands; the first timeline
	// replayed must give the same epochs.
	fresh, err := prepareReopt(cfg.Seed)
	if err != nil {
		return nil, err
	}
	for c, want := range first {
		n, inputs := fresh.cycleInputs(c)
		got, err := n.ctrl.Optimize(inputs)
		res.check(err == nil && got.MuxRounds == want.MuxRounds && got.Stats == want.Stats && reflect.DeepEqual(got.Demands, want.Demands),
			"reopt_loop: cycle %d replayed on a fresh controller differs (err %v)", c, err)
	}
	if firstRun != nil {
		n, scheme, dcfg := fresh.timeline(0)
		again, err := dynamics.Run(ctx, engine.NewRunner(1), n.g, n.base, scheme, dcfg)
		res.check(err == nil && reflect.DeepEqual(again.Epochs, firstRun.Epochs), "reopt_loop: timeline 0 replayed differs (err %v)", err)
	}
	logf(cfg, "reopt_loop: %d cycles in %.2fs, %d timelines (%d epochs) in %.2fs",
		len(cycles), useA.wall.Seconds(), len(runNs), epochs, useB.wall.Seconds())
	if !cfg.Trace {
		return res, nil
	}

	// Per-layer view of the untraced pass.
	res.setP50("core.optimize_ms_p50", cycleMs)
	res.setTail("lat_ms_p90", cycleMs, 0.90)
	var rounds, allocMB []float64
	pivots := 0
	for i, c := range cycles {
		rounds = append(rounds, float64(c.rounds))
		allocMB = append(allocMB, float64(c.allocBytes)/(1<<20))
		if i < reoptCountCycles {
			pivots += c.pivots
		}
	}
	res.setP50("core.mux_rounds_p50", rounds)
	res.setP50("core.alloc_mb_per_cycle", allocMB)
	res.setN("core.lp_pivots_per_cycle", float64(pivots)/float64(min(len(cycles), reoptCountCycles)), min(len(cycles), reoptCountCycles))
	res.setP50("dynamics.run_ms_p50", ms(runNs))
	res.setP50("dynamics.epoch_ms_p50", scale(runNs, 1e6*reoptEpochs))

	tracedMs, err := reoptTraced(ctx, cfg, res, rec, fresh, total)
	if err != nil {
		return nil, err
	}
	res.set("trace.overhead_ratio", stat.Median(tracedMs)/stat.Median(cycleMs))
	spans := rec.Spans()
	res.reportTrace(spans)
	return res, writeTrace(cfg, "reopt_loop", spans)
}

// reoptTraced repeats both phases with a span around each call into
// core and dynamics, then times the multiplexing check alone on each
// cycle's busiest link.
func reoptTraced(ctx context.Context, cfg Config, res *Result, rec *span.Recorder, env *reoptEnv, total float64) ([]float64, error) {
	var cycleMs, checkUs []float64
	d := time.Duration(total * 0.6 * float64(time.Second))
	start := time.Now()
	// The oracle above already ran reoptCountCycles cycles on these
	// controllers; carry on from there.
	for c := reoptCountCycles; ctx.Err() == nil && (c%len(env.nets) != 0 || time.Since(start) < d); c++ {
		n, inputs := env.cycleInputs(c)
		op := int64(c)
		root := rec.Start(op, span.NoParent, "cycle")
		var r *core.Result
		var err error
		ns := timeNs(func() {
			rec.Do(op, root, "core.Optimize", func() { r, err = n.ctrl.Optimize(inputs) })
		})
		res.Attempted++
		if err != nil {
			rec.End(root)
			res.fail("reopt_loop: traced cycle %d: %v", c, err)
			continue
		}
		cycleMs = append(cycleMs, float64(ns)/1e6)
		// mux: the appraisal of the busiest link of the cycle's placement.
		series, capacity := busiestLink(n.g, r, inputs)
		if len(series) > 0 {
			rec.Do(op, root, "mux.CheckLink", func() {
				checkUs = append(checkUs, float64(timeNs(func() { mux.CheckLink(series, capacity, mux.CheckConfig{}) }))/1e3)
			})
		}
		rec.End(root)
	}
	res.setP50("mux.check_link_us_p50", checkUs)

	runner := engine.NewRunner(1)
	for t := 0; ctx.Err() == nil && t < reoptTimelines; t++ {
		n, scheme, dcfg := env.timeline(t)
		op := int64(1_000_000 + t)
		root := rec.Start(op, span.NoParent, "timeline")
		var err error
		rec.Do(op, root, "dynamics.Run", func() { _, err = dynamics.Run(ctx, runner, n.g, n.base, scheme, dcfg) })
		rec.End(root)
		res.Attempted += reoptEpochs
		if err != nil {
			res.fail("reopt_loop: traced timeline %d: %v", t, err)
		}
	}
	return cycleMs, nil
}

// busiestLink returns the measurement series of the aggregates crossing
// the placement's most loaded link, and that link's capacity.
func busiestLink(g *graph.Graph, r *core.Result, inputs []core.AggregateInput) ([][]float64, float64) {
	p := r.Placement
	loads := p.LinkLoads()
	best := graph.LinkID(-1)
	var bestUtil float64
	for id, load := range loads {
		if u := load / g.Link(graph.LinkID(id)).Capacity; u > bestUtil {
			best, bestUtil = graph.LinkID(id), u
		}
	}
	if best < 0 {
		return nil, 0
	}
	var series [][]float64
	for i, allocs := range p.Allocs {
		for _, a := range allocs {
			if a.Fraction > 0 && a.Path.Contains(best) {
				series = append(series, inputs[i].Series)
				break
			}
		}
	}
	return series, g.Link(best).Capacity
}
