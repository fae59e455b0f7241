package workload

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"lowlat/bench/internal/span"
	"lowlat/bench/internal/stat"
	"lowlat/internal/backend"
	"lowlat/internal/engine"
	"lowlat/internal/graph"
	"lowlat/internal/obs"
	"lowlat/internal/routing"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
	"lowlat/internal/tm"
)

// place_cold: one caller, backend.Local.Place over a fresh store on
// never-seen specs — the exact path one miss pays. Twelve classes (three
// nets x four schemes) are visited in a fixed round-robin with a fresh
// matrix seed per operation, and a run always finishes its round, so the
// class mix is identical whatever the speed.
var (
	placeNets    = []string{"ring-16", "wheel-16", "tree-2x4"}
	placeSchemes = []string{"sp", "b4", "minmax", "ldr"}
)

const placeClasses = 12

// placeSpec is operation k's request: the class by position in the
// round, the matrix seed unique to (run seed, k).
func placeSpec(seed int64, k int) store.CellSpec {
	c := k % placeClasses
	return store.CellSpec{
		Net:      placeNets[c/len(placeSchemes)],
		Seed:     seed*1_000_003 + int64(k) + 1,
		Scheme:   placeSchemes[c%len(placeSchemes)],
		Locality: 1,
	}.Normalized()
}

// placeEnv is one prepared store + backend.
type placeEnv struct {
	st    *store.Store
	local *backend.Local
}

func (e placeEnv) close() {
	if e.st != nil {
		e.st.Close()
	}
}

// warmSpec is the warm-up request for one net: a long-lived process has
// each topology's path cache built, and a miss in production pays the
// matrix and the solve, not the first-ever KSP enumeration.
func warmSpec(net string) store.CellSpec {
	return store.CellSpec{Net: net, Seed: -1, Scheme: "ldr", Locality: 1}.Normalized()
}

func preparePlace(ctx context.Context, cfg Config) (placeEnv, error) {
	dir, err := scratchDir(cfg, "place_cold")
	if err != nil {
		return placeEnv{}, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return placeEnv{}, err
	}
	env := placeEnv{st: st, local: backend.NewLocal(st, backend.LocalOptions{Workers: 1})}
	for _, net := range placeNets {
		if _, err := env.local.Place(ctx, warmSpec(net)); err != nil {
			env.close()
			return placeEnv{}, fmt.Errorf("place_cold: warm-up %s: %w", net, err)
		}
	}
	return env, nil
}

// PlaceCold runs the place_cold workload.
func PlaceCold(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Trace {
		return placeColdTraced(ctx, cfg)
	}
	res := newResult()
	env, err := timedSetup(cfg, res, func() (placeEnv, error) { return preparePlace(ctx, cfg) }, placeEnv.close)
	if err != nil {
		return nil, err
	}
	defer env.close()

	results, lat, use := placeRounds(ctx, cfg, res, time.Duration(cfg.Seconds*float64(time.Second)),
		func(ctx context.Context, _ int, spec store.CellSpec) (store.Result, error) {
			return env.local.Place(ctx, spec)
		})
	ops := len(lat)
	res.reportUsage(use, false)

	// Oracle: every result is in the store under its key, and the first
	// round replayed step by step through the layers' public functions
	// on a second fresh store gives the same bytes.
	for _, r := range results {
		got, ok := env.st.Get(r.Key)
		res.check(ok && got == r, "place_cold: cell %s not readable back from the store", r.Key)
	}
	dir, err := scratchDir(cfg, "place_cold_replay")
	if err != nil {
		return nil, err
	}
	replaySt, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer replaySt.Close()
	d := newDecomposed(replaySt, nil)
	for k := 0; k < min(placeClasses, len(results)); k++ {
		want, err := d.place(int64(k), placeSpec(cfg.Seed, k))
		if err != nil {
			return nil, err
		}
		res.check(sameCell(want, results[k]), "place_cold: op %d: Local.Place and the decomposed replay disagree", k)
	}
	logf(cfg, "place_cold: %d ops in %.2fs, %d computed", ops, use.wall.Seconds(), env.local.Stats().Computed)
	return res, nil
}

// placeRounds runs whole rounds of the twelve classes for at least d,
// timing each operation. A failed Place counts as a failed operation.
func placeRounds(ctx context.Context, cfg Config, res *Result, d time.Duration,
	place func(ctx context.Context, k int, spec store.CellSpec) (store.Result, error)) ([]store.Result, []int64, usage) {
	var results []store.Result
	var lat []int64
	m := startMeter()
	for k := 0; ctx.Err() == nil && m.elapsed() < d; {
		for c := 0; c < placeClasses; c, k = c+1, k+1 {
			spec := placeSpec(cfg.Seed, k)
			t0 := time.Now()
			r, err := place(ctx, k, spec)
			lat = append(lat, time.Since(t0).Nanoseconds())
			res.Attempted++
			if err != nil {
				res.fail("place_cold: op %d (%s): %v", k, spec, err)
			}
			results = append(results, r)
		}
		m.round(placeClasses, lat[len(lat)-placeClasses:])
	}
	return results, lat, m.stop()
}

// sameCell reports whether two independent computations of one cell
// agree: byte-identical canonical form (store.MarshalResult), except for
// b4. B4.Place collects each aggregate's allocations by ranging over a
// map and orders them by delay alone, so equal-delay paths — the two
// ways round a ring — come out in either order, the stretch sum is taken
// in either order, and its last bit differs between identical runs about
// one time in ten (internal/routing/b4.go; found by this oracle). A
// workload may not fail at random, so b4's floats are compared to 1e-9
// until that is fixed.
func sameCell(a, b store.Result) bool {
	if a.Meta.Scheme == "b4" && a.Key == b.Key && a.Meta == b.Meta {
		x, y := a.Metrics, b.Metrics
		return x.Fits == y.Fits && near(x.Congested, y.Congested) && near(x.Stretch, y.Stretch) &&
			near(x.MaxStretch, y.MaxStretch) && near(x.MaxUtil, y.MaxUtil)
	}
	ab, err1 := store.MarshalResult(a)
	bb, err2 := store.MarshalResult(b)
	return err1 == nil && err2 == nil && bytes.Equal(ab, bb)
}

func near(x, y float64) bool {
	return math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
}

// decomposed performs a cold Place step by step through each layer's
// public functions — what backend.Local.Place does inside — recording a
// span around each step.
type decomposed struct {
	st     *store.Store
	solver *routing.SolverCache
	rec    *span.Recorder
}

func newDecomposed(st *store.Store, rec *span.Recorder) *decomposed {
	return &decomposed{st: st, solver: routing.NewSolverCache(), rec: rec}
}

func (d *decomposed) place(op int64, spec store.CellSpec) (store.Result, error) {
	root := d.rec.Start(op, span.NoParent, "place")
	defer d.rec.End(root)
	scheme, err := backend.CheckSpec(spec)
	if err != nil {
		return store.Result{}, err
	}
	var net sweep.NetSpec
	d.rec.Do(op, root, "sweep.ResolveNet", func() { net, err = sweep.ResolveNet(spec.Net) })
	if err != nil {
		return store.Result{}, err
	}
	g := net.Graph
	var m *tm.Matrix
	d.rec.Do(op, root, "sweep.GenerateMatrix", func() {
		m, err = sweep.GenerateMatrix(g, spec.Seed, spec.Load, spec.Locality, d.st)
	})
	if err != nil {
		return store.Result{}, err
	}
	var key store.CellKey
	d.rec.Do(op, root, "store.KeyFor", func() { key = store.KeyFor(g, m, scheme) })
	var hit bool
	var res store.Result
	d.rec.Do(op, root, "store.Get", func() { res, hit = d.st.Get(key) })
	if hit {
		return res, nil
	}
	var p *routing.Placement
	d.rec.Do(op, root, "routing.Place", func() { p, err = d.solver.Place(scheme, g, m) })
	if err != nil {
		return store.Result{}, err
	}
	res = store.Result{Key: key, Meta: store.Meta{
		Net:      net.Name,
		Class:    net.Class,
		Seed:     spec.Seed,
		Scheme:   scheme.Name(),
		Headroom: routing.Headroom(scheme),
		Load:     spec.Load,
		Locality: spec.Locality,
	}}
	d.rec.Do(op, root, "store.MetricsOf", func() { res.Metrics = store.MetricsOf(p) })
	d.rec.Do(op, root, "store.Put", func() { err = d.st.Put(res) })
	return res, err
}

// placeColdTraced is the traced run: the decomposed pass with spans,
// then the same specs through Local.Place on a second fresh store (the
// untraced pass), then the layer probes.
func placeColdTraced(ctx context.Context, cfg Config) (*Result, error) {
	res := newResult()
	rec := span.NewRecorder()
	dir, err := scratchDir(cfg, "place_cold_traced")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	d := newDecomposed(st, nil)
	for _, net := range placeNets {
		if _, err := d.place(-1, warmSpec(net)); err != nil {
			return nil, err
		}
	}
	d.rec = rec
	half := time.Duration(cfg.Seconds * 0.4 * float64(time.Second))
	traced, tracedLat, _ := placeRounds(ctx, cfg, res, half,
		func(_ context.Context, k int, spec store.CellSpec) (store.Result, error) {
			return d.place(int64(k), spec)
		})
	spans := rec.Spans()
	if err := writeTrace(cfg, "place_cold", spans); err != nil {
		return nil, err
	}

	// The same specs, in the same order, through Local.Place, each with
	// an obs.Trace so the program's own stage timings can be read back.
	env, err := preparePlace(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer env.close()
	stages := make(map[string][]int64)
	localLat := make([]int64, 0, len(traced))
	m := startMeter()
	for k := range traced {
		tr := obs.NewTrace(fmt.Sprintf("op-%d", k))
		t0 := time.Now()
		r, err := env.local.Place(obs.WithTrace(ctx, tr), placeSpec(cfg.Seed, k))
		localLat = append(localLat, time.Since(t0).Nanoseconds())
		res.Attempted++
		if err != nil {
			res.fail("place_cold: op %d: %v", k, err)
			continue
		}
		res.check(sameCell(r, traced[k]), "place_cold: op %d: Local.Place and the decomposed pass disagree", k)
		for _, s := range tr.Stages() {
			stages[s.Stage] = append(stages[s.Stage], s.DurNS)
		}
		if (k+1)%placeClasses == 0 {
			m.round(placeClasses, localLat[len(localLat)-placeClasses:])
		}
	}
	ops := len(localLat)
	res.reportUsage(m.stop(), true)
	res.setTail("lat_ms_p90", ms(localLat), 0.90)
	res.setTail("lat_ms_p99", ms(localLat), 0.99)
	res.setN("trace.overhead_ratio", stat.Median(ms(tracedLat))/stat.Median(ms(localLat)), ops)
	overhead := make([]float64, ops)
	for k := range overhead {
		overhead[k] = float64(localLat[k]-tracedLat[k]) / 1e3
	}
	res.setP50("backend.local_overhead_us_p50", overhead)
	res.setP50("backend.stage_matrix_ms_p50", ms(stages[obs.StageMatrix]))
	res.setP50("backend.stage_solve_ms_p50", ms(stages[obs.StageSolve]))
	res.setP50("backend.stage_store_write_us_p50", us(stages[obs.StageStoreWrite]))
	bs := env.local.Stats()
	res.set("backend.store_hits", float64(bs.StoreHits))
	res.set("backend.memo_hits", float64(bs.MemoHits))
	res.set("backend.computed", float64(bs.Computed))
	res.set("backend.rejected", float64(bs.Rejected))
	res.set("store.skipped_lines", float64(env.st.Skipped()))

	// Per-layer view of the decomposed pass.
	agg := res.reportTrace(spans)
	byName := make(map[string][]int64)
	solveBy := make(map[string][]int64)
	for _, s := range spans {
		if s.Parent == span.NoParent {
			continue
		}
		byName[s.Name] = append(byName[s.Name], s.Duration())
		if s.Name == "routing.Place" {
			scheme := placeSchemes[int(s.Op)%len(placeSchemes)]
			solveBy[scheme] = append(solveBy[scheme], s.Duration())
		}
	}
	res.setP50("tmgen.generate_ms_p50", ms(byName["sweep.GenerateMatrix"]))
	res.setTail("tmgen.generate_ms_p90", ms(byName["sweep.GenerateMatrix"]), 0.90)
	res.setP50("routing.solve_ms_p50", ms(byName["routing.Place"]))
	res.setTail("routing.solve_ms_p90", ms(byName["routing.Place"]), 0.90)
	for _, scheme := range placeSchemes {
		res.setP50("routing.solve_ms_p50."+scheme, ms(solveBy[scheme]))
	}
	res.setP50("store.keyfor_us_p50", us(byName["store.KeyFor"]))
	res.setP50("sweep.resolve_net_us_p50", us(byName["sweep.ResolveNet"]))
	res.setP50("store.put_us_p50", us(byName["store.Put"]))
	res.setP50("store.get_ns_p50", scale(byName["store.Get"], 1))
	if agg.RootNs > 0 {
		res.set("tmgen.share", float64(agg.SelfNs["sweep.GenerateMatrix"])/float64(agg.RootNs))
		res.set("routing.share", float64(agg.SelfNs["routing.Place"])/float64(agg.RootNs))
	}
	// The decomposed spans plus unaccounted must sum to the ops' wall
	// time: self times of a tree add up to its root.
	var sum int64
	for _, name := range sortedKeys(agg.SelfNs) {
		sum += agg.SelfNs[name]
	}
	res.check(sum+agg.UnaccountedNs == agg.RootNs,
		"place_cold: spans (%d ns) + unaccounted (%d ns) != ops' wall time (%d ns)", sum, agg.UnaccountedNs, agg.RootNs)

	if err := placeProbes(ctx, cfg, res); err != nil {
		return nil, err
	}
	logf(cfg, "place_cold: traced %d ops, tmgen.share %.3f + routing.share %.3f = %.3f",
		len(traced), res.Metrics["tmgen.share"].Value, res.Metrics["routing.share"].Value,
		res.Metrics["tmgen.share"].Value+res.Metrics["routing.share"].Value)
	return res, nil
}

// placeProbes times the layers below backend.Local one call at a time.
func placeProbes(ctx context.Context, cfg Config, res *Result) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var kspUs, fpUs, warmOverCold []float64
	var runs, pivots, grows, solves int
	for ni, name := range placeNets {
		net, err := sweep.ResolveNet(name)
		if err != nil {
			return err
		}
		g := net.Graph
		// graph: k shortest paths over seeded pairs, and the fingerprint
		// every store-hit path pays.
		for i := 0; i < 12; i++ {
			src := graph.NodeID(rng.Intn(g.NumNodes()))
			dst := graph.NodeID(rng.Intn(g.NumNodes()))
			if src == dst {
				continue
			}
			var paths int
			ns := timeNs(func() { paths = len(graph.NewKSP(g, src, dst, nil).First(8)) })
			if paths > 0 {
				kspUs = append(kspUs, float64(ns)/1e3/float64(paths))
			}
		}
		for i := 0; i < 20; i++ {
			fpUs = append(fpUs, float64(timeNs(func() { g.Fingerprint() }))/1e3)
		}
		// routing: the same instance twice on one fresh SolverCache, and
		// the exact LP work of the two LP schemes.
		m, err := sweep.GenerateMatrix(g, cfg.Seed+int64(ni), store.DefaultLoad, 1, nil)
		if err != nil {
			return err
		}
		for _, scheme := range []routing.Scheme{routing.LatencyOpt{}, routing.MinMax{}} {
			sc := routing.NewSolverCache()
			var err1, err2 error
			cold := timeNs(func() { _, err1 = sc.Place(scheme, g, m) })
			warm := timeNs(func() { _, err2 = sc.Place(scheme, g, m) })
			if err1 != nil || err2 != nil {
				return fmt.Errorf("place_cold: probe solve on %s: %v %v", name, err1, err2)
			}
			warmOverCold = append(warmOverCold, float64(warm)/float64(cold))
			var st routing.SolveStats
			switch s := scheme.(type) {
			case routing.LatencyOpt:
				s.Cache = sc.ForGraph(g)
				_, st, err = s.PlaceWithStats(g, m)
			case routing.MinMax:
				s.Cache = sc.ForGraph(g)
				_, st, err = s.PlaceWithStats(g, m)
			}
			if err != nil {
				return err
			}
			runs, pivots, grows, solves = runs+st.LPRuns, pivots+st.LPPivots, grows+st.GrowRounds, solves+1
		}
	}
	res.setP50("graph.ksp_us_per_path", kspUs)
	res.setP50("graph.fingerprint_us_p50", fpUs)
	res.setP50("routing.warm_over_cold", warmOverCold)
	res.setN("routing.lp_runs_per_solve", float64(runs)/float64(solves), solves)
	res.setN("routing.lp_pivots_per_solve", float64(pivots)/float64(solves), solves)
	res.setN("routing.grow_rounds_per_solve", float64(grows)/float64(solves), solves)

	// engine: one no-op item per Stream call, the way Local.compute
	// dispatches a solve.
	var dispatch []float64
	for i := 0; i < 2000; i++ {
		ns := timeNs(func() {
			<-engine.Stream(ctx, 1, []int{i}, func(context.Context, int, int) (int, error) { return 0, nil })
		})
		dispatch = append(dispatch, float64(ns)/1e3)
	}
	res.setP50("engine.dispatch_us_p50", dispatch)
	return nil
}
