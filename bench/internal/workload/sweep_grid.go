package workload

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"lowlat/bench/internal/span"
	"lowlat/bench/internal/stat"
	"lowlat/internal/engine"
	"lowlat/internal/routing"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// sweep_grid: the researcher's landscape job. sweep.Run fills a fresh
// store one batch at a time — a batch is place_cold's nets x one matrix
// seed x its four schemes, so a matrix is shared by four cells and
// tmgen's share drops against place_cold — at Workers = nproc, then Run
// goes over the whole grid again on the filled store (the resume path:
// memo and store reads, no solves).
const sweepBatchCells = placeClasses

// sweepSeed is batch k's matrix seed.
func sweepSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) + 1 }

func sweepGrid(seeds ...int64) sweep.Grid {
	return sweep.Grid{Nets: placeNets, Seeds: seeds, Schemes: placeSchemes}
}

// prepareSweep opens the fresh store a sweep fills, after one discarded
// batch into a scratch store so the process is past its first-call costs.
func prepareSweep(ctx context.Context, cfg Config) (*store.Store, error) {
	warmDir, err := scratchDir(cfg, "sweep_grid_warm")
	if err != nil {
		return nil, err
	}
	warm, err := store.Open(warmDir)
	if err != nil {
		return nil, err
	}
	_, err = sweep.Run(ctx, warm, sweepGrid(-1), sweep.Options{})
	warm.Close()
	if err != nil {
		return nil, fmt.Errorf("sweep_grid: warm-up: %w", err)
	}
	dir, err := scratchDir(cfg, "sweep_grid")
	if err != nil {
		return nil, err
	}
	return store.Open(dir)
}

// exportOf renders the CSV export of the cells matching f, b4 cells set
// aside: see sameCell.
func exportOf(st *store.Store, f sweep.Filter) ([]byte, []store.Result, error) {
	var exact, b4 []store.Result
	for _, r := range sweep.Query(st, f) {
		if r.Meta.Scheme == "b4" {
			b4 = append(b4, r)
		} else {
			exact = append(exact, r)
		}
	}
	var buf bytes.Buffer
	err := sweep.ExportResults(&buf, exact, "csv")
	return buf.Bytes(), b4, err
}

// sameExport reports whether two stores export the cells matching their
// filters identically: byte for byte, except b4 cells to sameCell's
// tolerance.
func sameExport(a *store.Store, fa sweep.Filter, b *store.Store, fb sweep.Filter) bool {
	ab, a4, err1 := exportOf(a, fa)
	bb, b4, err2 := exportOf(b, fb)
	if err1 != nil || err2 != nil || !bytes.Equal(ab, bb) || len(a4) != len(b4) {
		return false
	}
	for i := range a4 {
		if !sameCell(a4[i], b4[i]) {
			return false
		}
	}
	return true
}

// sweepPass is the record of the fill pass.
type sweepPass struct {
	batches int
	wallNs  []int64 // per batch
	use     usage
}

// fillBatches runs whole batches through run for at least d; a batch is
// one round of the meter.
func fillBatches(ctx context.Context, cfg Config, res *Result, d time.Duration,
	run func(ctx context.Context, k int, seed int64) error) (sweepPass, error) {
	var p sweepPass
	var err error
	m := startMeter()
	for k := 0; err == nil && ctx.Err() == nil && m.elapsed() < d; k++ {
		t0 := time.Now()
		err = run(ctx, k, sweepSeed(cfg.Seed, k))
		p.wallNs = append(p.wallNs, time.Since(t0).Nanoseconds())
		p.batches++
		res.Attempted += sweepBatchCells
		m.round(sweepBatchCells, nil)
	}
	p.use = m.stop()
	return p, err
}

// SweepGrid runs the sweep_grid workload.
func SweepGrid(ctx context.Context, cfg Config) (*Result, error) {
	res := newResult()
	workers := runtime.NumCPU()
	fill := time.Duration(cfg.Seconds * 0.85 * float64(time.Second))
	var rec *span.Recorder
	var tracedLat []int64
	if cfg.Trace {
		// The decomposed pass first, on its own store, so the untraced
		// pass below can be checked against it.
		fill = time.Duration(cfg.Seconds * 0.4 * float64(time.Second))
		rec = span.NewRecorder()
		var err error
		if tracedLat, err = sweepTraced(ctx, cfg, res, rec, workers, fill); err != nil {
			return nil, err
		}
	}

	st, err := timedSetup(cfg, res,
		func() (*store.Store, error) { return prepareSweep(ctx, cfg) },
		func(st *store.Store) { st.Close() })
	if err != nil {
		return nil, err
	}
	defer st.Close()

	var generated, computed int
	pass, err := fillBatches(ctx, cfg, res, fill, func(ctx context.Context, _ int, seed int64) error {
		rep, err := sweep.Run(ctx, st, sweepGrid(seed), sweep.Options{Workers: workers})
		if err != nil {
			return err
		}
		generated, computed = generated+rep.Generated, computed+rep.Computed
		res.check(rep.Computed == sweepBatchCells && rep.Reused == 0,
			"sweep_grid: first pass over seed %d computed %d and reused %d of %d cells", seed, rep.Computed, rep.Reused, rep.Planned)
		return nil
	})
	if err != nil {
		return nil, err
	}
	cells := pass.batches * sweepBatchCells
	batchS := stat.Median(scale(pass.wallNs, 1e9))
	// One batch is one round and one operation for latency: lat_ms_p50 is
	// a 12-cell sweep job's wall time, ops_per_s its cells per second.
	res.reportUsage(pass.use, cfg.Trace)

	// Second pass: the whole grid again on the filled store.
	seeds := make([]int64, pass.batches)
	for k := range seeds {
		seeds[k] = sweepSeed(cfg.Seed, k)
	}
	before, _, err := exportOf(st, sweep.Filter{})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	rep, err := sweep.Run(ctx, st, sweepGrid(seeds...), sweep.Options{Workers: workers})
	resume := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	after, _, err := exportOf(st, sweep.Filter{})
	if err != nil {
		return nil, err
	}
	res.check(rep.Reused == cells && rep.Computed == 0 && rep.Generated == 0,
		"sweep_grid: resume pass reused %d, computed %d, generated %d of %d cells", rep.Reused, rep.Computed, rep.Generated, cells)
	res.check(bytes.Equal(before, after), "sweep_grid: CSV export changed across the resume pass")
	res.check(st.Len() == cells, "sweep_grid: store holds %d cells, want %d", st.Len(), cells)

	// Workers = 1 over the first two batches into a store of its own:
	// the export must not depend on the pool width.
	oneDir, err := scratchDir(cfg, "sweep_grid_w1")
	if err != nil {
		return nil, err
	}
	one, err := store.Open(oneDir)
	if err != nil {
		return nil, err
	}
	defer one.Close()
	head := seeds[:min(2, len(seeds))]
	t0 = time.Now()
	if _, err := sweep.Run(ctx, one, sweepGrid(head...), sweep.Options{Workers: 1}); err != nil {
		return nil, err
	}
	oneWall := time.Since(t0).Seconds()
	for _, seed := range head {
		seed := seed
		f := sweep.Filter{Seed: &seed}
		res.check(sameExport(st, f, one, f), "sweep_grid: seed %d exports differently at Workers=%d and Workers=1", seed, workers)
	}
	logf(cfg, "sweep_grid: %d batches (%d cells) in %.2fs, resume %.3fs", pass.batches, cells, pass.use.wall.Seconds(), resume)
	if !cfg.Trace {
		return res, nil
	}

	res.set("resume_s", resume)
	// Exact counts, per batch so they do not depend on how many batches
	// the time allowed; bytes per cell over the fixed two-batch store.
	res.set("sweep.generated", float64(generated)/float64(pass.batches))
	res.set("sweep.computed", float64(computed)/float64(pass.batches))
	res.set("sweep.reused", float64(rep.Reused)/float64(pass.batches))
	res.set("sweep.memo_hits", float64(rep.MemoHits)/float64(pass.batches))
	res.set("store.skipped_lines", float64(rep.SkippedLines))
	size, err := dirBytes(oneDir)
	if err != nil {
		return nil, err
	}
	res.set("bytes_per_cell", float64(size)/float64(one.Len()))
	// engine: the same two-seed grid, one Run, at nproc workers against
	// the Workers=1 run above.
	nDir, err := scratchDir(cfg, "sweep_grid_wn")
	if err != nil {
		return nil, err
	}
	nSt, err := store.Open(nDir)
	if err != nil {
		return nil, err
	}
	defer nSt.Close()
	t0 = time.Now()
	if _, err := sweep.Run(ctx, nSt, sweepGrid(head...), sweep.Options{Workers: workers}); err != nil {
		return nil, err
	}
	res.set("engine.speedup", oneWall/time.Since(t0).Seconds())
	res.set("trace.overhead_ratio", stat.Median(ms(tracedLat))/(batchS*1e3))
	spans := rec.Spans()
	res.reportTrace(spans)
	return res, writeTrace(cfg, "sweep_grid", spans)
}

// sweepTraced fills a store of its own batch by batch in decomposed
// form — sweep.Plan, then each missing cell through engine.Stream onto a
// shared SolverCache, MetricsOf, Put — with a span around every step,
// and checks each batch's export against sweep.Run's own.
func sweepTraced(ctx context.Context, cfg Config, res *Result, rec *span.Recorder, workers int, d time.Duration) ([]int64, error) {
	dir, err := scratchDir(cfg, "sweep_grid_traced")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	refDir, err := scratchDir(cfg, "sweep_grid_ref")
	if err != nil {
		return nil, err
	}
	ref, err := store.Open(refDir)
	if err != nil {
		return nil, err
	}
	defer ref.Close()

	var planS []float64
	pass, err := fillBatches(ctx, cfg, res, d, func(ctx context.Context, k int, seed int64) error {
		op := int64(k)
		root := rec.Start(op, span.NoParent, "sweep.batch")
		defer rec.End(root)
		var cells []sweep.Cell
		var err error
		planNs := timeNs(func() {
			rec.Do(op, root, "sweep.Plan", func() { cells, err = sweep.Plan(ctx, sweepGrid(seed), workers) })
		})
		if err != nil {
			return err
		}
		planS = append(planS, float64(planNs)/1e9)
		var missing []sweep.Cell
		rec.Do(op, root, "store.Get", func() {
			for _, c := range cells {
				if _, ok := st.Get(c.Key); !ok {
					missing = append(missing, c)
				}
			}
		})
		cache := routing.NewSolverCache()
		stream := rec.Start(op, root, "engine.Stream")
		defer rec.End(stream)
		for out := range engine.Stream(ctx, workers, missing, func(_ context.Context, _ int, c sweep.Cell) (store.Result, error) {
			id := rec.Start(op, stream, "routing.Place")
			p, err := cache.Place(c.Scenario.Scheme, c.Scenario.Graph, c.Scenario.Matrix)
			rec.End(id)
			if err != nil {
				return store.Result{}, err
			}
			r := store.Result{Key: c.Key, Meta: c.Meta}
			rec.Do(op, stream, "store.MetricsOf", func() { r.Metrics = store.MetricsOf(p) })
			return r, nil
		}) {
			if out.Err != nil {
				return out.Err
			}
			var err error
			rec.Do(op, stream, "store.Put", func() { err = st.Put(out.Value) })
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.setP50("sweep.plan_s", planS)

	// The first batch again through sweep.Run into a reference store: the
	// decomposed form must export the same bytes.
	seed := sweepSeed(cfg.Seed, 0)
	if _, err := sweep.Run(ctx, ref, sweepGrid(seed), sweep.Options{Workers: workers}); err != nil {
		return nil, err
	}
	res.check(sameExport(st, sweep.Filter{Seed: &seed}, ref, sweep.Filter{}), "sweep_grid: decomposed batch and sweep.Run export differently")
	return pass.wallNs, nil
}
