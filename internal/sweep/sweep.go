// Package sweep is the resumable sweep orchestrator: it expands a
// declarative Grid into scenario cells, consults the persistent result
// store for cells that already ran, dispatches only the missing ones
// through the parallel engine, and checkpoints each result the moment it
// lands. A sweep killed mid-run (power loss, kill -9, ctrl-C) is rerun
// against the same store and completes without recomputing a single
// finished cell — the property the paper's ~100x100xschemes landscape
// study needs to grow toward production scale one interrupted batch at a
// time.
package sweep

import (
	"context"
	"errors"
	"fmt"

	"lowlat/internal/engine"
	"lowlat/internal/graph"
	"lowlat/internal/routing"
	"lowlat/internal/store"
	"lowlat/internal/tm"
	"lowlat/internal/tmgen"
)

// Cell is one planned unit of sweep work with its resolved inputs and
// precomputed store key.
type Cell struct {
	Key  store.CellKey
	Meta store.Meta
	// Spec re-addresses the cell by request coordinates (net term, seed,
	// scheme, operating point) — what Run sends to a remote placement
	// backend instead of the in-process Scenario.
	Spec store.CellSpec
	// Scenario holds the built graph, generated matrix and configured
	// scheme.
	Scenario engine.Scenario
}

// NewCell builds the cell for one scheme on net's (seed, load, locality)
// matrix m under its content key — the one constructor a sweep plan and
// the serving backend's on-demand placement share, so a cell computed
// through either carries the same Meta and solver tag. m may be nil for
// a planned cell the store already holds.
func NewCell(net NetSpec, seed int64, scheme routing.Scheme, load, locality float64, key store.CellKey, m *tm.Matrix) Cell {
	return Cell{
		Key: key,
		Meta: store.Meta{
			Net:      net.Name,
			Class:    net.Class,
			Seed:     seed,
			Scheme:   scheme.Name(),
			Headroom: routing.Headroom(scheme),
			Load:     load,
			Locality: locality,
		},
		Spec: store.CellSpec{
			Net:      net.Term,
			Seed:     seed,
			Scheme:   routing.SpecName(scheme),
			Headroom: routing.Headroom(scheme),
			Load:     load,
			Locality: locality,
		},
		Scenario: engine.Scenario{
			Tag:    fmt.Sprintf("%s/s%d/%s", net.Name, seed, scheme.Name()),
			Graph:  net.Graph,
			Matrix: m,
			Scheme: scheme,
		},
	}
}

// Solve places the cell on cache and summarises the placement into the
// result stored under the cell's key; a solver error carries the cell's
// tag. It is the one solve step behind both Run's in-process dispatch
// and the serving backend's computed places.
func (c Cell) Solve(cache *routing.SolverCache) (store.Result, error) {
	p, err := cache.Place(c.Scenario.Scheme, c.Scenario.Graph, c.Scenario.Matrix)
	if err != nil {
		return store.Result{}, fmt.Errorf("%s: %w", c.Scenario.Tag, err)
	}
	return store.Result{Key: c.Key, Meta: c.Meta, Metrics: store.MetricsOf(p)}, nil
}

// Placer dispatches one cell computation by request coordinates. It is
// the seam Run farms missing cells out through: any placement backend —
// a local engine, one remote daemon, a consistent-hash cluster of them —
// satisfies it (the full interface lives in internal/backend; this is
// the one method a sweep needs).
type Placer interface {
	Place(ctx context.Context, spec store.CellSpec) (store.Result, error)
}

// GenerateMatrix builds the calibrated traffic matrix for one (graph,
// seed) pair at a (load, locality) operating point exactly the way sweep
// planning does, so cells computed elsewhere (the serving daemon's
// /v1/place path) land on the same content keys a sweep produces. When
// st is a writable store, the matrix digest is memoized under
// store.MemoKeyFor so later plans can derive this cell's keys without
// re-running the calibration solves; generation is deterministic in
// (graph, seed, load, locality), which is what makes the memo sound.
func GenerateMatrix(g *graph.Graph, seed int64, load, locality float64, st *store.Store) (*tm.Matrix, error) {
	res, _, err := GenerateMatrixCached(g, seed, load, locality, st, nil)
	if err != nil {
		return nil, err
	}
	return res.Matrix, nil
}

// GenerateMatrixCached is GenerateMatrix with the calibration solves run
// on cache — the PathCache of g that the cell's placement solve will use
// next, so the two stages enumerate each pair's paths once between them.
// A nil cache is private to the call; the matrix is the same either way.
// It returns the whole generation result (matrix, scale, calibrated
// peak) and the matrix's digest (store.MatrixDigest), hashed once for
// the memo and for the caller's cell keys (store.KeyForDigest). This is
// the one recipe that turns (seed, load, locality) into a matrix.
func GenerateMatrixCached(g *graph.Graph, seed int64, load, locality float64, st *store.Store, cache *routing.PathCache) (*tmgen.Result, store.Digest, error) {
	res, err := tmgen.Generate(g, tmgen.Config{
		Seed:          seed,
		Locality:      locality,
		NoLocality:    locality == 0,
		TargetMaxUtil: load,
		Cache:         cache,
	})
	if err != nil {
		return nil, 0, err
	}
	md := store.MatrixDigest(g, res.Matrix)
	if st != nil && !st.ReadOnly() {
		if err := st.PutMemo(store.MemoKeyFor(g, seed, load, locality), md); err != nil {
			return nil, 0, err
		}
	}
	return res, md, nil
}

// Plan expands a grid into cells in deterministic nested order (net x
// seed x scheme-point), regenerating every (net, seed) matrix. Matrix
// generation — the calibration LP solves — fans out through a pool of
// the given width, but the returned order never depends on it. Run uses
// the store-aware planner instead, which consults the calibration memo
// to skip regeneration for fully-stored groups.
func Plan(ctx context.Context, grid Grid, workers int) ([]Cell, error) {
	cells, _, err := planWithStore(ctx, grid, workers, nil, false, routing.NewSolverCache())
	return cells, err
}

// planStats counts what planning cost and what the memo saved.
type planStats struct {
	// generated counts (net, seed) matrices that went through the
	// calibration solves this plan.
	generated int
	// memoHits counts (net, seed) groups whose keys came from the
	// calibration memo with every cell already stored, skipping
	// generation entirely.
	memoHits int
}

// planWithStore is Plan with a store consult. For each (net, seed) group
// it first tries the store's calibration memo: a memoized matrix digest
// yields every cell key in the group without generating the matrix, and
// when all of those keys are already stored (and the caller is not
// recomputing), the group's cells are planned with a nil Scenario.Matrix
// — they can never reach the engine, so the matrix is dead weight. Any
// group with a memo miss or a missing cell regenerates its matrix (and
// refreshes the memo), calibrating on solver's PathCache for the net — the
// cache Run then solves the group's cells on. Cell order is identical
// either way.
func planWithStore(ctx context.Context, grid Grid, workers int, st *store.Store, skipStored bool, solver *routing.SolverCache) ([]Cell, planStats, error) {
	var stats planStats
	grid = grid.withDefaults()
	if err := grid.validate(); err != nil {
		return nil, stats, err
	}
	nets, err := resolveNets(grid)
	if err != nil {
		return nil, stats, err
	}
	schemes, err := schemePoints(grid)
	if err != nil {
		return nil, stats, err
	}

	type job struct {
		net  int
		seed int64
	}
	var jobs []job
	for i := range nets {
		for _, seed := range grid.Seeds {
			jobs = append(jobs, job{net: i, seed: seed})
		}
	}

	// Memo pass: groups whose every cell is already stored keep their
	// memoized matrix digest and skip generation; the rest take the
	// digest of the matrix generated below.
	digests := make([]store.Digest, len(jobs))
	var genJobs []int
	for ji, j := range jobs {
		if st == nil || !skipStored {
			genJobs = append(genJobs, ji)
			continue
		}
		n := nets[j.net]
		md, ok := st.Memo(store.MemoKeyFor(n.Graph, j.seed, grid.Load, grid.Locality))
		if ok {
			allStored := true
			for _, scheme := range schemes {
				if _, found := st.Get(store.KeyForDigest(n.Graph, md, scheme)); !found {
					allStored = false
					break
				}
			}
			if allStored {
				digests[ji] = md
				stats.memoHits++
				continue
			}
		}
		genJobs = append(genJobs, ji)
	}

	// One calibrated matrix per remaining (net, seed), generated
	// concurrently; a memo-hit group keeps a nil matrix.
	type generated struct {
		m  *tm.Matrix
		md store.Digest
	}
	mats := make([]*tm.Matrix, len(jobs))
	gen, err := engine.Map(ctx, workers, genJobs,
		func(_ context.Context, _ int, ji int) (generated, error) {
			j := jobs[ji]
			g := nets[j.net].Graph
			res, md, err := GenerateMatrixCached(g, j.seed, grid.Load, grid.Locality, st, solver.ForGraph(g))
			if err != nil {
				return generated{}, fmt.Errorf("%s seed %d: %w", nets[j.net].Name, j.seed, err)
			}
			return generated{res.Matrix, md}, nil
		})
	if err != nil {
		return nil, stats, err
	}
	for gi, ji := range genJobs {
		mats[ji], digests[ji] = gen[gi].m, gen[gi].md
	}
	stats.generated = len(genJobs)

	var cells []Cell
	for ji, j := range jobs {
		n := nets[j.net]
		for _, scheme := range schemes {
			key := store.KeyForDigest(n.Graph, digests[ji], scheme)
			cells = append(cells, NewCell(n, j.seed, scheme, grid.Load, grid.Locality, key, mats[ji]))
		}
	}
	return cells, stats, nil
}

// Report summarizes one orchestrator run.
type Report struct {
	// Planned is the grid's total cell count.
	Planned int
	// Reused cells were already in the store and never reached the
	// engine.
	Reused int
	// Computed cells went through a placement solve this run.
	Computed int
	// Failed cells errored; their errors are joined into Run's returned
	// error.
	Failed int
	// Generated counts (net, seed) matrices that went through the
	// calibration solves this run.
	Generated int
	// MemoHits counts (net, seed) groups whose cell keys came from the
	// store's calibration memo with every cell already stored, so the
	// group skipped matrix regeneration entirely — what makes resuming a
	// finished (or nearly finished) sweep near-free.
	MemoHits int
	// SkippedLines reports unparseable store lines tolerated when the
	// store was opened (a torn tail after a kill), surfaced here so
	// resuming callers see the recovery happen.
	SkippedLines int
}

// Options tunes Run.
type Options struct {
	// Workers bounds the engine pool (0 = one per CPU). With a Backend
	// set it bounds concurrent outstanding Place dispatches instead.
	Workers int
	// Recompute ignores store hits and re-places every cell (results
	// still checkpoint, superseding the stored ones).
	Recompute bool
	// Backend, when non-nil, farms missing cells out by request
	// coordinates instead of solving them in-process — a sweep pointed at
	// a remote daemon (or a consistent-hash cluster of them) becomes a
	// driver for that cluster's compute, and every returned result still
	// checkpoints into the local store so the sweep stays resumable.
	// Matrices are still generated locally (planning needs the content
	// keys to know which cells are missing); only the placement solves
	// move.
	Backend Placer
	// Observer, when non-nil, receives every result the sweep touches —
	// reused cells during planning and computed cells right after they
	// checkpoint. It is the incremental-retrain hook for a predictive
	// index (predict.Index and backend.Predictive both implement it):
	// one Run leaves the observer trained on the whole swept grid,
	// however much of it a previous run already covered. Reused-cell
	// calls arrive from the planning loop, computed-cell calls from the
	// checkpoint loop, never concurrently.
	Observer interface{ Observe(r store.Result) }
	// OnPlace, when non-nil, is called from a worker goroutine just
	// before each placement solve starts — the precise count of engine
	// invocations. Progress meters and interruption tests hang off it;
	// cancelling the run context inside OnPlace aborts the cell before
	// it computes.
	OnPlace func(c Cell)
}

// Run plans the grid, skips cells the store already holds, places the
// missing ones through the engine and checkpoints every result as it
// lands. The returned report counts reused versus computed cells; on
// cancellation or per-cell failure the error is returned *after* all
// landed results were persisted, so a rerun resumes instead of starting
// over.
func Run(ctx context.Context, st *store.Store, grid Grid, opts Options) (*Report, error) {
	// One solver cache for the run: matrix calibration during planning and
	// the placement solves after it share each network's paths.
	cache := routing.NewSolverCache()
	cells, stats, err := planWithStore(ctx, grid, opts.Workers, st, !opts.Recompute, cache)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Planned:      len(cells),
		Generated:    stats.generated,
		MemoHits:     stats.memoHits,
		SkippedLines: st.Skipped(),
	}

	var missing []Cell
	for _, c := range cells {
		if !opts.Recompute {
			if r, ok := st.Get(c.Key); ok {
				rep.Reused++
				if opts.Observer != nil {
					opts.Observer.Observe(r)
				}
				continue
			}
		}
		missing = append(missing, c)
	}
	if len(missing) == 0 {
		return rep, nil
	}

	// Cells go through engine.Stream against one shared solver cache (the
	// same fan-out shape Runner gives the figure drivers), with the
	// OnPlace probe ahead of each solve so the engine-invocation count is
	// observable and a cancellation between cells skips the solve. With a
	// Backend set the solve is one Place dispatch instead — same pool,
	// same ordering guarantees, but the engine work happens wherever the
	// backend routes it. A return cancels the cells not yet started, so a
	// checkpoint failure stops the solves too.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	place := func(ctx context.Context, _ int, c Cell) (store.Result, error) {
		if opts.OnPlace != nil {
			opts.OnPlace(c)
		}
		if err := ctx.Err(); err != nil {
			return store.Result{}, err
		}
		if opts.Backend == nil {
			return c.Solve(cache)
		}
		res, err := opts.Backend.Place(ctx, c.Spec)
		if err != nil {
			return store.Result{}, fmt.Errorf("%s: %w", c.Scenario.Tag, err)
		}
		if res.Key != c.Key {
			// A backend disagreeing on content identity means its code
			// or zoo drifted from ours; checkpointing its answer under
			// our key would poison the store silently.
			return store.Result{}, fmt.Errorf("%s: backend returned key %s, planned %s (version drift?)",
				c.Scenario.Tag, res.Key, c.Key)
		}
		return res, nil
	}
	var errs []error
	for res := range engine.Stream(ctx, opts.Workers, missing, place) {
		if res.Err != nil {
			if !errors.Is(res.Err, context.Canceled) && !errors.Is(res.Err, context.DeadlineExceeded) {
				rep.Failed++
				errs = append(errs, res.Err)
			}
			continue
		}
		result := res.Value
		if err := st.Put(result); err != nil {
			// A checkpoint failure poisons resumability; stop the sweep.
			return rep, fmt.Errorf("sweep: checkpoint: %w", err)
		}
		rep.Computed++
		if opts.Observer != nil {
			opts.Observer.Observe(result)
		}
	}
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	if len(errs) > 0 {
		return rep, fmt.Errorf("sweep: %d of %d cells failed: %w", rep.Failed, rep.Planned, errors.Join(errs...))
	}
	return rep, nil
}
