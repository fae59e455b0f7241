// Package experiments reproduces every results figure of the paper. Each
// FigN function regenerates the data series behind the corresponding
// figure and renders them as a plain-text table; the figure inventory is
// indexed in the repository README.
//
// All experiments are deterministic for a given Config and run on the
// synthetic topology zoo (the reproduction's substitute for the Internet
// Topology Zoo). Every (network, matrix, scheme) placement a driver needs
// is one cell of placeGrid: recalled from the run's backend when an
// earlier figure (or an earlier run, with a persistent backend) already
// placed it, otherwise solved through internal/engine's pool on the same
// sweep.Cell path the sweep orchestrator and the serving backend use.
// Results land in fixed grid slots, so tables are byte-identical whatever
// Workers is set to and whether a cell was solved or recalled.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"lowlat/internal/engine"
	"lowlat/internal/graph"
	"lowlat/internal/metrics"
	"lowlat/internal/routing"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
	"lowlat/internal/tm"
	"lowlat/internal/topo"
)

// Config scales the experiment suite. The zero value gives a "quick"
// configuration that preserves every qualitative shape; raise
// TMsPerTopology toward the paper's 100 for smoother percentiles.
type Config struct {
	// TMsPerTopology is the number of independent traffic matrices per
	// network (default 3; paper: 100).
	TMsPerTopology int
	// Seed offsets all random generation.
	Seed int64
	// MaxNetworks caps how many zoo networks are used (0 = all 116).
	// Networks are kept in zoo order, so a cap keeps the class mix.
	MaxNetworks int
	// TargetMaxUtil is the scaled load level (default 0.77: the paper's
	// "traffic can increase by 30%" calibration).
	TargetMaxUtil float64
	// Locality is the traffic-locality parameter ℓ (default 1).
	Locality float64
	// MaxNodes skips networks larger than this many nodes (0 = no
	// limit); the heavyweight LP experiments use it.
	MaxNodes int
	// NetworkFilter, when non-nil, keeps only matching networks. Tests
	// and benches use it to pick a class-balanced subset.
	NetworkFilter func(Network) bool
	// Workers bounds the engine's worker pool (0 = one per CPU; 1 runs
	// scenarios sequentially). Output is identical at every width.
	Workers int
	// Context, when non-nil, cancels long experiment runs (the CLI wires
	// its -timeout flag here). Nil means context.Background().
	Context context.Context
	// Backend holds every placement cell the figure drivers use (fig3,
	// fig4, fig7's ranking, fig8, fig16-fig20): each cell is checkpointed
	// as it lands, and cells the backend already holds are recalled
	// instead of re-placed. Nil means an in-memory backend private to the
	// run, so figures of one RunAll share their overlapping cells; a
	// *store.Store makes runs persistent and resumable. Output is
	// byte-identical whatever the backend holds.
	Backend ResultBackend
}

// ResultBackend is the slice of the placement-backend API the figure
// drivers need: recall a cell by content key, checkpoint a computed one.
// The drivers generate their own matrices (several per topology), so
// they address cells by content, never by request spec.
type ResultBackend interface {
	Lookup(k store.CellKey) (store.Result, bool)
	Put(r store.Result) error
}

func (c Config) withDefaults() Config {
	if c.TMsPerTopology <= 0 {
		c.TMsPerTopology = 3
	}
	if c.TargetMaxUtil <= 0 {
		c.TargetMaxUtil = 1 / 1.3
	}
	if c.Locality == 0 {
		c.Locality = 1
	}
	if c.Backend == nil {
		c.Backend = newMemo()
	}
	return c
}

// memo is the in-memory ResultBackend a run gets when Config.Backend is
// unset.
type memo struct {
	mu    sync.Mutex
	cells map[store.CellKey]store.Result
}

func newMemo() *memo { return &memo{cells: make(map[store.CellKey]store.Result)} }

func (b *memo) Lookup(k store.CellKey) (store.Result, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.cells[k]
	return r, ok
}

func (b *memo) Put(r store.Result) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cells[r.Key] = r
	return nil
}

// ctx resolves the run's cancellation context.
func (c Config) ctx() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background()
}

// newRunner returns the engine runner for one figure driver invocation.
// Each driver gets a fresh solver cache; scenarios within the driver share
// it across workers and schemes.
func (c Config) newRunner() *engine.Runner {
	return engine.NewRunner(c.Workers)
}

// Network is a zoo entry with its built graph and measured LLPD.
type Network struct {
	Name  string
	Class topo.Class
	Graph *graph.Graph
	LLPD  float64
}

var (
	zooOnce sync.Once
	zooNets []Network
)

// LoadZoo builds every zoo network and computes its LLPD once per process.
// Construction fans out across the CPUs; the result slice is in zoo order
// regardless.
func LoadZoo() []Network {
	zooOnce.Do(func() {
		entries := topo.Zoo()
		nets, err := engine.Map(context.Background(), 0, entries,
			func(_ context.Context, _ int, e topo.Entry) (Network, error) {
				g := e.Build()
				return Network{
					Name:  e.Name,
					Class: e.Class,
					Graph: g,
					LLPD:  metrics.LLPD(g, metrics.APAConfig{}),
				}, nil
			})
		if err != nil {
			// Zoo construction is infallible; a failure here is a bug.
			panic(err)
		}
		zooNets = nets
	})
	return zooNets
}

// networks returns the zoo filtered by the config's caps.
func (c Config) networks() []Network {
	all := LoadZoo()
	var out []Network
	for _, n := range all {
		if c.MaxNodes > 0 && n.Graph.NumNodes() > c.MaxNodes {
			continue
		}
		if c.NetworkFilter != nil && !c.NetworkFilter(n) {
			continue
		}
		out = append(out, n)
		if c.MaxNetworks > 0 && len(out) >= c.MaxNetworks {
			break
		}
	}
	return out
}

// matrixCache memoizes generated traffic matrices across figure drivers:
// calibrating a matrix to a target load costs several MinMax solves, and
// most figures evaluate several schemes on identical matrices. Entries are
// keyed per matrix, by the generator seed, so a run with fewer matrices
// per topology reuses a prefix of a larger run's, and once-guarded so
// concurrent workers asking for the same matrix calibrate it exactly once.
var (
	matrixMu    sync.Mutex
	matrixCache = make(map[matrixKey]*matrixEntry)
)

type matrixKey struct {
	name     string
	seed     int64
	locality float64
	load     float64
}

type matrixEntry struct {
	once sync.Once
	m    *tm.Matrix
	err  error
}

// matrix generates (or recalls) the config's i-th traffic matrix for one
// network, calibrating on cache (the run's PathCache for the network, so
// the placements that follow start warm; nil means a private one). It is
// sweep's generation at the seed Seed + hashName(name) + i.
func (c Config) matrix(n Network, i int, cache *routing.PathCache) (*tm.Matrix, error) {
	key := matrixKey{
		name:     n.Name,
		seed:     c.Seed + int64(hashName(n.Name)) + int64(i),
		locality: c.Locality,
		load:     c.TargetMaxUtil,
	}
	matrixMu.Lock()
	e, ok := matrixCache[key]
	if !ok {
		e = &matrixEntry{}
		matrixCache[key] = e
	}
	matrixMu.Unlock()
	e.once.Do(func() {
		e.m, e.err = sweep.GenerateMatrixCached(n.Graph, key.seed, key.load, key.locality, nil, cache)
	})
	return e.m, e.err
}

// matrices returns the config's TMsPerTopology matrices for one network.
func (c Config) matrices(n Network, cache *routing.PathCache) ([]*tm.Matrix, error) {
	ms := make([]*tm.Matrix, c.TMsPerTopology)
	for i := range ms {
		m, err := c.matrix(n, i, cache)
		if err != nil {
			return nil, err
		}
		ms[i] = m
	}
	return ms, nil
}

func hashName(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h % 100000
}

// netMatrices resolves every network's matrix set through the pool, so
// calibration (several MinMax solves per matrix) parallelizes across
// networks before the placement scenarios are even enumerated.
func netMatrices(ctx context.Context, r *engine.Runner, cfg Config, nets []Network) ([][]*tm.Matrix, error) {
	return engine.Map(ctx, r.Workers(), nets,
		func(_ context.Context, _ int, n Network) ([]*tm.Matrix, error) {
			ms, err := cfg.matrices(n, r.Cache().ForGraph(n.Graph))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", n.Name, err)
			}
			return ms, nil
		})
}

// placeGrid places every scheme on every network's matrices, mats[i] being
// nets[i]'s, and returns out[scheme][net][tm]. Every figure cell goes
// through it as a sweep.Cell under its content key: cells cfg.Backend
// already holds are recalled, and the rest are solved on r's shared
// solver cache through the pool and checkpointed the moment they land,
// so an interrupted figure run rerun against the same backend computes
// only what is missing. Results are identical either way.
func placeGrid(ctx context.Context, r *engine.Runner, cfg Config, nets []Network, mats [][]*tm.Matrix, schemes []routing.Scheme) ([][][]store.Metrics, error) {
	out := make([][][]store.Metrics, len(schemes))
	var missing []sweep.Cell
	var slots []*store.Metrics
	for si, s := range schemes {
		out[si] = make([][]store.Metrics, len(nets))
		for ni, n := range nets {
			out[si][ni] = make([]store.Metrics, len(mats[ni]))
			for ti, m := range mats[ni] {
				c := sweep.Cell{
					Key: store.KeyFor(n.Graph, m, s),
					Meta: store.Meta{
						Net:      n.Name,
						Class:    string(n.Class),
						Seed:     cfg.Seed,
						TM:       ti,
						Scheme:   s.Name(),
						Headroom: routing.Headroom(s),
						Load:     cfg.TargetMaxUtil,
						Locality: cfg.Locality,
					},
					Scenario: engine.Scenario{Tag: n.Name + "/" + s.Name(), Graph: n.Graph, Matrix: m, Scheme: s},
				}
				if hit, ok := cfg.Backend.Lookup(c.Key); ok {
					out[si][ni][ti] = hit.Metrics
					continue
				}
				missing = append(missing, c)
				slots = append(slots, &out[si][ni][ti])
			}
		}
	}

	// Stream rather than collect, so every solved cell is checkpointed
	// even when a later one fails or the context dies mid-grid.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	solve := func(_ context.Context, _ int, c sweep.Cell) (store.Result, error) {
		return c.Solve(r.Cache())
	}
	var firstErr error
	firstErrIdx := -1
	for res := range engine.Stream(ctx, r.Workers(), missing, solve) {
		if res.Err != nil {
			if errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded) {
				continue
			}
			if firstErrIdx < 0 || res.Index < firstErrIdx {
				firstErr, firstErrIdx = res.Err, res.Index
			}
			continue
		}
		*slots[res.Index] = res.Value.Metrics
		if err := cfg.Backend.Put(res.Value); err != nil {
			return nil, fmt.Errorf("experiments: checkpoint: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// placeNets is placeGrid over each network's config matrices.
func placeNets(ctx context.Context, r *engine.Runner, cfg Config, nets []Network, schemes []routing.Scheme) ([][][]store.Metrics, error) {
	mats, err := netMatrices(ctx, r, cfg, nets)
	if err != nil {
		return nil, err
	}
	return placeGrid(ctx, r, cfg, nets, mats, schemes)
}

// stretches projects cells onto their latency stretch.
func stretches(cells []store.Metrics) []float64 {
	out := make([]float64, len(cells))
	for i, c := range cells {
		out[i] = c.Stretch
	}
	return out
}

// sortByLLPD orders network indices by ascending LLPD (the x-axis of
// Figures 3, 4, 8 and 19).
func sortByLLPD(nets []Network) []int {
	idx := make([]int, len(nets))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return nets[idx[a]].LLPD < nets[idx[b]].LLPD })
	return idx
}
