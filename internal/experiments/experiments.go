// Package experiments reproduces every results figure of the paper. Each
// FigN function regenerates the data series behind the corresponding
// figure and renders them as a plain-text table; the figure inventory is
// indexed in the repository README.
//
// All experiments are deterministic for a given Config and run on the
// synthetic topology zoo (the reproduction's substitute for the Internet
// Topology Zoo). Every driver fans its (network, matrix, scheme) scenario
// units out through internal/engine; results are re-collected in
// submission order, so tables are byte-identical whatever Workers is set
// to.
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
	"lowlat/internal/tm"
	"lowlat/internal/tmgen"
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
	// Backend, when non-nil, makes the landscape and headroom drivers
	// (fig3, fig4, fig8, fig19, fig20's before/after sweeps) persistent
	// and resumable: every (network, matrix, scheme) cell is checkpointed
	// as it lands, and cells the backend already holds are recalled
	// instead of re-placed. Output is byte-identical with or without a
	// backend. A bare *store.Store satisfies the interface, as does any
	// writable placement backend (backend.Local).
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
	return c
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
// once-guarded so concurrent workers asking for the same network's
// matrices calibrate them exactly once.
var (
	matrixMu    sync.Mutex
	matrixCache = make(map[matrixKey]*matrixEntry)
)

type matrixKey struct {
	name     string
	seed     int64
	count    int
	locality float64
	load     float64
}

type matrixEntry struct {
	once sync.Once
	ms   []*tm.Matrix
	err  error
}

// matrices generates (or recalls) the config's traffic matrices for one
// network, calibrating on cache (the run's PathCache for the network, so
// the placements that follow start warm; nil means a private one).
func (c Config) matrices(n Network, cache *routing.PathCache) ([]*tm.Matrix, error) {
	key := matrixKey{
		name:     n.Name,
		seed:     c.Seed,
		count:    c.TMsPerTopology,
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
		cfg := tmgen.Config{
			Seed:          c.Seed + int64(hashName(n.Name)),
			Locality:      c.Locality,
			NoLocality:    c.Locality == 0,
			TargetMaxUtil: c.TargetMaxUtil,
			Cache:         cache,
		}
		e.ms, e.err = tmgen.GenerateSet(n.Graph, cfg, c.TMsPerTopology)
	})
	return e.ms, e.err
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

// cellMeta labels one experiment scenario for the result store.
func (c Config) cellMeta(n Network, tmIndex int, scheme routing.Scheme) store.Meta {
	return store.Meta{
		Net:      n.Name,
		Class:    string(n.Class),
		Seed:     c.Seed,
		TM:       tmIndex,
		Scheme:   scheme.Name(),
		Headroom: routing.Headroom(scheme),
		Load:     c.TargetMaxUtil,
		Locality: c.Locality,
	}
}

// metricsFor resolves every scenario to its metric summary, out[i] for
// scs[i]. Without a backend this is r.Run plus a summarization pass.
// With cfg.Backend set, cells already stored are recalled without
// touching the engine, and each newly placed cell is checkpointed the
// moment it lands, so an interrupted figure run rerun against the same
// backend computes only what is missing. Results are identical either
// way.
func metricsFor(ctx context.Context, r *engine.Runner, cfg Config, scs []engine.Scenario, metas []store.Meta) ([]store.Metrics, error) {
	out := make([]store.Metrics, len(scs))
	if cfg.Backend == nil {
		results, err := r.Run(ctx, scs)
		if err != nil {
			return nil, err
		}
		for _, res := range results {
			out[res.Index] = store.MetricsOf(res.Placement)
		}
		return out, nil
	}

	keys := make([]store.CellKey, len(scs))
	var missing []engine.Scenario
	var missIdx []int
	for i, sc := range scs {
		keys[i] = store.KeyFor(sc.Graph, sc.Matrix, sc.Scheme)
		if hit, ok := cfg.Backend.Lookup(keys[i]); ok {
			out[i] = hit.Metrics
			continue
		}
		missing = append(missing, sc)
		missIdx = append(missIdx, i)
	}
	// Stream instead of Run so every completed placement is persisted
	// even when a later one fails or the context dies mid-sweep.
	var firstErr error
	firstErrIdx := -1
	for res := range r.Stream(ctx, missing) {
		if res.Err != nil {
			if errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded) {
				continue
			}
			if firstErrIdx < 0 || res.Index < firstErrIdx {
				firstErr, firstErrIdx = res.Err, res.Index
			}
			continue
		}
		i := missIdx[res.Value.Index]
		out[i] = store.MetricsOf(res.Value.Placement)
		if err := cfg.Backend.Put(store.Result{Key: keys[i], Meta: metas[i], Metrics: out[i]}); err != nil {
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

// runScheme evaluates a scheme across all matrices of all networks through
// the engine, returning metric summaries grouped by network index in
// matrix order — exactly what the old nested sequential loops produced.
func runScheme(ctx context.Context, r *engine.Runner, nets []Network, cfg Config, scheme routing.Scheme) ([][]store.Metrics, error) {
	mats, err := netMatrices(ctx, r, cfg, nets)
	if err != nil {
		return nil, err
	}
	var scs []engine.Scenario
	var metas []store.Meta
	for i, n := range nets {
		for mi, m := range mats[i] {
			scs = append(scs, engine.Scenario{
				Group:  i,
				Tag:    n.Name + "/" + scheme.Name(),
				Graph:  n.Graph,
				Matrix: m,
				Scheme: scheme,
			})
			metas = append(metas, cfg.cellMeta(n, mi, scheme))
		}
	}
	ms, err := metricsFor(ctx, r, cfg, scs, metas)
	if err != nil {
		return nil, err
	}
	out := make([][]store.Metrics, len(nets))
	for i, m := range ms {
		out[scs[i].Group] = append(out[scs[i].Group], m)
	}
	return out, nil
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
