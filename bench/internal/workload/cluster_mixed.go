package workload

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lowlat/bench/internal/loadgen"
	"lowlat/bench/internal/proc"
	"lowlat/bench/internal/span"
	"lowlat/bench/internal/stat"
	"lowlat/internal/backend"
	"lowlat/internal/cluster"
	"lowlat/internal/engine"
	"lowlat/internal/serve"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// cluster_mixed: the fullest deployment in docs/ARCHITECTURE.md as real
// processes — three `lowlatd -store` daemons, pre-seeded through a
// cluster.Backend at R = 2 before the front boots, and one front
// `lowlatd -cluster ... -replicas 2 -predict` that trains from them at
// startup. Four traffic classes, drawn i.i.d. from the seed:
//
//	hit       60%  Zipf Place over the pre-seeded specs
//	cell      20%  GET /v1/cell by content key -> cluster.Lookup over the R owners
//	predicted 12%  unseen seeds at load 0.65, between the trained 0.6 and 0.7
//	miss       8%  randomgeo:8:<fresh seed>: a never-seen topology has no
//	               surface, so it always falls through to an owner that
//	               builds the graph, generates the matrix, solves, appends
//	               and replicates. (A fresh seed on a known net would not
//	               do: every fallback is folded into the index, and three
//	               nearby samples turn later misses into predictions.)
const (
	clusterReplicas = 3
	clusterR        = 2
	clusterSeeds    = 32 // x 2 nets x 4 schemes x 2 loads = 512 seeded cells
	clusterRate     = 300.0
	predictedLoad   = 0.65
	missNodes       = 8
)

const (
	classHit = iota
	classCell
	classPredicted
	classMiss
	numClasses
)

var (
	classNames = []string{"hit", "cell", "predicted", "miss"}
	classMix   = loadgen.NewMix(60, 20, 12, 8)
)

// clusterEnv is a running cluster.
type clusterEnv struct {
	dirs     []string
	replicas fleet
	front    *proc.Daemon
	refs     []cellRef
	// ring routes like the front does (same URLs, same labels), so the
	// quiesce check knows each key's owners.
	ring *cluster.Backend
}

func (e *clusterEnv) all() fleet { return append(append(fleet{}, e.replicas...), e.front) }

func (e *clusterEnv) kill() {
	if e.ring != nil {
		e.ring.Close()
	}
	if e.front != nil {
		e.front.Kill()
	}
	e.replicas.kill()
}

// clusterSpecs lists the pre-seeded specs.
func clusterSpecs(seed int64) []store.CellSpec {
	var specs []store.CellSpec
	for _, load := range seedLoads {
		g := seedGrid(seed, clusterSeeds, load)
		for _, net := range g.Nets {
			for _, s := range g.Seeds {
				for _, scheme := range g.Schemes {
					specs = append(specs, store.CellSpec{Net: net, Seed: s, Scheme: scheme, Load: load, Locality: 1})
				}
			}
		}
	}
	return specs
}

func prepareCluster(ctx context.Context, cfg Config) (*clusterEnv, error) {
	env := &clusterEnv{}
	ok := false
	defer func() {
		if !ok {
			env.kill()
		}
	}()
	var urls []string
	for i := 0; i < clusterReplicas; i++ {
		dir, err := scratchDir(cfg, fmt.Sprintf("cluster_mixed_r%d", i))
		if err != nil {
			return nil, err
		}
		d, err := proc.Start(ctx, cfg.Lowlatd, "-store", dir)
		if err != nil {
			return nil, err
		}
		env.dirs = append(env.dirs, dir)
		env.replicas = append(env.replicas, d)
		urls = append(urls, d.URL)
	}
	spec := strings.Join(urls, ",")
	ring, err := cluster.FromSpec(spec, serve.RemoteOptions{}, cluster.Options{Replicas: clusterR})
	if err != nil {
		return nil, err
	}
	env.ring = ring
	// Seed through the ring: each cell is computed by one owner and
	// replicated to the other, exactly as live traffic would have left it.
	results, err := engine.Map(ctx, Callers(), clusterSpecs(cfg.Seed),
		func(ctx context.Context, _ int, s store.CellSpec) (store.Result, error) { return ring.Place(ctx, s) })
	if err != nil {
		return nil, fmt.Errorf("cluster_mixed: seeding: %w", err)
	}
	store.SortResults(results)
	env.refs = refsOf(results)
	if env.front, err = proc.Start(ctx, cfg.Lowlatd, "-cluster", spec, "-replicas", fmt.Sprint(clusterR), "-predict"); err != nil {
		return nil, err
	}
	ok = true
	return env, nil
}

// mixedDraw draws the traffic mix.
type mixedDraw struct {
	seed int64
	refs []cellRef
	zipf *loadgen.Zipf
	perm []int
	rngs []*rand.Rand
	base int
}

func newMixedDraw(seed int64, refs []cellRef, callers, base int) *mixedDraw {
	d := &mixedDraw{seed: seed, refs: refs, zipf: loadgen.NewZipf(len(refs), hotZipfS), perm: loadgen.Permutation(seed, len(refs)), base: base}
	for c := 0; c < callers; c++ {
		d.rngs = append(d.rngs, loadgen.Stream(seed, base+c))
	}
	return d
}

// freshSeed is unique per (run seed, stream, request): predicted and
// miss requests never repeat a spec.
func (d *mixedDraw) freshSeed(caller, seq int) int64 {
	return d.seed*1_000_003 + int64(d.base+caller+1)*10_000_000 + int64(seq)
}

// computedKeys collects the keys of acknowledged computed cells.
type computedKeys struct {
	mu   sync.Mutex
	keys []store.CellKey // guarded by mu
}

func (c *computedKeys) add(k store.CellKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keys = append(c.keys, k)
}

func (c *computedKeys) list() []store.CellKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]store.CellKey(nil), c.keys...)
}

// mixedDo issues one request of a drawn class and checks its answer:
// a hit carries the reference cell's metrics, a cell read equals the
// reference cell, a predicted answer is flagged and keyless, a miss is
// reported computed under a real key.
func mixedDo(clients []*serve.Client, draw *mixedDraw, acked *computedKeys) loadgen.Do {
	return func(ctx context.Context, caller, seq int) loadgen.Outcome {
		rng := draw.rngs[caller]
		class := classMix.Class(rng.Float64())
		out := loadgen.Outcome{Class: class}
		c := clients[caller]
		var err error
		switch class {
		case classHit:
			ref := draw.refs[draw.perm[draw.zipf.Rank(rng.Float64())]]
			var resp *serve.PlaceResponse
			if resp, err = c.Place(ctx, ref.req); err == nil {
				out.Source = sourceCode(resp.Source)
				out.OK = resp.Result.Metrics == ref.want.Metrics
				out.Why = fmt.Sprintf("hit %v: metrics %+v from %q, reference %+v", ref.req, resp.Result.Metrics, resp.Source, ref.want.Metrics)
			}
		case classCell:
			ref := draw.refs[rng.Intn(len(draw.refs))]
			var got store.Result
			if got, err = c.Cell(ctx, ref.want.Key.String()); err == nil {
				// Key and outcome, not labels: two seeds can generate the
				// same matrix on a six-node star, the cells then share a
				// content key, and the store keeps the last writer's Meta.
				out.Source = srcStore
				out.OK = got.Key == ref.want.Key && got.Metrics == ref.want.Metrics
				out.Why = fmt.Sprintf("cell %s: got %+v, reference %+v", ref.want.Key, got, ref.want)
			}
		case classPredicted:
			ref := draw.refs[rng.Intn(len(draw.refs))]
			req := ref.req
			req.Seed, req.Load = draw.freshSeed(caller, seq), predictedLoad
			var resp *serve.PlaceResponse
			if resp, err = c.Place(ctx, req); err == nil {
				// The index may refuse (its confidence region is data
				// dependent) and fall back to an exact solve; what must
				// hold is that an estimate is flagged and keyless, and
				// an exact answer is neither.
				out.Source = sourceCode(resp.Source)
				keyless := resp.Result.Key == (store.CellKey{})
				out.OK = resp.Predicted == keyless && resp.Predicted == (out.Source == srcPredicted)
				out.Why = fmt.Sprintf("predicted %v: source %q, predicted=%v, key %s", req, resp.Source, resp.Predicted, resp.Result.Key)
				if out.OK && out.Source == srcComputed {
					acked.add(resp.Result.Key)
				}
			}
		case classMiss:
			s := draw.freshSeed(caller, seq)
			req := serve.PlaceRequest{Net: fmt.Sprintf("randomgeo:%d:%d", missNodes, s), Seed: s, Scheme: placeSchemes[rng.Intn(len(placeSchemes))]}
			var resp *serve.PlaceResponse
			if resp, err = c.Place(ctx, req); err == nil {
				out.Source = sourceCode(resp.Source)
				out.OK = out.Source == srcComputed && resp.Result.Key != (store.CellKey{})
				out.Why = fmt.Sprintf("miss %v: source %q, key %s", req, resp.Source, resp.Result.Key)
				if out.OK {
					acked.add(resp.Result.Key)
				}
			}
		}
		if err != nil {
			out.Why = classNames[class] + ": " + err.Error()
		}
		return out
	}
}

// ClusterMixed runs the cluster_mixed workload.
func ClusterMixed(ctx context.Context, cfg Config) (*Result, error) {
	res := newResult()
	env, err := timedSetup(cfg, res,
		func() (*clusterEnv, error) { return prepareCluster(ctx, cfg) },
		(*clusterEnv).kill)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			env.kill()
		}
	}()
	callers := Callers()
	clients := newClients(env.front.URL)
	acked := &computedKeys{}

	closedFor := cfg.Seconds
	if cfg.Trace {
		closedFor = cfg.Seconds * traceClosedShare
	}
	draw := newMixedDraw(cfg.Seed, env.refs, callers, 0)
	closed, use, err := env.all().measure(ctx, func(count *atomic.Int64) loadgen.Phase {
		return loadgen.Closed(ctx, callers, time.Duration(closedFor*float64(time.Second)), counted(count, mixedDo(clients, draw, acked)))
	})
	if err != nil {
		return nil, err
	}
	lat, byClass := latencies(res, "cluster_mixed", closed, numClasses)
	use.est = stat.Median // slices differ by how many misses they hold
	res.reportUsage(use, cfg.Trace)

	if cfg.Trace {
		open := newMixedDraw(cfg.Seed, env.refs, callers, 100)
		ph := loadgen.Open(ctx, callers, clusterRate, time.Duration(cfg.Seconds*traceOpenShare*float64(time.Second)), mixedDo(clients, open, acked))
		res.reportOpen("cluster_mixed", ph, clusterRate)
		res.reportSources(closed)
		res.setTail("lat_ms_p90", lat, 0.90)
		res.setTail("lat_ms_p99", lat, 0.99)
		for class, name := range classNames {
			res.set("loadgen.class_share."+name, float64(len(byClass[class]))/float64(max(len(lat), 1)))
			res.setP50("loadgen.lat_ms_p50."+name, byClass[class])
		}
	}

	// Quiesced: every acknowledged computed key is on all of its R owners,
	// asked of each owner daemon directly.
	for _, k := range acked.list() {
		for _, owner := range env.ring.Owners(k.String()) {
			_, err := newClient(env.replicas[owner].URL).Cell(ctx, k.String())
			res.check(err == nil, "cluster_mixed: computed cell %s is not on owner %d: %v", k, owner, err)
		}
	}
	st, err := clients[0].Stats(ctx)
	if err != nil {
		return nil, err
	}
	res.check(st.Rejected == 0, "cluster_mixed: the front refused %d requests", st.Rejected)
	stopped = true
	env.ring.Close()
	if err := env.all().stop(); err != nil {
		return nil, err
	}
	logf(cfg, "cluster_mixed: %d closed-loop requests in %.2fs (%d misses computed and replicated)",
		len(closed.Samples), closed.Wall.Seconds(), len(acked.list()))
	if !cfg.Trace {
		return res, nil
	}
	res.set("cluster.replicated", float64(st.Replicated))
	res.set("cluster.read_repairs", float64(st.ReadRepairs))
	res.set("cluster.hints_queued", float64(st.HintsQueued))
	res.set("serve.rejected_429", float64(st.Rejected))
	res.set("serve.coalesced", float64(st.Coalesced))
	res.set("backend.computed", float64(st.Computed))
	if n := st.Predicted + st.PredictFallbacks; n > 0 {
		res.set("predict.fallback_ratio", float64(st.PredictFallbacks)/float64(n))
	}

	tracedLat, err := clusterTraced(ctx, cfg, res, env)
	if err != nil {
		return nil, err
	}
	res.set("trace.overhead_ratio", stat.Median(tracedLat)/stat.Median(lat))
	return res, nil
}

// inProcCluster is the traced pass's deployment: the replicas' stores
// behind in-process servers, and a predictive front over a ring of
// serve.Remotes to them.
type inProcCluster struct {
	stores   []*store.Store
	replicas []*tracedServer
	front    *tracedServer
	ring     *cluster.Backend
	predict  *backend.Predictive
}

func (c *inProcCluster) close(ctx context.Context) {
	if c.front != nil {
		c.front.close(ctx)
	}
	if c.predict != nil {
		c.predict.Close()
	}
	if c.ring != nil {
		c.ring.Close()
	}
	for _, r := range c.replicas {
		r.close(ctx)
	}
	for _, st := range c.stores {
		st.Close()
	}
}

func startInProcCluster(ctx context.Context, res *Result, rec *span.Recorder, dirs []string) (*inProcCluster, error) {
	c := &inProcCluster{}
	ok := false
	defer func() {
		if !ok {
			c.close(ctx)
		}
	}()
	var remotes []backend.Backend
	for _, dir := range dirs {
		st, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		c.stores = append(c.stores, st)
		ts, err := startTraced(rec, "replica.Handler", serve.New(st, serve.Options{}), nil)
		if err != nil {
			return nil, err
		}
		c.replicas = append(c.replicas, ts)
		remotes = append(remotes, serve.NewRemote(newClient(ts.URL), serve.RemoteOptions{}))
	}
	var err error
	if c.ring, err = cluster.New(remotes, cluster.Options{Replicas: clusterR}); err != nil {
		return nil, err
	}
	c.predict = backend.NewPredictive(c.ring, backend.PredictiveOptions{})
	cells, err := c.ring.QueryContext(ctx, sweep.Filter{})
	if err != nil {
		return nil, err
	}
	res.set("predict.train_ms", float64(timeNs(func() { c.predict.Train(cells) }))/1e6)
	logs := &recordCounter{}
	if c.front, err = startTraced(rec, "front.Handler", serve.NewBackendServer(c.predict, serve.Options{Logger: slog.New(logs)}), logs); err != nil {
		return nil, err
	}
	ok = true
	return c, nil
}

// clusterTraced is the traced pass: the same stores, in-process servers
// on loopback listeners, closed loop only, a client span and a handler
// span per hop of every request.
func clusterTraced(ctx context.Context, cfg Config, res *Result, env *clusterEnv) ([]float64, error) {
	rec := span.NewRecorder()
	c, err := startInProcCluster(ctx, res, rec, env.dirs)
	if err != nil {
		return nil, err
	}
	defer c.close(ctx)

	callers := Callers()
	clients := newClients(c.front.URL)
	draw := newMixedDraw(cfg.Seed, env.refs, callers, 200)
	acked := &computedKeys{}
	do := mixedDo(clients, draw, acked)
	var ops atomic.Int64
	ph := loadgen.Closed(ctx, callers, time.Duration(cfg.Seconds*traceTracedShare*float64(time.Second)),
		func(ctx context.Context, caller, seq int) loadgen.Outcome {
			op := ops.Add(1)
			root := rec.Start(op, span.NoParent, "request")
			rtt := rec.Start(op, root, "serve.Client")
			out := do(withOp(ctx, op, rtt), caller, seq)
			rec.End(rtt)
			rec.End(root)
			return out
		})
	lat, _ := latencies(res, "cluster_mixed traced", ph, numClasses)
	res.check(c.front.logs.count() == len(ph.Samples),
		"cluster_mixed: front logged %d requests, the generator sent %d", c.front.logs.count(), len(ph.Samples))

	if err := clusterProbes(ctx, cfg, res, env, c); err != nil {
		return nil, err
	}
	res.set("cluster.rerouted", float64(c.ring.Stats().Rerouted))
	spans := rec.Spans()
	res.reportTrace(spans)
	return lat, writeTrace(cfg, "cluster_mixed", spans)
}

// clusterProbes times the ring's own operations one call at a time.
func clusterProbes(ctx context.Context, cfg Config, res *Result, env *clusterEnv, c *inProcCluster) error {
	// A standalone replica with a fresh store: the single-Remote baseline
	// the ring's cold Place is compared against.
	soloDir := filepath.Join(cfg.Scratch, "cluster_mixed_solo")
	soloStore, err := store.Open(soloDir)
	if err != nil {
		return err
	}
	defer soloStore.Close()
	solo, err := startTraced(nil, "solo.Handler", serve.New(soloStore, serve.Options{}), nil)
	if err != nil {
		return err
	}
	defer solo.close(ctx)
	soloRemote := serve.NewRemote(newClient(solo.URL), serve.RemoteOptions{})

	var coldMs, warmUs, overUs []float64
	for i := 0; i < 16; i++ {
		s := cfg.Seed*1_000_003 + 900_000_000 + int64(i)
		spec := store.CellSpec{Net: fmt.Sprintf("randomgeo:%d:%d", missNodes, s), Seed: s, Scheme: placeSchemes[i%len(placeSchemes)], Locality: 1}.Normalized()
		var r1, r2 store.Result
		var src backend.Source
		var err1, err2, err3 error
		cold := timeNs(func() { r1, src, err1 = c.ring.PlaceSourced(ctx, spec) })
		warm := timeNs(func() { _, _, err2 = c.ring.PlaceSourced(ctx, spec) })
		alone := timeNs(func() { r2, _, err3 = soloRemote.PlaceSourced(ctx, spec) })
		res.check(err1 == nil && err2 == nil && err3 == nil && src == backend.SourceComputed && sameCell(r1, r2),
			"cluster_mixed: ring and single-replica Place of %s disagree (%v %v %v)", spec, err1, err2, err3)
		coldMs = append(coldMs, float64(cold)/1e6)
		warmUs = append(warmUs, float64(warm)/1e3)
		overUs = append(overUs, float64(cold-alone)/1e3)
	}
	res.setP50("cluster.place_cold_ms_p50", coldMs)
	res.setP50("cluster.place_warm_us_p50", warmUs)
	res.setP50("cluster.replicate_overhead_us_p50", overUs)

	var lookupUs, predictUs []float64
	for _, ref := range env.refs[:200] {
		var got store.Result
		var ok bool
		lookupUs = append(lookupUs, float64(timeNs(func() { got, ok = c.ring.Lookup(ref.want.Key) }))/1e3)
		res.check(ok && got.Key == ref.want.Key && got.Metrics == ref.want.Metrics, "cluster_mixed: ring.Lookup(%s) differs from the reference", ref.want.Key)
		spec := ref.spec()
		spec.Seed, spec.Load = spec.Seed+77_000_000, predictedLoad
		var src backend.Source
		var err error
		var est store.Result
		ns := timeNs(func() { est, src, err = c.predict.PlaceSourced(ctx, spec) })
		res.check(err == nil && (src == backend.SourcePredicted) == (est.Key == store.CellKey{}),
			"cluster_mixed: Predictive.PlaceSourced(%s): source %q, key %s, %v", spec, src, est.Key, err)
		if src == backend.SourcePredicted {
			predictUs = append(predictUs, float64(ns)/1e3)
		}
	}
	res.setP50("cluster.lookup_us_p50", lookupUs)
	res.setP50("backend.predict_us_p50", predictUs)

	// Put through the ring (R owners each), then a heal of cells planted
	// on one replica only: converged when a second sweep finds nothing.
	cells := storeCellsFor(cfg.Seed)
	var putUs []float64
	for _, cell := range cells[:100] {
		var err error
		putUs = append(putUs, float64(timeNs(func() { err = c.ring.Put(cell) }))/1e3)
		res.check(err == nil, "cluster_mixed: ring.Put: %v", err)
	}
	res.setP50("cluster.put_us_p50", putUs)
	for _, cell := range cells[100:150] {
		if err := c.stores[0].Put(cell); err != nil {
			return err
		}
	}
	var rep cluster.HealReport
	healMs := float64(timeNs(func() { rep, err = c.ring.Heal(ctx) })) / 1e6
	if err != nil {
		return err
	}
	again, err := c.ring.Heal(ctx)
	if err != nil {
		return err
	}
	res.check(rep.Healed > 0 && again.Healed == 0 && again.Failed == 0,
		"cluster_mixed: heal copied %d cells, a second sweep %d more (%d failed)", rep.Healed, again.Healed, again.Failed)
	res.set("cluster.heal_converged_ms", healMs)
	return nil
}
