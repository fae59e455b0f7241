package workload

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"lowlat/bench/internal/span"
	"lowlat/bench/internal/stat"
	"lowlat/internal/routing"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// store_rw: one caller on internal/store directly, writes beside reads
// with nothing else in the way. A fill interleaves 1 Put : 4 Get up to
// storeCells synthetic cells in a fresh store; fills repeat while the
// time lasts. Then the store is closed and reopened, every Put is read
// back, and the maintenance operations (Keys, DigestKeys, Query,
// Compact) run — five times each, timed, in the traced run.
const (
	storeCells     = 50_000
	storeRoundPuts = 1_000 // one meter round: 1000 Puts + 4000 Gets
	storeGetsPer   = 4
	storeMaintReps = 5
)

var storeSchemes = []string{"sp", "b4", "minmax", "ldr"}

// storeCellsFor generates the run's synthetic cells: well-formed
// canonical store.Results (distinct keys, plausible labels and metrics)
// that never went near a solver.
func storeCellsFor(seed int64) []store.Result {
	rng := rand.New(rand.NewSource(seed))
	out := make([]store.Result, storeCells)
	for i := range out {
		net := rng.Intn(64)
		scheme := storeSchemes[rng.Intn(len(storeSchemes))]
		out[i] = store.Result{
			Key: store.CellKey{
				Graph:  store.Digest(uint64(seed)<<8 | uint64(net)),
				Matrix: store.Digest(rng.Uint64()),
				Scheme: scheme,
				Config: store.Digest(uint64(len(scheme))),
			},
			Meta: store.Meta{
				Net:      fmt.Sprintf("synth-%02d", net),
				Class:    "synthetic",
				Seed:     int64(i),
				Scheme:   scheme,
				Load:     store.DefaultLoad,
				Locality: 1,
			},
			Metrics: store.Metrics{
				Congested:  rng.Float64() * 0.2,
				Stretch:    1 + rng.Float64(),
				MaxStretch: 2 + 3*rng.Float64(),
				MaxUtil:    rng.Float64(),
				Fits:       rng.Intn(4) > 0,
			},
		}
	}
	return out
}

type storeEnv struct {
	cells []store.Result
	dir   string
	st    *store.Store
}

func prepareStore(cfg Config) (*storeEnv, error) {
	env := &storeEnv{cells: storeCellsFor(cfg.Seed)}
	var err error
	if env.dir, err = scratchDir(cfg, "store_rw"); err != nil {
		return nil, err
	}
	if env.st, err = store.OpenSharded(env.dir, store.DefaultShards); err != nil {
		return nil, err
	}
	return env, nil
}

// fill writes every cell into st, each Put followed by four Gets of
// cells already written, one meter round per storeRoundPuts Puts.
// putNs collects Put latencies; getNs Get latencies when non-nil.
func (e *storeEnv) fill(res *Result, st *store.Store, rng *rand.Rand, m *meter, rec *span.Recorder, putNs, getNs *[]int64) {
	for i, c := range e.cells {
		op := int64(i)
		root := span.NoParent
		if rec != nil && i < 5*storeRoundPuts {
			root = rec.Start(op, span.NoParent, "put+gets")
		} else {
			rec = nil
		}
		id := rec.Start(op, root, "store.Put")
		t0 := time.Now()
		err := st.Put(c)
		*putNs = append(*putNs, time.Since(t0).Nanoseconds())
		rec.End(id)
		res.Attempted++
		if err != nil {
			res.fail("store_rw: Put %d: %v", i, err)
		}
		for g := 0; g < storeGetsPer; g++ {
			want := e.cells[rng.Intn(i+1)]
			id := rec.Start(op, root, "store.Get")
			var got store.Result
			var ok bool
			if getNs != nil {
				t0 := time.Now()
				got, ok = st.Get(want.Key)
				*getNs = append(*getNs, time.Since(t0).Nanoseconds())
			} else {
				got, ok = st.Get(want.Key)
			}
			rec.End(id)
			res.Attempted++
			if !ok || got != want {
				res.fail("store_rw: Get of cell %s after its Put", want.Key)
			}
		}
		rec.End(root)
		if (i+1)%storeRoundPuts == 0 {
			m.round(storeRoundPuts*(1+storeGetsPer), (*putNs)[len(*putNs)-storeRoundPuts:])
		}
	}
}

// StoreRW runs the store_rw workload.
func StoreRW(ctx context.Context, cfg Config) (*Result, error) {
	res := newResult()
	env, err := timedSetup(cfg, res,
		func() (*storeEnv, error) { return prepareStore(cfg) },
		func(e *storeEnv) { e.st.Close() })
	if err != nil {
		return nil, err
	}
	share := 0.6
	var rec *span.Recorder
	if cfg.Trace {
		rec = span.NewRecorder()
		share = 0.15
	}

	// Fills: the prepared store first, then fresh ones while time lasts.
	var putNs, getNs []int64
	getSink := &getNs
	if !cfg.Trace {
		getSink = nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5bd1e995))
	m := startMeter()
	env.fill(res, env.st, rng, m, rec, &putNs, getSink)
	for n := 1; ctx.Err() == nil && m.elapsed() < time.Duration(cfg.Seconds*share*float64(time.Second)); n++ {
		dir, err := scratchDir(cfg, fmt.Sprintf("store_rw_fill%d", n))
		if err != nil {
			return nil, err
		}
		st, err := store.OpenSharded(dir, store.DefaultShards)
		if err != nil {
			return nil, err
		}
		env.fill(res, st, rng, m, nil, &putNs, getSink)
		if err := st.Close(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	use := m.stop()
	res.reportUsage(use, cfg.Trace)
	if err := env.st.Close(); err != nil {
		return nil, err
	}

	// Reopen: every Put must read back, and maintenance must keep it so.
	reps := 1
	if cfg.Trace {
		reps = storeMaintReps
	}
	maint := make(map[string][]float64)
	root := span.NoParent
	timed := func(op int64, name string, fn func()) {
		id := rec.Start(op, root, name)
		maint[name] = append(maint[name], float64(timeNs(fn))/1e6)
		rec.End(id)
	}
	skipped := 0
	for rep := 0; rep < reps && ctx.Err() == nil; rep++ {
		op := int64(1_000_000 + rep)
		root = rec.Start(op, span.NoParent, "maintenance")
		var st *store.Store
		timed(op, "store.OpenSharded", func() { st, err = store.OpenSharded(env.dir, store.DefaultShards) })
		if err != nil {
			return nil, err
		}
		skipped += st.Skipped()
		if rep == 0 {
			for _, c := range env.cells {
				got, ok := st.Get(c.Key)
				res.check(ok && got == c, "store_rw: cell %s lost or altered across reopen", c.Key)
			}
		}
		var keys []store.CellKey
		timed(op, "store.Keys", func() { keys = st.Keys() })
		var digest store.Digest
		timed(op, "store.DigestKeys", func() { digest = store.DigestKeys(keys) })
		var all []store.Result
		timed(op, "sweep.Query", func() { all = sweep.Query(st, sweep.Filter{}) })
		timed(op, "store.Compact", func() { err = st.Compact() })
		if err != nil {
			return nil, err
		}
		res.check(len(keys) == storeCells && len(all) == storeCells && st.Len() == storeCells,
			"store_rw: %d keys, %d query results, %d cells after reopen; want %d", len(keys), len(all), st.Len(), storeCells)
		rec.End(root)
		res.check(digest == store.DigestKeys(st.Keys()), "store_rw: key digest changed across Compact")
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
	logf(cfg, "store_rw: %d puts + %d gets in %.2fs, %d maintenance cycle(s)", len(putNs), len(putNs)*storeGetsPer, use.wall.Seconds(), reps)
	if !cfg.Trace {
		return res, nil
	}

	per10k := func(name string) []float64 {
		out := make([]float64, len(maint[name]))
		for i, v := range maint[name] {
			out[i] = v / (storeCells / 10_000)
		}
		return out
	}
	res.setTail("lat_ms_p90", ms(putNs), 0.90)
	res.setTail("lat_ms_p99", ms(putNs), 0.99)
	res.setP50("store.put_us_p50", us(putNs))
	res.setTail("store.put_us_p99", us(putNs), 0.99)
	res.setP50("store.get_ns_p50", scale(getNs, 1))
	res.setN("open_s", stat.Median(maint["store.OpenSharded"])/1e3, reps)
	res.setP50("store.open_ms_per_10k", per10k("store.OpenSharded"))
	res.setP50("store.keys_ms_per_10k", per10k("store.Keys"))
	res.setP50("store.digest_ms_per_10k", per10k("store.DigestKeys"))
	res.setP50("store.query_ms_per_10k", per10k("sweep.Query"))
	res.setP50("store.compact_ms_per_10k", per10k("store.Compact"))
	res.set("store.skipped_lines", float64(skipped))
	size, err := dirBytes(env.dir)
	if err != nil {
		return nil, err
	}
	res.set("bytes_per_cell", float64(size)/storeCells)

	// The codec alone, and the key derivation a cold Place pays.
	var marshalUs, unmarshalUs []float64
	for _, c := range env.cells[:2000] {
		var b []byte
		marshalUs = append(marshalUs, float64(timeNs(func() { b, err = store.MarshalResult(c) }))/1e3)
		if err != nil {
			return nil, err
		}
		var back store.Result
		unmarshalUs = append(unmarshalUs, float64(timeNs(func() { back, err = store.UnmarshalResult(b) }))/1e3)
		res.check(err == nil && back == c, "store_rw: cell %s does not survive the wire codec", c.Key)
	}
	res.setP50("store.marshal_us_p50", marshalUs)
	res.setP50("store.unmarshal_us_p50", unmarshalUs)
	keyforUs, err := keyForProbe(cfg.Seed)
	if err != nil {
		return nil, err
	}
	res.setP50("store.keyfor_us_p50", keyforUs)
	// Spans are on for the first rounds of the first fill only; the same
	// rounds of the second fill (same cells, same store size, spans off)
	// are the untraced side of the ratio.
	if traced := 5 * storeRoundPuts; len(putNs) >= storeCells+traced {
		res.set("trace.overhead_ratio", stat.Median(ms(putNs[:traced]))/stat.Median(ms(putNs[storeCells:storeCells+traced])))
	}
	spans := rec.Spans()
	res.reportTrace(spans)
	return res, writeTrace(cfg, "store_rw", spans)
}

// keyForProbe times store.KeyFor on real graphs and matrices.
func keyForProbe(seed int64) ([]float64, error) {
	var out []float64
	for ni, name := range placeNets {
		net, err := sweep.ResolveNet(name)
		if err != nil {
			return nil, err
		}
		m, err := sweep.GenerateMatrix(net.Graph, seed+int64(ni), store.DefaultLoad, 1, nil)
		if err != nil {
			return nil, err
		}
		scheme := routing.LatencyOpt{}
		for i := 0; i < 20; i++ {
			out = append(out, float64(timeNs(func() { store.KeyFor(net.Graph, m, scheme) }))/1e3)
		}
	}
	return out, nil
}
