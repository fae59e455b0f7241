package workload

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"lowlat/bench/internal/loadgen"
	"lowlat/bench/internal/proc"
	"lowlat/bench/internal/span"
	"lowlat/bench/internal/stat"
	"lowlat/internal/backend"
	"lowlat/internal/obs"
	"lowlat/internal/serve"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// serve_hot: one real `lowlatd -store` child process over a store
// pre-seeded with 2 048 small-net cells, serve.Client.Place with
// Zipf(1.1) key popularity. The working set is four times the daemon's
// 512-entry LRU, the rest are store hits, and nothing is ever solved:
// per-request cost of serve (JSON, LRU, singleflight, the tracing
// middleware), backend.Local's hit path, store reads and obs. No
// -predict: with it every trained-point request is answered by the index
// as an uncached exact sample and the LRU is never hit.
const (
	hotSeeds = 128 // x 2 nets x 4 schemes x 2 loads = 2048 cells
	hotZipfS = 1.1
	// hotRate is the open-loop rate: about 40% of what one daemon
	// saturates at on two cores.
	hotRate = 4000.0
)

// hotEnv is a seeded store with a daemon serving it.
type hotEnv struct {
	dir  string
	refs []cellRef
	d    fleet
}

func prepareHot(ctx context.Context, cfg Config) (*hotEnv, error) {
	dir, err := scratchDir(cfg, "serve_hot")
	if err != nil {
		return nil, err
	}
	env := &hotEnv{dir: dir}
	if env.refs, err = seedStore(ctx, dir, cfg.Seed, hotSeeds); err != nil {
		return nil, err
	}
	d, err := proc.Start(ctx, cfg.Lowlatd, "-store", dir)
	if err != nil {
		return nil, err
	}
	env.d = fleet{d}
	return env, nil
}

// hotDraw draws requests: Zipf rank -> key through a seeded permutation.
type hotDraw struct {
	refs []cellRef
	zipf *loadgen.Zipf
	perm []int
	rngs []*rand.Rand
}

// newHotDraw prepares streams for callers; stream ids start at base so
// the closed and the open phase draw from unrelated streams.
func newHotDraw(seed int64, refs []cellRef, callers, base int) *hotDraw {
	d := &hotDraw{refs: refs, zipf: loadgen.NewZipf(len(refs), hotZipfS), perm: loadgen.Permutation(seed, len(refs))}
	for c := 0; c < callers; c++ {
		d.rngs = append(d.rngs, loadgen.Stream(seed, base+c))
	}
	return d
}

func (d *hotDraw) next(caller int) cellRef {
	return d.refs[d.perm[d.zipf.Rank(d.rngs[caller].Float64())]]
}

// hotDo issues one Place per call and checks the answer against the
// reference store.
func hotDo(clients []*serve.Client, draw *hotDraw) loadgen.Do {
	return func(ctx context.Context, caller, _ int) loadgen.Outcome {
		ref := draw.next(caller)
		resp, err := clients[caller].Place(ctx, ref.req)
		if err != nil {
			return loadgen.Outcome{Why: err.Error()}
		}
		src := sourceCode(resp.Source)
		// Equal structs marshal to equal canonical bytes; the comparison
		// is the cheap form of "equals the reference MarshalResult".
		if resp.Result != ref.want || (src != srcCache && src != srcStore) {
			return loadgen.Outcome{Source: src, Why: fmt.Sprintf("%v answered from %q with %+v, want %+v", ref.req, resp.Source, resp.Result, ref.want)}
		}
		return loadgen.Outcome{OK: true, Source: src}
	}
}

// ServeHot runs the serve_hot workload.
func ServeHot(ctx context.Context, cfg Config) (*Result, error) {
	res := newResult()
	env, err := timedSetup(cfg, res,
		func() (*hotEnv, error) { return prepareHot(ctx, cfg) },
		func(e *hotEnv) { e.d.kill() })
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			env.d.kill()
		}
	}()
	callers := Callers()
	clients := newClients(env.d[0].URL)

	// Closed loop: the `lowlat sweep -addr` traffic shape.
	closedFor := cfg.Seconds
	if cfg.Trace {
		closedFor = cfg.Seconds * traceClosedShare
	}
	draw := newHotDraw(cfg.Seed, env.refs, callers, 0)
	closed, use, err := env.d.measure(ctx, func(count *atomic.Int64) loadgen.Phase {
		return loadgen.Closed(ctx, callers, time.Duration(closedFor*float64(time.Second)), counted(count, hotDo(clients, draw)))
	})
	if err != nil {
		return nil, err
	}
	lat, _ := latencies(res, "serve_hot", closed, 1)
	res.reportUsage(use, cfg.Trace)

	if cfg.Trace {
		// Open loop at a fixed rate, timed from when each request was due.
		open := newHotDraw(cfg.Seed, env.refs, callers, 100)
		ph := loadgen.Open(ctx, callers, hotRate, time.Duration(cfg.Seconds*traceOpenShare*float64(time.Second)), hotDo(clients, open))
		res.reportOpen("serve_hot", ph, hotRate)
		res.reportSources(closed)
		res.setTail("lat_ms_p90", lat, 0.90)
		res.setTail("lat_ms_p99", lat, 0.99)
	}

	// The daemon's own account, then a clean shutdown.
	st, err := clients[0].Stats(ctx)
	if err != nil {
		return nil, err
	}
	res.check(st.Computed == 0 && st.Rejected == 0, "serve_hot: daemon computed %d cells and refused %d requests; the workload is all hits", st.Computed, st.Rejected)
	stopped = true
	if err := env.d.stop(); err != nil {
		return nil, err
	}
	logf(cfg, "serve_hot: %d closed-loop requests in %.2fs, daemon LRU hit ratio %.3f",
		len(closed.Samples), closed.Wall.Seconds(), float64(st.CacheHits)/float64(max(st.CacheHits+st.CacheMisses, 1)))
	if !cfg.Trace {
		return res, nil
	}
	res.set("serve.cache_hit_ratio", float64(st.CacheHits)/float64(max(st.CacheHits+st.CacheMisses, 1)))
	res.set("serve.coalesced", float64(st.Coalesced))
	res.set("serve.rejected_429", float64(st.Rejected))
	res.set("backend.store_hits", float64(st.StoreHits))
	res.set("backend.memo_hits", float64(st.MemoHits))
	res.set("backend.computed", float64(st.Computed))
	res.set("backend.rejected", float64(st.Rejected))

	tracedLat, err := hotTraced(ctx, cfg, res, env)
	if err != nil {
		return nil, err
	}
	res.set("trace.overhead_ratio", stat.Median(tracedLat)/stat.Median(lat))
	return res, nil
}

// hotTraced is the traced pass: the same store behind an in-process
// serve.Server on a loopback listener, driven closed-loop only (a sender
// spinning on every P of the process that also hosts the server starves
// the netpoller, so open-loop numbers from here would be the
// generator's), with client and handler spans per request.
func hotTraced(ctx context.Context, cfg Config, res *Result, env *hotEnv) ([]float64, error) {
	rec := span.NewRecorder()
	st, err := store.Open(env.dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	logs := &recordCounter{}
	srv := serve.New(st, serve.Options{Logger: slog.New(logs)})
	ts, err := startTraced(rec, "serve.Handler", srv, logs)
	if err != nil {
		return nil, err
	}
	defer ts.close(ctx)

	callers := Callers()
	clients := newClients(ts.URL)
	draw := newHotDraw(cfg.Seed, env.refs, callers, 200)
	var ops atomic.Int64
	ph := loadgen.Closed(ctx, callers, time.Duration(cfg.Seconds*traceTracedShare*float64(time.Second)),
		func(ctx context.Context, caller, _ int) loadgen.Outcome {
			op := ops.Add(1)
			ref := draw.next(caller)
			root := rec.Start(op, span.NoParent, "request")
			rtt := rec.Start(op, root, "serve.Client.Place")
			resp, err := clients[caller].Place(withOp(ctx, op, rtt), ref.req)
			rec.End(rtt)
			rec.End(root)
			if err != nil {
				return loadgen.Outcome{Why: err.Error()}
			}
			return loadgen.Outcome{OK: resp.Result == ref.want, Source: sourceCode(resp.Source), Why: "answer differs from the reference cell"}
		})
	lat, _ := latencies(res, "serve_hot traced", ph, 1)

	// Client round trip, the handler inside it, and what is left: the
	// socket, the HTTP machinery on both ends, the scheduler.
	spans := rec.Spans()
	self := span.SelfTimes(spans)
	var rttUs, transportUs []float64
	for _, s := range spans {
		if s.Name == "serve.Client.Place" {
			rttUs = append(rttUs, float64(s.Duration())/1e3)
			transportUs = append(transportUs, float64(self[s.ID])/1e3)
		}
	}
	res.setP50("serve.client_rtt_us_p50", rttUs)
	res.setP50("serve.transport_us_p50", transportUs)

	// Reconciliation (reported, not gated): what the client saw minus
	// what the server says it spent. The difference is loopback transport
	// plus client-side JSON; on this class of box it should fit in about
	// 150 us, and a server-side stage that under-reports would push it up.
	reported := float64(srv.Stats().Stages["http_place"].P50NS) / 1e3
	res.set("serve.http_place_us_p50_reported", reported)
	res.set("serve.client_minus_server_us_p50", stat.Median(rttUs)-reported)
	logf(cfg, "serve_hot: reconciliation: client rtt p50 %.1f us - server http_place p50 %.1f us = %.1f us (loopback budget ~150 us)",
		stat.Median(rttUs), reported, stat.Median(rttUs)-reported)
	// The server logged every request it was sent, with its source.
	res.check(logs.count() == len(ph.Samples), "serve_hot: server logged %d requests, the generator sent %d", logs.count(), len(ph.Samples))

	if err := hotProbes(ctx, res, env, st, ts); err != nil {
		return nil, err
	}
	res.reportTrace(spans)
	return lat, writeTrace(cfg, "serve_hot", spans)
}

// hotProbes times the hit path one layer at a time, without a socket
// where the layer has none.
func hotProbes(ctx context.Context, res *Result, env *hotEnv, st *store.Store, ts *tracedServer) error {
	// serve: the handler alone. Each probed spec is requested twice: the
	// first is an LRU miss answered by the store, the second an LRU hit.
	// A fresh server, so nothing is cached yet.
	fresh := serve.New(st, serve.Options{})
	h := fresh.Handler()
	post := func(ref cellRef) (float64, bool) {
		body, err := json.Marshal(ref.req)
		if err != nil {
			return 0, false
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/place", bytes.NewReader(body))
		w := httptest.NewRecorder()
		ns := timeNs(func() { h.ServeHTTP(w, req) })
		return float64(ns) / 1e3, w.Code == http.StatusOK
	}
	var storeHitUs, cacheHitUs []float64
	for _, ref := range env.refs[:300] {
		a, ok1 := post(ref)
		b, ok2 := post(ref)
		res.check(ok1 && ok2, "serve_hot: handler probe for %v failed", ref.req)
		storeHitUs, cacheHitUs = append(storeHitUs, a), append(cacheHitUs, b)
	}
	res.setP50("serve.handler_store_hit_us_p50", storeHitUs)
	res.setP50("serve.handler_cache_hit_us_p50", cacheHitUs)

	// serve.Remote: one hop to the in-process server, answered by its LRU.
	remote := serve.NewRemote(newClient(ts.URL), serve.RemoteOptions{})
	var hopUs []float64
	for i := 0; i < 300; i++ {
		ref := env.refs[i%16]
		spec := ref.spec()
		var got store.Result
		var err error
		ns := timeNs(func() { got, _, err = remote.PlaceSourced(ctx, spec) })
		res.check(err == nil && got == ref.want, "serve_hot: Remote.PlaceSourced for %v: %v", ref.req, err)
		hopUs = append(hopUs, float64(ns)/1e3)
	}
	res.setP50("serve.remote_hop_us_p50", hopUs)

	// backend: Local's store-hit path (it rebuilds the graph on every
	// call), and Cached's LRU in front of it.
	local := backend.NewLocal(st, backend.LocalOptions{})
	cached := backend.NewCached(local, backend.CachedOptions{})
	var localUs, cachedNs, resolveUs []float64
	for _, ref := range env.refs[:300] {
		spec := ref.spec()
		var src backend.Source
		var err error
		ns := timeNs(func() { _, src, err = local.PlaceSourced(ctx, spec) })
		res.check(err == nil && src == backend.SourceStore, "serve_hot: Local.PlaceSourced for %v: source %q, %v", ref.req, src, err)
		localUs = append(localUs, float64(ns)/1e3)
		if _, _, err := cached.PlaceSourced(ctx, spec); err != nil {
			return err
		}
		cachedNs = append(cachedNs, float64(timeNs(func() { _, _, err = cached.PlaceSourced(ctx, spec) })))
		resolveUs = append(resolveUs, float64(timeNs(func() { _, err = sweep.ResolveNet(spec.Net) }))/1e3)
	}
	res.setP50("backend.local_hit_us_p50", localUs)
	res.setP50("backend.cached_hit_ns_p50", cachedNs)
	res.setP50("sweep.resolve_net_us_p50", resolveUs)
	var fpUs []float64
	for _, name := range smallNets {
		net, err := sweep.ResolveNet(name)
		if err != nil {
			return err
		}
		for i := 0; i < 50; i++ {
			fpUs = append(fpUs, float64(timeNs(func() { net.Graph.Fingerprint() }))/1e3)
		}
	}
	res.setP50("graph.fingerprint_us_p50", fpUs)

	// obs: the guard. One Observe against a ~50 us request.
	reg := obs.NewRegistry()
	stages := []string{obs.StageStoreRead, obs.StageSolve, obs.StageMatrix, obs.StageStoreWrite, "http_place"}
	const n = 200_000
	ns := timeNs(func() {
		for i := 0; i < n; i++ {
			reg.Observe(ctx, stages[i%len(stages)], time.Duration(i))
		}
	})
	res.setN("obs.observe_ns", float64(ns)/n, n)
	var snapUs []float64
	for i := 0; i < 200; i++ {
		snapUs = append(snapUs, float64(timeNs(func() { reg.Snapshot() }))/1e3)
	}
	res.setP50("obs.snapshot_us", snapUs)
	return nil
}
