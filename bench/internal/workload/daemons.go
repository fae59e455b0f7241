package workload

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lowlat/bench/internal/loadgen"
	"lowlat/bench/internal/proc"
	"lowlat/bench/internal/span"
	"lowlat/bench/internal/stat"
	"lowlat/internal/obs"
	"lowlat/internal/serve"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// This file is what the two daemon workloads share: seeding stores,
// running and measuring lowlatd child processes, per-connection clients,
// turning driven phases into metrics, and the in-process servers of the
// traced pass.

// A traced run of a daemon workload splits its time three ways: the
// closed loop against real processes, the open loop against them (the
// longest share: a p99 needs a thousand requests, and cluster_mixed
// offers 300 a second), and the in-process traced pass.
const (
	traceClosedShare = 0.2
	traceOpenShare   = 0.45
	traceTracedShare = 0.3
)

// smallNets are the topologies the serving workloads are seeded with:
// cells cheap enough to compute by the thousand during setup.
var smallNets = []string{"star-6", "ring-8"}

// seedLoads are the two operating points seeded per (net, seed, scheme);
// predicted requests ask for the point between them.
var seedLoads = []float64{0.6, 0.7}

// cellRef is one seeded cell: the request that asks for it and the
// result the reference store holds.
type cellRef struct {
	req  serve.PlaceRequest
	want store.Result
}

// spec is the request as the backends take it.
func (c cellRef) spec() store.CellSpec {
	return store.CellSpec{Net: c.req.Net, Seed: c.req.Seed, Scheme: c.req.Scheme, Load: c.req.Load, Locality: 1}
}

// seedGrid is the (nets x seeds x schemes) grid at one load.
func seedGrid(seed int64, seeds int, load float64) sweep.Grid {
	g := sweep.Grid{Nets: smallNets, Schemes: placeSchemes, Load: load}
	for i := 0; i < seeds; i++ {
		g.Seeds = append(g.Seeds, seed*1_000_003+int64(i)+1)
	}
	return g
}

// seedStore fills a fresh store at dir with the seed grids through
// sweep.Run and returns the reference cells in store order.
func seedStore(ctx context.Context, dir string, seed int64, seeds int) ([]cellRef, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	for _, load := range seedLoads {
		if _, err := sweep.Run(ctx, st, seedGrid(seed, seeds, load), sweep.Options{}); err != nil {
			return nil, fmt.Errorf("seed store: %w", err)
		}
	}
	return refsOf(st.Results()), nil
}

func refsOf(results []store.Result) []cellRef {
	refs := make([]cellRef, len(results))
	for i, r := range results {
		refs[i] = cellRef{
			req:  serve.PlaceRequest{Net: r.Meta.Net, Seed: r.Meta.Seed, Scheme: r.Meta.Scheme, Load: r.Meta.Load},
			want: r,
		}
	}
	return refs
}

// newClient returns a typed client with a connection pool of its own, so
// each caller of a driven phase owns exactly one connection.
func newClient(baseURL string) *serve.Client {
	return &serve.Client{
		BaseURL: baseURL,
		HTTPClient: &http.Client{
			Transport: &http.Transport{MaxIdleConns: 2, MaxIdleConnsPerHost: 2, IdleConnTimeout: time.Minute},
			Timeout:   20 * time.Second,
		},
	}
}

// newClients returns one client per caller.
func newClients(baseURL string) []*serve.Client {
	clients := make([]*serve.Client, Callers())
	for i := range clients {
		clients[i] = newClient(baseURL)
	}
	return clients
}

// fleet is the lowlatd processes of one workload.
type fleet []*proc.Daemon

// stop shuts every daemon down and reaps it; the first error wins.
func (f fleet) stop() error {
	var first error
	for _, d := range f {
		if err := d.Stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// kill is stop for error paths.
func (f fleet) kill() {
	for _, d := range f {
		d.Kill()
	}
}

func (f fleet) pids() []string {
	out := make([]string, len(f))
	for i, d := range f {
		out[i] = d.PidString()
	}
	return out
}

// cpu sums the daemons' user + system time.
func (f fleet) cpu() (time.Duration, error) {
	var total time.Duration
	for _, d := range f {
		cpu, err := d.CPU()
		if err != nil {
			return 0, err
		}
		total += cpu
	}
	return total, nil
}

// heap sums the daemons' allocation counters.
func (f fleet) heap(ctx context.Context) (proc.Heap, error) {
	var total proc.Heap
	for _, d := range f {
		h, err := d.Heap(ctx)
		if err != nil {
			return total, err
		}
		total = total.Add(h)
	}
	return total, nil
}

// fleetSlice is how long one round of a fleet's meter lasts.
const fleetSlice = 500 * time.Millisecond

// measure drives one phase against the fleet and reports what the
// daemons — not the generator — consumed: CPU from /proc/<pid>/stat cut
// into half-second rounds against the count of completed requests,
// allocation from each daemon's debug listener before and after, RSS
// sampled throughout.
func (f fleet) measure(ctx context.Context, drive func(count *atomic.Int64) loadgen.Phase) (loadgen.Phase, usage, error) {
	var u usage
	heap0, err := f.heap(ctx)
	if err != nil {
		return loadgen.Phase{}, u, err
	}
	rss := proc.SampleRSS(f.pids()...)
	var count atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(fleetSlice)
		defer t.Stop()
		lastAt, lastN := time.Now(), int64(0)
		lastCPU, _ := f.cpu()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				n := count.Load()
				cpu, err := f.cpu()
				if err != nil || n == lastN {
					continue
				}
				ops := float64(n - lastN)
				u.wallS = append(u.wallS, now.Sub(lastAt).Seconds()/ops)
				u.cpuMs = append(u.cpuMs, float64((cpu-lastCPU).Nanoseconds())/1e6/ops)
				lastAt, lastN, lastCPU = now, n, cpu
			}
		}
	}()
	ph := drive(&count)
	close(stop)
	wg.Wait()

	u.peakRSS = rss.Stop()
	heap1, err := f.heap(ctx)
	if err != nil {
		return ph, u, err
	}
	u.wall = ph.Wall
	u.ops = len(ph.Samples)
	u.latMs = sliceMedians(ph)
	u.heap = heap1.Sub(heap0)
	n := float64(max(u.ops, 1))
	u.allocKB = []float64{float64(u.heap.TotalAlloc) / 1024 / n}
	u.mallocs = []float64{float64(u.heap.Mallocs) / n}
	return ph, u, nil
}

// sliceMedians cuts a phase into fleetSlice rounds by reply time and
// returns each round's median latency in milliseconds.
func sliceMedians(ph loadgen.Phase) []float64 {
	buckets := make(map[int64][]float64)
	var last int64
	for _, s := range ph.Samples {
		i := s.DoneNs / fleetSlice.Nanoseconds()
		buckets[i] = append(buckets[i], float64(s.LatNs)/1e6)
		last = max(last, i)
	}
	var out []float64
	for i := int64(0); i <= last; i++ {
		if len(buckets[i]) > 0 {
			out = append(out, stat.Median(buckets[i]))
		}
	}
	return out
}

// counted wraps a request function so the fleet's meter sees completions.
func counted(count *atomic.Int64, do loadgen.Do) loadgen.Do {
	return func(ctx context.Context, caller, seq int) loadgen.Outcome {
		out := do(ctx, caller, seq)
		count.Add(1)
		return out
	}
}

// Source codes for loadgen.Outcome.Source.
const (
	srcOther = iota
	srcCache
	srcStore
	srcComputed
	srcPredicted
)

var sourceNames = []string{srcCache: "cache", srcStore: "store", srcComputed: "computed", srcPredicted: "predicted"}

func sourceCode(s string) int {
	for code := srcCache; code < len(sourceNames); code++ {
		if sourceNames[code] == s {
			return code
		}
	}
	return srcOther
}

// latencies splits a phase's samples into latency (ms) overall and per
// class, counting failures into res.
func latencies(res *Result, what string, ph loadgen.Phase, classes int) (all []float64, byClass [][]float64) {
	byClass = make([][]float64, classes)
	for _, s := range ph.Samples {
		res.Attempted++
		if !s.OK {
			res.fail("%s: request failed: %s", what, s.Why)
		}
		v := float64(s.LatNs) / 1e6
		all = append(all, v)
		if s.Class < classes {
			byClass[s.Class] = append(byClass[s.Class], v)
		}
	}
	return all, byClass
}

// reportOpen reports an open-loop phase: latency from the due instant,
// the generator's own lateness, and whether the phase is valid.
func (r *Result) reportOpen(what string, ph loadgen.Phase, rate float64) {
	lat, _ := latencies(r, what, ph, 1)
	p50 := stat.Median(lat)
	r.setN("open_lat_ms_p50", p50, len(lat))
	r.setTail("open_lat_ms_p99", lat, 0.99)
	var lag, backlog []float64
	for _, s := range ph.Samples {
		lag = append(lag, float64(s.LagNs)/1e3)
		backlog = append(backlog, float64(s.BacklogNs)/1e3)
	}
	r.setP50("loadgen.send_lag_us_p50", lag)
	r.setTail("loadgen.send_lag_us_p99", lag, 0.99)
	r.setTail("loadgen.backlog_us_p99", backlog, 0.99)
	r.set("loadgen.achieved_rps", float64(len(ph.Samples))/ph.Wall.Seconds())
	if len(ph.Samples) != ph.Offered {
		r.fail("%s: open loop issued %d of the %d requests scheduled at %.0f req/s", what, len(ph.Samples), ph.Offered, rate)
	}
	// The generator must not be the thing measured: its own lateness has
	// to stay under a tenth of the latency it reports.
	if lagP50 := stat.Median(lag); lagP50 > p50*1e3/10 {
		r.Findings = append(r.Findings, fmt.Sprintf(
			"%s: open-loop phase INVALID: generator send lag p50 %.1f us exceeds a tenth of open_lat_ms_p50 (%.3f ms)", what, lagP50, p50))
	}
}

// reportSources reports where a phase's answers came from.
func (r *Result) reportSources(ph loadgen.Phase) {
	counts := make([]int, len(sourceNames))
	for _, s := range ph.Samples {
		if s.Source > srcOther && s.Source < len(counts) {
			counts[s.Source]++
		}
	}
	n := float64(max(len(ph.Samples), 1))
	for code := srcCache; code < len(sourceNames); code++ {
		r.set("loadgen.source_share."+sourceNames[code], float64(counts[code])/n)
	}
}

// tracedServer is an in-process serve.Server on a loopback listener, its
// handler wrapped so every request becomes a span carrying the caller's
// operation id — the traced pass's stand-in for a lowlatd process, so
// that handler, transport and remote-hop time can be told apart.
type tracedServer struct {
	URL  string
	http *http.Server
	done chan error
	logs *recordCounter
}

// opHeader carries "<op>.<parent span>" from the traced client to the
// servers it reaches; serve forwards X-Request-ID down every hop, so the
// request id is the vehicle.
func traceID(op int64, parent int) string { return fmt.Sprintf("b%d.%d", op, parent) }

func parseTraceID(id string) (op int64, parent int, ok bool) {
	rest, found := strings.CutPrefix(id, "b")
	a, b, cut := strings.Cut(rest, ".")
	if !found || !cut {
		return 0, 0, false
	}
	op, err1 := strconv.ParseInt(a, 10, 64)
	parent, err2 := strconv.Atoi(b)
	return op, parent, err1 == nil && err2 == nil
}

// withOp attaches the operation's trace id to ctx.
func withOp(ctx context.Context, op int64, parent int) context.Context {
	return obs.WithTrace(ctx, obs.NewTrace(traceID(op, parent)))
}

// startTraced serves srv on 127.0.0.1:0, recording a span named name
// around every request that carries an operation id.
func startTraced(rec *span.Recorder, name string, srv *serve.Server, logs *recordCounter) (*tracedServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("traced server: %w", err)
	}
	inner := srv.Handler()
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, parent, ok := parseTraceID(r.Header.Get(obs.RequestIDHeader))
		if !ok {
			inner.ServeHTTP(w, r)
			return
		}
		id := rec.Start(op, parent, name)
		// Hops further down become children of this span: serve forwards
		// the request id it was handed.
		r.Header.Set(obs.RequestIDHeader, traceID(op, id))
		inner.ServeHTTP(w, r)
		rec.End(id)
	})
	ts := &tracedServer{
		URL:  "http://" + ln.Addr().String(),
		http: &http.Server{Handler: h},
		done: make(chan error, 1), // one send: Serve's result
		logs: logs,
	}
	go func() { ts.done <- ts.http.Serve(ln) }()
	return ts, nil
}

// close shuts the listener down and waits for the serving goroutine.
func (ts *tracedServer) close(ctx context.Context) {
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	_ = ts.http.Shutdown(sctx)
	<-ts.done
}

// recordCounter is a slog.Handler that counts request records instead of
// writing them anywhere: the server's own account of how many requests
// it served, through serve.Options.Logger.
type recordCounter struct {
	n atomic.Int64
}

// Enabled implements slog.Handler.
func (c *recordCounter) Enabled(context.Context, slog.Level) bool { return true }

// Handle implements slog.Handler.
func (c *recordCounter) Handle(context.Context, slog.Record) error {
	c.n.Add(1)
	return nil
}

// WithAttrs implements slog.Handler.
func (c *recordCounter) WithAttrs([]slog.Attr) slog.Handler { return c }

// WithGroup implements slog.Handler.
func (c *recordCounter) WithGroup(string) slog.Handler { return c }

// count returns how many records were logged.
func (c *recordCounter) count() int { return int(c.n.Load()) }
