package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lowlat/internal/backend"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// Note: this suite runs on the project's 1-CPU CI box; scenarios stay on
// the tiny star-6/ring-8 networks so the whole file finishes in seconds,
// and nothing here assumes a second core — concurrency is exercised with
// goroutines against Workers:1 servers.

// newTestServer wires a Server over b into an httptest server and a
// Client talking to it.
func newTestServer(t *testing.T, b backend.Backend, opts Options) (*Server, *Client) {
	t.Helper()
	s := NewBackendServer(b, opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	c.HTTPClient = ts.Client()
	return s, c
}

// TestNewMountsDefaultBackend pins what New builds for a bare store: a
// default Local backend over either kind, reporting itself as "local"
// over a writable store and as "store" over a read-only one.
func TestNewMountsDefaultBackend(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l, ok := New(st, Options{}).Backend().(*backend.Local); !ok || l.Stats().Backend != "local" {
		t.Fatal("New over a writable store does not mount a \"local\" *backend.Local")
	}
	st.Close()
	ro, err := store.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if l, ok := New(ro, Options{}).Backend().(*backend.Local); !ok || l.Stats().Backend != "store" {
		t.Fatal("New over a read-only store does not mount a \"store\" *backend.Local")
	}
}

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.OpenSharded(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestKillAndCoalesce is the subsystem's acceptance test: with Workers:1,
// N concurrent /v1/place requests for one store-missing cell produce
// exactly one engine invocation, every request succeeds, the cell lands
// in the store, and a repeat request is served from the LRU with no new
// invocation.
func TestKillAndCoalesce(t *testing.T) {
	const clients = 8
	st := openStore(t)
	entered := make(chan store.CellKey, 1)
	release := make(chan struct{})
	var invocations atomic.Int64
	s, c := newTestServer(t, backend.NewLocal(st, backend.LocalOptions{
		Workers:     1,
		MaxInflight: 1,
		OnPlace: func(k store.CellKey) {
			invocations.Add(1)
			select {
			case entered <- k:
				<-release // hold the flight open so every client must coalesce
			default:
			}
		},
	}), Options{})

	req := PlaceRequest{Net: "star-6", Seed: 1, Scheme: "sp"}
	var wg sync.WaitGroup
	type reply struct {
		resp *PlaceResponse
		err  error
	}
	replies := make([]reply, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := c.Place(context.Background(), req)
			replies[i] = reply{r, err}
		}(i)
	}

	// The leader is parked inside the engine invocation; every other
	// client must join its flight (or, if it arrives later, hit the
	// cache — either way no second invocation is possible). Wait until
	// the non-leaders are accounted for, then let the computation finish.
	key := <-entered
	deadline := time.After(10 * time.Second)
	for s.Stats().Coalesced < clients-1 {
		select {
		case <-deadline:
			t.Fatalf("only %d of %d clients coalesced; stats %+v", s.Stats().Coalesced, clients-1, s.Stats())
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()

	for i, r := range replies {
		if r.err != nil {
			t.Fatalf("client %d: %v", i, r.err)
		}
		if r.resp.Source != "computed" {
			t.Fatalf("client %d: source %q, want computed (coalesced onto one flight)", i, r.resp.Source)
		}
		if r.resp.Result.Key != key {
			t.Fatalf("client %d: key %v, want %v", i, r.resp.Result.Key, key)
		}
	}
	if n := invocations.Load(); n != 1 {
		t.Fatalf("%d engine invocations for one coalesced key, want exactly 1", n)
	}
	if _, ok := st.Get(key); !ok {
		t.Fatal("computed cell did not land in the store")
	}

	// A repeat request is a cache hit: the hit counter moves, the
	// invocation counter does not.
	before := s.Stats().CacheHits
	again, err := c.Place(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Source != "cache" {
		t.Fatalf("repeat place source %q, want cache", again.Source)
	}
	if got := s.Stats().CacheHits; got != before+1 {
		t.Fatalf("cache hits %d -> %d, want +1", before, got)
	}
	if n := invocations.Load(); n != 1 {
		t.Fatalf("repeat request re-invoked the engine (%d invocations)", n)
	}
	if got := s.Stats().Computed; got != 1 {
		t.Fatalf("stats computed = %d, want 1", got)
	}
}

// TestPlaceBackpressure pins the 429 contract: beyond MaxInflight
// admitted computations, a request for a distinct cell is rejected
// immediately, and succeeds once the slot frees.
func TestPlaceBackpressure(t *testing.T) {
	st := openStore(t)
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s, c := newTestServer(t, backend.NewLocal(st, backend.LocalOptions{
		Workers:     1,
		MaxInflight: 1,
		OnPlace: func(store.CellKey) {
			select {
			case entered <- struct{}{}:
				<-release
			default:
			}
		},
	}), Options{})

	done := make(chan error, 1)
	go func() {
		_, err := c.Place(context.Background(), PlaceRequest{Net: "star-6", Seed: 1, Scheme: "sp"})
		done <- err
	}()
	<-entered

	// The slot is held; a different cell cannot be admitted.
	_, err := c.Place(context.Background(), PlaceRequest{Net: "ring-8", Seed: 1, Scheme: "sp"})
	var se *StatusError
	if !asStatus(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("over-limit place returned %v, want 429", err)
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("held place failed: %v", err)
	}
	resp, err := c.Place(context.Background(), PlaceRequest{Net: "ring-8", Seed: 1, Scheme: "sp"})
	if err != nil {
		t.Fatalf("retry after 429 failed: %v", err)
	}
	if resp.Source != "computed" {
		t.Fatalf("retry source %q, want computed", resp.Source)
	}
}

func asStatus(err error, out **StatusError) bool {
	se, ok := err.(*StatusError)
	if ok {
		*out = se
	}
	return ok
}

// TestParallelClientsRaceClean hammers the daemon from many goroutines
// over a mix of identical and distinct keys plus concurrent queries; run
// under -race this is the serving hot path's locking test. Every distinct
// key computes exactly once however the requests interleave.
func TestParallelClientsRaceClean(t *testing.T) {
	st := openStore(t)
	var invocations atomic.Int64
	perKey := make(map[store.CellKey]*atomic.Int64)
	var mu sync.Mutex
	_, c := newTestServer(t, backend.NewLocal(st, backend.LocalOptions{
		Workers:     1,
		MaxInflight: 64,
		OnPlace: func(k store.CellKey) {
			invocations.Add(1)
			mu.Lock()
			if perKey[k] == nil {
				perKey[k] = &atomic.Int64{}
			}
			perKey[k].Add(1)
			mu.Unlock()
		},
	}), Options{})

	reqs := []PlaceRequest{
		{Net: "star-6", Seed: 1, Scheme: "sp"},
		{Net: "star-6", Seed: 2, Scheme: "sp"},
		{Net: "star-6", Seed: 1, Scheme: "minmax"},
		{Net: "ring-8", Seed: 1, Scheme: "sp"},
	}
	const perReq = 6
	var wg sync.WaitGroup
	errs := make(chan error, len(reqs)*perReq+perReq)
	for _, r := range reqs {
		for i := 0; i < perReq; i++ {
			wg.Add(1)
			go func(r PlaceRequest) {
				defer wg.Done()
				if _, err := c.Place(context.Background(), r); err != nil {
					errs <- err
				}
			}(r)
		}
	}
	// Queries race the placements: the store index and LRU see
	// concurrent readers and writers.
	for i := 0; i < perReq; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Query(context.Background(), sweep.Filter{}); err != nil {
				errs <- err
			}
			if _, err := c.Stats(context.Background()); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if len(perKey) != len(reqs) {
		t.Fatalf("%d distinct keys computed, want %d", len(perKey), len(reqs))
	}
	for k, n := range perKey {
		if n.Load() != 1 {
			t.Fatalf("key %v computed %d times, want exactly 1", k, n.Load())
		}
	}
	if st.Len() != len(reqs) {
		t.Fatalf("store holds %d cells, want %d", st.Len(), len(reqs))
	}
}

// TestPlaceServesSweptStoreViaMemo pins daemon warm-up over a store a
// sweep filled: the calibration memo yields the cell key without matrix
// regeneration, and the stored cell is served with zero engine work.
func TestPlaceServesSweptStoreViaMemo(t *testing.T) {
	st := openStore(t)
	grid := sweep.Grid{Nets: []string{"star-6"}, Seeds: []int64{1}, Schemes: []string{"sp"}}
	if _, err := sweep.Run(context.Background(), st, grid, sweep.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	var invocations atomic.Int64
	s, c := newTestServer(t, backend.NewLocal(st, backend.LocalOptions{
		Workers: 1,
		OnPlace: func(store.CellKey) { invocations.Add(1) },
	}), Options{})

	resp, err := c.Place(context.Background(), PlaceRequest{Net: "star-6", Seed: 1, Scheme: "sp"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != "store" {
		t.Fatalf("source %q, want store (memo-derived key, swept cell)", resp.Source)
	}
	if invocations.Load() != 0 {
		t.Fatal("serving a swept cell invoked the engine")
	}
	stats := s.Stats()
	if stats.MemoHits != 1 || stats.StoreHits != 1 || stats.Computed != 0 {
		t.Fatalf("stats %+v, want 1 memo hit, 1 store hit, 0 computed", stats)
	}

	// The same cell requested by key also round-trips.
	cell, err := c.Cell(context.Background(), resp.Result.Key.String())
	if err != nil {
		t.Fatal(err)
	}
	if cell != resp.Result {
		t.Fatalf("cell lookup %+v != place result %+v", cell, resp.Result)
	}
}

// TestPredictServeOption pins a predictive tier served end to end, built
// the way lowlatd -predict builds it: a daemon over a swept store, trained
// from one query before serving, answers an interior operating point by
// interpolation — no engine work, the predicted marker set, the counters
// visible in stats — while predicted estimates stay out of the LRU (they
// have no content key to cache under).
func TestPredictServeOption(t *testing.T) {
	st := openStore(t)
	for _, load := range []float64{0.6, 0.7} {
		grid := sweep.Grid{Nets: []string{"star-6"}, Seeds: []int64{1, 2}, Schemes: []string{"sp"}, Load: load}
		if _, err := sweep.Run(context.Background(), st, grid, sweep.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var invocations atomic.Int64
	local := backend.NewLocal(st, backend.LocalOptions{
		Workers: 1,
		OnPlace: func(store.CellKey) { invocations.Add(1) },
	})
	pb := backend.NewPredictive(local, backend.PredictiveOptions{})
	pb.Train(local.Query(sweep.Filter{}))
	t.Cleanup(func() { pb.Close() })
	s, c := newTestServer(t, pb, Options{})

	req := PlaceRequest{Net: "star-6", Seed: 5, Scheme: "sp", Load: 0.65}
	resp, err := c.Place(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != "predicted" || !resp.Predicted {
		t.Fatalf("source %q predicted=%v, want a predicted answer", resp.Source, resp.Predicted)
	}
	if resp.Result.Key != (store.CellKey{}) {
		t.Fatalf("predicted result carries content key %s", resp.Result.Key)
	}
	if invocations.Load() != 0 {
		t.Fatal("trained-region place invoked the engine")
	}

	// The repeat request is predicted again, not served from the LRU:
	// estimates are never cached.
	again, err := c.Place(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Source != "predicted" {
		t.Fatalf("repeat source %q, want predicted", again.Source)
	}

	stats := s.Stats()
	if stats.Backend != "predictive+local" {
		t.Fatalf("stats backend %q", stats.Backend)
	}
	if stats.Predicted != 2 || stats.CacheHits != 0 || stats.CachedEntries != 0 {
		t.Fatalf("stats %+v, want 2 predicted, nothing cached", stats)
	}
	if stats.Surfaces != 1 || stats.SurfaceSamples != 4 {
		t.Fatalf("index gauges %d/%d, want 1 surface, 4 samples", stats.Surfaces, stats.SurfaceSamples)
	}

	// An untrained operating point exercises the exact path through the
	// same daemon and lands in the store as usual.
	far, err := c.Place(context.Background(), PlaceRequest{Net: "ring-8", Seed: 1, Scheme: "sp"})
	if err != nil {
		t.Fatal(err)
	}
	if far.Predicted || far.Source != "computed" {
		t.Fatalf("untrained net: source %q predicted=%v, want computed", far.Source, far.Predicted)
	}
	if invocations.Load() != 1 {
		t.Fatalf("%d invocations after one fallback, want 1", invocations.Load())
	}
	if got := s.Stats().PredictFallbacks; got != 1 {
		t.Fatalf("predict_fallbacks = %d, want 1", got)
	}
}

// TestReadOnlyStore pins the read-only daemon: stored cells serve, a cell
// that would need computing answers 403, and nothing is written.
func TestReadOnlyStore(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	grid := sweep.Grid{Nets: []string{"star-6"}, Seeds: []int64{1}, Schemes: []string{"sp"}}
	if _, err := sweep.Run(context.Background(), st, grid, sweep.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	ro, err := store.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	_, c := newTestServer(t, backend.NewLocal(ro, backend.LocalOptions{}), Options{})

	resp, err := c.Place(context.Background(), PlaceRequest{Net: "star-6", Seed: 1, Scheme: "sp"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != "store" {
		t.Fatalf("read-only place source %q, want store", resp.Source)
	}

	_, err = c.Place(context.Background(), PlaceRequest{Net: "star-6", Seed: 1, Scheme: "minmax"})
	var se *StatusError
	if !asStatus(err, &se) || se.Code != http.StatusForbidden {
		t.Fatalf("read-only compute returned %v, want 403", err)
	}
}

func TestPlaceValidation(t *testing.T) {
	st := openStore(t)
	_, c := newTestServer(t, backend.NewLocal(st, backend.LocalOptions{Workers: 1}), Options{})
	neg := -1.0
	for name, req := range map[string]PlaceRequest{
		"missing net":    {Scheme: "sp"},
		"missing scheme": {Net: "star-6"},
		"unknown scheme": {Net: "star-6", Scheme: "frob"},
		"unknown net":    {Net: "no-such-net", Scheme: "sp"},
		"multi net":      {Net: "zoo", Scheme: "sp"},
		"bad headroom":   {Net: "star-6", Scheme: "ldr", Headroom: 1.5},
		"bad load":       {Net: "star-6", Scheme: "sp", Load: 7},
		"bad locality":   {Net: "star-6", Scheme: "sp", Locality: &neg},
	} {
		_, err := c.Place(context.Background(), req)
		var se *StatusError
		if !asStatus(err, &se) || se.Code != http.StatusBadRequest {
			t.Errorf("%s: %v, want 400", name, err)
		}
	}
	if _, err := c.Cell(context.Background(), "not-a-key"); err == nil {
		t.Error("bad cell key accepted")
	}
	var se *StatusError
	_, err := c.Cell(context.Background(), "g0000000000000000-m0000000000000000-c0000000000000000-sp")
	if !asStatus(err, &se) || se.Code != http.StatusNotFound {
		t.Errorf("missing cell returned %v, want 404", err)
	}
}

// TestGracefulDrain pins shutdown semantics: cancelling the serve context
// stops accepting but lets the in-flight computation finish and its
// response go out before Serve returns.
func TestGracefulDrain(t *testing.T) {
	st := openStore(t)
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s := NewBackendServer(backend.NewLocal(st, backend.LocalOptions{
		Workers: 1,
		OnPlace: func(store.CellKey) {
			select {
			case entered <- struct{}{}:
				<-release
			default:
			}
		},
	}), Options{DrainTimeout: 30 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()

	c := NewClient("http://" + ln.Addr().String())
	placed := make(chan error, 1)
	go func() {
		_, err := c.Place(context.Background(), PlaceRequest{Net: "star-6", Seed: 1, Scheme: "sp"})
		placed <- err
	}()
	<-entered

	cancel()
	select {
	case err := <-served:
		t.Fatalf("Serve returned before draining in-flight work: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-placed; err != nil {
		t.Fatalf("in-flight place failed during drain: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve = %v after clean drain, want nil", err)
	}
}

// --- golden responses ---

// goldenStore hand-inserts fixed cells (no solver involved) so the JSON
// bodies are stable bytes.
func goldenStore(t *testing.T) *store.Store {
	st := openStore(t)
	cells := []store.Result{
		{
			Key: store.CellKey{Graph: 0x0a, Matrix: 0x01, Scheme: "sp", Config: 0xf1},
			Meta: store.Meta{Net: "star-6", Class: "star", Seed: 1, Scheme: "sp",
				Load: 0.75, Locality: 1},
			Metrics: store.Metrics{Congested: 0.25, Stretch: 1.5, MaxStretch: 2, MaxUtil: 0.9, Fits: false},
		},
		{
			Key: store.CellKey{Graph: 0x0b, Matrix: 0x02, Scheme: "sp", Config: 0xf1},
			Meta: store.Meta{Net: "ring-8", Class: "ring", Seed: 1, Scheme: "sp",
				Load: 0.75, Locality: 1},
			Metrics: store.Metrics{Congested: 0, Stretch: 1.25, MaxStretch: 1.5, MaxUtil: 0.5, Fits: true},
		},
		{
			Key: store.CellKey{Graph: 0x0a, Matrix: 0x01, Scheme: "minmax", Config: 0xf2},
			Meta: store.Meta{Net: "star-6", Class: "star", Seed: 1, Scheme: "minmax",
				Load: 0.75, Locality: 1},
			Metrics: store.Metrics{Congested: 0, Stretch: 2, MaxStretch: 3, MaxUtil: 0.75, Fits: true},
		},
	}
	for _, r := range cells {
		if err := st.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// checkGolden compares got against testdata/<name> as a stable
// projection, rewriting the file when UPDATE_GOLDEN=1. Every field the
// golden document records must match the response exactly — values,
// array lengths, nesting — but fields the response has *grown* since the
// golden was recorded are ignored, so adding a counter or a histogram to
// /v1/stats does not churn every golden in testdata. Removing or
// changing a recorded field still fails.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	var wantV, gotV any
	if err := json.Unmarshal(want, &wantV); err != nil {
		t.Fatalf("%s: golden is not JSON: %v", name, err)
	}
	if err := json.Unmarshal(got, &gotV); err != nil {
		t.Fatalf("%s: response is not JSON: %v\n%s", name, err, got)
	}
	if diff := projectDiff("$", wantV, gotV); diff != "" {
		t.Fatalf("%s drifted: %s\n--- got\n%s\n--- want\n%s", name, diff, got, want)
	}
}

// projectDiff reports the first difference between want and got,
// comparing only the structure want records: object keys absent from
// want are ignored in got, everything else must match exactly.
func projectDiff(path string, want, got any) string {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			return fmt.Sprintf("%s: want object, got %T", path, got)
		}
		keys := make([]string, 0, len(w))
		for k := range w {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			gv, ok := g[k]
			if !ok {
				return fmt.Sprintf("%s.%s: missing from response", path, k)
			}
			if d := projectDiff(path+"."+k, w[k], gv); d != "" {
				return d
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok {
			return fmt.Sprintf("%s: want array, got %T", path, got)
		}
		if len(g) != len(w) {
			return fmt.Sprintf("%s: want %d elements, got %d", path, len(w), len(g))
		}
		for i := range w {
			if d := projectDiff(fmt.Sprintf("%s[%d]", path, i), w[i], g[i]); d != "" {
				return d
			}
		}
	default:
		if !reflect.DeepEqual(want, got) {
			return fmt.Sprintf("%s: want %v, got %v", path, want, got)
		}
	}
	return ""
}

func get(t *testing.T, c *Client, path string) []byte {
	t.Helper()
	resp, err := c.httpClient().Get(c.BaseURL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestGoldenResponses pins the /v1/query and /v1/stats wire format: a
// fixed store and a fixed request sequence must produce byte-identical
// JSON bodies.
func TestGoldenResponses(t *testing.T) {
	st := goldenStore(t)
	_, c := newTestServer(t, backend.NewLocal(st, backend.LocalOptions{Workers: 1, MaxInflight: 2}), Options{CacheSize: 16})

	checkGolden(t, "query.golden.json", get(t, c, "/v1/query?scheme=sp"))

	// One cell lookup twice: first from the store, then from the LRU, so
	// the stats golden shows both hit counters moving.
	key := "g000000000000000a-m0000000000000001-c00000000000000f1-sp"
	get(t, c, "/v1/cell?key="+key)
	get(t, c, "/v1/cell?key="+key)

	checkGolden(t, "summary.golden.json", get(t, c, "/v1/summary?points=3"))
	checkGolden(t, "stats.golden.json", get(t, c, "/v1/stats"))
}

func TestSummarize(t *testing.T) {
	st := goldenStore(t)
	sum := Summarize(st.Results(), 3)
	if sum.Cells != 3 || len(sum.Classes) != 2 {
		t.Fatalf("summary = %+v, want 3 cells over 2 classes", sum)
	}
	star := sum.Classes["star"]
	if star == nil || star.Cells != 2 || star.Nets != 1 {
		t.Fatalf("star class = %+v, want 2 cells, 1 net", star)
	}
	if star.FitFraction != 0.5 {
		t.Fatalf("star fit fraction = %g, want 0.5", star.FitFraction)
	}
	cdf := star.Metrics["stretch"]
	// Nearest-rank quantiles round half up: the 2-sample median lands on
	// the larger value.
	want := []CDFPoint{{Q: 0, V: 1.5}, {Q: 0.5, V: 2}, {Q: 1, V: 2}}
	if len(cdf) != 3 || cdf[0] != want[0] || cdf[1] != want[1] || cdf[2] != want[2] {
		t.Fatalf("stretch CDF = %+v, want %+v", cdf, want)
	}
	if empty := Summarize(nil, 3); empty.Cells != 0 || len(empty.Classes) != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
}
