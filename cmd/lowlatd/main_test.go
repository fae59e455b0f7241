package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// syncBuffer is a goroutine-safe writer: the daemon goroutine writes
// while the test polls for the bound address.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	missing := t.TempDir() + "/no-such-store"
	const replica = "http://127.0.0.1:1"
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // a substring stderr must carry
	}{
		{"bad flag", []string{"-no-such-flag"}, 2, ""},
		{"help", []string{"-h"}, 0, ""},
		{"missing -store", nil, 1, "-store is required"},
		// A read-only mount of a store that does not exist must fail
		// loudly instead of serving an empty directory.
		{"missing read-only store", []string{"-store", missing, "-readonly"}, 1, missing},
		// A malformed objective is a usage error, caught before any
		// listener.
		{"bad -slo", []string{"-store", dir, "-slo", "p99 not-a-grammar"}, 2, "-slo"},
		// A flag that does nothing in the chosen mode is a usage error,
		// caught before any store opens or replica is dialled.
		{"-workers with -cluster", []string{"-cluster", replica, "-workers", "2"}, 2, "-workers has no effect with -cluster"},
		{"-max-inflight with -cluster", []string{"-cluster", replica, "-max-inflight", "8"}, 2, "-max-inflight has no effect with -cluster"},
		{"-readonly with -cluster", []string{"-cluster", replica, "-readonly"}, 2, "-readonly has no effect with -cluster"},
		{"-replicas with -store", []string{"-store", dir, "-replicas", "2"}, 2, "-replicas has no effect with -store"},
		{"-anti-entropy with -store", []string{"-store", dir, "-anti-entropy", "1m"}, 2, "-anti-entropy has no effect with -store"},
		{"-workers with -readonly", []string{"-store", dir, "-readonly", "-workers", "2"}, 2, "-workers has no effect with -readonly"},
		{"-max-inflight with -readonly", []string{"-store", dir, "-readonly", "-max-inflight", "8"}, 2, "-max-inflight has no effect with -readonly"},
		{"-predict-refine without -predict", []string{"-store", dir, "-predict-refine"}, 2, "-predict-refine needs -predict"},
		{"-predict-refine with -readonly", []string{"-store", dir, "-readonly", "-predict", "-predict-refine"}, 2, "-readonly"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(context.Background(), tc.args, &out, &errOut); code != tc.code {
				t.Fatalf("exit = %d, want %d; stderr=%q", code, tc.code, errOut.String())
			}
			if !strings.Contains(errOut.String(), tc.stderr) {
				t.Fatalf("stderr = %q, want it to carry %q", errOut.String(), tc.stderr)
			}
		})
	}
}

// TestHealthPlaneEndToEnd boots a daemon with a declared SLO and walks
// the health plane over real HTTP: /v1/health reports the objective,
// /v1/events serves a cursor-addressable journal, and /v1/watch streams
// at least one SSE snapshot.
func TestHealthPlaneEndToEnd(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errOut syncBuffer
	exited := make(chan int, 1)
	go func() {
		exited <- run(ctx, []string{"-store", dir, "-addr", "127.0.0.1:0", "-workers", "1",
			"-slo", "http_query p99 < 1s over 1m, error_rate < 5% over 5m"}, &out, &errOut)
	}()
	var base string
	deadline := time.After(30 * time.Second)
	for base == "" {
		if m := urlRE.FindString(out.String()); m != "" {
			base = m
			break
		}
		select {
		case <-deadline:
			t.Fatalf("daemon never printed its address; stdout=%q stderr=%q", out.String(), errOut.String())
		case <-time.After(5 * time.Millisecond):
		}
	}

	resp, err := http.Get(base + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(base + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		SLOs   []struct {
			Objective string `json:"objective"`
			State     string `json:"state"`
		} `json:"slos"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Fatalf("/v1/health = %d %+v, want 200 ok", resp.StatusCode, health)
	}
	if len(health.SLOs) != 2 || health.SLOs[0].Objective != "http_query p99 < 1s over 1m" {
		t.Fatalf("/v1/health objectives = %+v, want both declared SLOs", health.SLOs)
	}

	resp, err = http.Get(base + "/v1/events?since=0&limit=10")
	if err != nil {
		t.Fatal(err)
	}
	var events struct {
		NextSince int64 `json:"next_since"`
		Events    []any `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/events = %d", resp.StatusCode)
	}

	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	req, err := http.NewRequestWithContext(wctx, http.MethodGet, base+"/v1/watch?interval=100ms", nil)
	if err != nil {
		t.Fatal(err)
	}
	wresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := wresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/v1/watch content type = %q, want text/event-stream", ct)
	}
	buf := make([]byte, 4096)
	n, _ := wresp.Body.Read(buf)
	wcancel()
	wresp.Body.Close()
	if first := string(buf[:n]); !strings.Contains(first, "event: snapshot") || !strings.Contains(first, `"health"`) {
		t.Fatalf("first watch frame = %q, want an SSE snapshot with health", first)
	}

	cancel()
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("daemon exit = %d, want 0; stderr=%q", code, errOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

var urlRE = regexp.MustCompile(`http://[0-9.:]+`)

// TestBackendStageSLOPages declares an objective on a backend stage —
// one no HTTP endpoint records — and requires a single computed place
// to breach it: the solve stage's windows must reach the SLO engine
// through the backend's Stats, not only its cumulative histogram.
func TestBackendStageSLOPages(t *testing.T) {
	d := bootDaemon(t, urlRE, "-store", t.TempDir(), "-addr", "127.0.0.1:0", "-workers", "1",
		"-slo", "solve p99 < 1us over 1m")
	defer stopDaemon(t, d)

	resp, err := http.Post(d.base+"/v1/place", "application/json",
		strings.NewReader(`{"net":"star-6","seed":1,"scheme":"sp"}`))
	if err != nil {
		t.Fatal(err)
	}
	var placed struct {
		Source string `json:"source"`
	}
	err = json.NewDecoder(resp.Body).Decode(&placed)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || placed.Source != "computed" {
		t.Fatalf("place = %d source %q (%v), want 200 computed", resp.StatusCode, placed.Source, err)
	}

	resp, err = http.Get(d.base + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		SLOs   []struct {
			Stage string `json:"stage"`
			State string `json:"state"`
			Count int64  `json:"count"`
		} `json:"slos"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if health.Status != "critical" || len(health.SLOs) != 1 {
		t.Fatalf("/v1/health = %+v, want critical with one objective", health)
	}
	if o := health.SLOs[0]; o.Stage != "solve" || o.State != "page" || o.Count != 1 {
		t.Fatalf("solve objective = %+v, want state page with count 1", o)
	}
}

// TestServeEndToEnd boots the daemon on an ephemeral port, seeds the
// store through a sweep first, then exercises query, place (a stored and
// a computed cell), stats, and clean SIGTERM-equivalent shutdown via
// context cancellation — the in-process twin of scripts/serve_smoke.sh.
func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	grid := sweep.Grid{Nets: []string{"star-6"}, Seeds: []int64{1}, Schemes: []string{"sp"}}
	if _, err := sweep.Run(context.Background(), st, grid, sweep.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	var errOut syncBuffer
	exited := make(chan int, 1)
	go func() {
		exited <- run(ctx, []string{"-store", dir, "-addr", "127.0.0.1:0", "-workers", "1"}, &out, &errOut)
	}()

	var base string
	deadline := time.After(30 * time.Second)
	for base == "" {
		if m := urlRE.FindString(out.String()); m != "" {
			base = m
			break
		}
		select {
		case <-deadline:
			t.Fatalf("daemon never printed its address; stdout=%q stderr=%q", out.String(), errOut.String())
		case <-time.After(5 * time.Millisecond):
		}
	}

	getJSON := func(path string, into any) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}

	var q struct {
		Count int `json:"count"`
	}
	getJSON("/v1/query", &q)
	if q.Count != 1 {
		t.Fatalf("query count = %d, want 1 swept cell", q.Count)
	}

	place := func(scheme string) string {
		t.Helper()
		resp, err := http.Post(base+"/v1/place", "application/json",
			strings.NewReader(`{"net":"star-6","seed":1,"scheme":"`+scheme+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var pr struct {
			Source string `json:"source"`
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("place %s = %d: %s", scheme, resp.StatusCode, body)
		}
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr.Source
	}
	if src := place("sp"); src != "store" {
		t.Fatalf("swept cell source = %q, want store", src)
	}
	if src := place("minmax"); src != "computed" {
		t.Fatalf("new cell source = %q, want computed", src)
	}
	if src := place("minmax"); src != "cache" {
		t.Fatalf("repeat cell source = %q, want cache", src)
	}

	var stats struct {
		StoreCells int   `json:"store_cells"`
		Computed   int64 `json:"computed"`
		CacheHits  int64 `json:"cache_hits"`
	}
	getJSON("/v1/stats", &stats)
	if stats.StoreCells != 2 || stats.Computed != 1 || stats.CacheHits != 1 {
		t.Fatalf("stats = %+v, want 2 cells, 1 computed, 1 cache hit", stats)
	}

	cancel()
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("daemon exit = %d, want 0; stderr=%q", code, errOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(out.String(), "shut down cleanly") {
		t.Fatalf("stdout = %q", out.String())
	}

	// The computed cell persisted: a fresh read-only open sees it.
	ro, err := store.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if ro.Len() != 2 {
		t.Fatalf("store has %d cells after daemon exit, want 2", ro.Len())
	}
}

// daemon is one run invocation serving in the background.
type daemon struct {
	base   string
	out    *syncBuffer
	cancel context.CancelFunc
	exited chan int
}

// bootDaemon starts run with args and waits for addrRE to match its
// stdout; the last submatch is the daemon's base URL.
func bootDaemon(t *testing.T, addrRE *regexp.Regexp, args ...string) daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	d := daemon{out: &syncBuffer{}, cancel: cancel, exited: make(chan int, 1)}
	var errOut syncBuffer
	go func() { d.exited <- run(ctx, args, d.out, &errOut) }()
	deadline := time.After(30 * time.Second)
	for d.base == "" {
		if m := addrRE.FindStringSubmatch(d.out.String()); m != nil {
			d.base = m[len(m)-1]
			break
		}
		select {
		case <-deadline:
			t.Fatalf("daemon never printed its address; stdout=%q stderr=%q", d.out.String(), errOut.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
	return d
}

// stopDaemon cancels d and requires a clean exit.
func stopDaemon(t *testing.T, d daemon) {
	t.Helper()
	d.cancel()
	select {
	case code := <-d.exited:
		if code != 0 {
			t.Fatalf("daemon exit = %d, want 0; stdout=%q", code, d.out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// boundRE matches a daemon's bound address in its serving banner; a
// cluster front's banner names the replica URLs too.
var boundRE = regexp.MustCompile(`on (http://[0-9.:]+)`)

// TestReplicatedClusterFront boots two store daemons and a cluster front
// with -replicas 2: a cell computed through the front must land on both
// backends (their key digests converge), the banner must advertise R=2,
// /v1/stats must mirror the replication counters, and shutdown must
// print the replication summary.
func TestReplicatedClusterFront(t *testing.T) {
	a := bootDaemon(t, urlRE, "-store", t.TempDir(), "-addr", "127.0.0.1:0", "-workers", "1")
	defer stopDaemon(t, a)
	b := bootDaemon(t, urlRE, "-store", t.TempDir(), "-addr", "127.0.0.1:0", "-workers", "1")
	defer stopDaemon(t, b)
	front := bootDaemon(t, boundRE, "-cluster", a.base+","+b.base, "-replicas", "2", "-addr", "127.0.0.1:0")

	if !strings.Contains(front.out.String(), "R=2") {
		t.Fatalf("front banner does not advertise R=2: %q", front.out.String())
	}

	resp, err := http.Post(front.base+"/v1/place", "application/json",
		strings.NewReader(`{"net":"star-6","seed":1,"scheme":"sp"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("place via front = %d: %s", resp.StatusCode, body)
	}

	digest := func(base string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + "/v1/digest")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var d struct {
			Count  int    `json:"count"`
			Digest string `json:"digest"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
		return d.Count, d.Digest
	}
	na, da := digest(a.base)
	nb, db := digest(b.base)
	if na != 1 || nb != 1 || da != db {
		t.Fatalf("after one replicated place: A=(%d,%s) B=(%d,%s), want both holding the cell with equal digests", na, da, nb, db)
	}

	sresp, err := http.Get(front.base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Backend       string `json:"backend"`
		ReplicaFactor int    `json:"replica_factor"`
		Replicated    int64  `json:"replicated"`
	}
	err = json.NewDecoder(sresp.Body).Decode(&stats)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Backend != "cluster" || stats.ReplicaFactor != 2 || stats.Replicated != 1 {
		t.Fatalf("front stats = %+v, want cluster R=2 with 1 replicated cell", stats)
	}

	stopDaemon(t, front)
	if !strings.Contains(front.out.String(), "replication R=2: 1 replicated") {
		t.Fatalf("front shutdown summary missing replication counters: %q", front.out.String())
	}
}

// TestPredictDaemon boots the daemon with -predict over a swept store
// and checks that a trained-region request for an unseen operating point
// is answered by interpolation: "source": "predicted", the predicted
// marker set, and the prediction counters visible in /v1/stats.
func TestPredictDaemon(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, load := range []float64{0.6, 0.7} {
		grid := sweep.Grid{Nets: []string{"star-6"}, Seeds: []int64{1, 2}, Schemes: []string{"sp"}, Load: load}
		if _, err := sweep.Run(context.Background(), st, grid, sweep.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errOut syncBuffer
	exited := make(chan int, 1)
	go func() {
		exited <- run(ctx, []string{"-store", dir, "-addr", "127.0.0.1:0", "-workers", "1", "-predict"}, &out, &errOut)
	}()
	var base string
	deadline := time.After(30 * time.Second)
	for base == "" {
		if m := urlRE.FindString(out.String()); m != "" {
			base = m
			break
		}
		select {
		case <-deadline:
			t.Fatalf("daemon never printed its address; stdout=%q stderr=%q", out.String(), errOut.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
	if !strings.Contains(out.String(), "predicting over 1 surfaces / 4 samples") {
		t.Fatalf("banner does not report the trained index: %q", out.String())
	}

	resp, err := http.Post(base+"/v1/place", "application/json",
		strings.NewReader(`{"net":"star-6","seed":9,"scheme":"sp","load":0.65}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr struct {
		Source    string `json:"source"`
		Predicted bool   `json:"predicted"`
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("place = %d: %s", resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Source != "predicted" || !pr.Predicted {
		t.Fatalf("place = %+v, want a predicted answer", pr)
	}

	sresp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats struct {
		Backend        string `json:"backend"`
		Predicted      int64  `json:"predicted"`
		Surfaces       int    `json:"surfaces"`
		SurfaceSamples int    `json:"surface_samples"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Backend != "predictive+local" || stats.Predicted != 1 || stats.Surfaces != 1 || stats.SurfaceSamples != 4 {
		t.Fatalf("stats = %+v, want predictive+local with 1 prediction over 1 surface / 4 samples", stats)
	}

	cancel()
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("daemon exit = %d, want 0; stderr=%q", code, errOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestPredictClusterFront boots two swept store daemons and a predictive
// R=2 cluster front over them — the deployment the cluster_mixed
// benchmark runs. The front trains from one fan-out query across both
// replicas, and a trained-region request for an unseen operating point
// answers by interpolation at the front.
func TestPredictClusterFront(t *testing.T) {
	swept := func(load float64) string {
		t.Helper()
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		grid := sweep.Grid{Nets: []string{"star-6"}, Seeds: []int64{1, 2}, Schemes: []string{"sp"}, Load: load}
		if _, err := sweep.Run(context.Background(), st, grid, sweep.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		st.Close()
		return dir
	}
	a := bootDaemon(t, urlRE, "-store", swept(0.6), "-addr", "127.0.0.1:0", "-workers", "1")
	defer stopDaemon(t, a)
	b := bootDaemon(t, urlRE, "-store", swept(0.7), "-addr", "127.0.0.1:0", "-workers", "1")
	defer stopDaemon(t, b)
	front := bootDaemon(t, boundRE, "-cluster", a.base+","+b.base, "-replicas", "2", "-predict", "-addr", "127.0.0.1:0")
	defer stopDaemon(t, front)

	if !strings.Contains(front.out.String(), "predicting over 1 surfaces / 4 samples") {
		t.Fatalf("front banner does not report the trained index: %q", front.out.String())
	}

	sresp, err := http.Get(front.base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Backend string `json:"backend"`
	}
	err = json.NewDecoder(sresp.Body).Decode(&stats)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Backend != "predictive+cluster" {
		t.Fatalf("front stats backend = %q, want predictive+cluster", stats.Backend)
	}

	resp, err := http.Post(front.base+"/v1/place", "application/json",
		strings.NewReader(`{"net":"star-6","seed":9,"scheme":"sp","load":0.65}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("place via front = %d: %s", resp.StatusCode, body)
	}
	var pr struct {
		Source string `json:"source"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Source != "predicted" {
		t.Fatalf("place via front source = %q, want predicted", pr.Source)
	}
}

// TestDebugListenerAndRequestLogs boots the daemon with the operator
// surface enabled — a second -debug-addr listener and -log json — and
// checks the three observability contracts: /metrics and /debug/pprof/*
// answer on the debug port, a caller-supplied X-Request-ID comes back in
// the response header, and the same ID appears in the structured request
// log on stderr.
func TestDebugListenerAndRequestLogs(t *testing.T) {
	var out, errOut syncBuffer
	// -log takes only off|text|json.
	if code := run(context.Background(), []string{"-store", t.TempDir(), "-log", "bogus"}, &out, &errOut); code != 2 {
		t.Fatalf("-log bogus exit = %d, want 2; stderr=%q", code, errOut.String())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out = syncBuffer{}
	errOut = syncBuffer{}
	exited := make(chan int, 1)
	go func() {
		exited <- run(ctx, []string{
			"-store", t.TempDir(), "-addr", "127.0.0.1:0",
			"-debug-addr", "127.0.0.1:0", "-log", "json", "-workers", "1",
		}, &out, &errOut)
	}()

	// The debug line prints first, then the serving line; wait for both.
	var urls []string
	deadline := time.After(30 * time.Second)
	for len(urls) < 2 {
		urls = urlRE.FindAllString(out.String(), -1)
		select {
		case <-deadline:
			t.Fatalf("daemon never printed both addresses; stdout=%q stderr=%q", out.String(), errOut.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
	debug, base := urls[0], urls[1]

	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get(debug + "/metrics"); code != http.StatusOK || !strings.Contains(body, "lowlat_place_requests_total") {
		t.Fatalf("debug /metrics = %d, body %q", code, body)
	}
	if code, _ := get(debug + "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("debug /debug/pprof/cmdline = %d, want 200", code)
	}

	req, err := http.NewRequest(http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "cli-trace-0001")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "cli-trace-0001" {
		t.Fatalf("response X-Request-ID = %q, want the caller's", got)
	}
	// The slog line lands on stderr after the response; poll briefly.
	deadline = time.After(10 * time.Second)
	for !strings.Contains(errOut.String(), "cli-trace-0001") {
		select {
		case <-deadline:
			t.Fatalf("request log never mentioned the request ID; stderr=%q", errOut.String())
		case <-time.After(5 * time.Millisecond):
		}
	}

	cancel()
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("daemon exit = %d, want 0; stderr=%q", code, errOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}
