package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lowlat/internal/backend"
	"lowlat/internal/engine"
	"lowlat/internal/geo"
	"lowlat/internal/graph"
	"lowlat/internal/obs"
	"lowlat/internal/routing"
	"lowlat/internal/serve"
	"lowlat/internal/store"
	"lowlat/internal/tm"
)

func TestRunUsageExitCodes(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 2 {
		t.Fatalf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"bogus"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown command: exit %d, want 2", code)
	}
	if code := run([]string{"help"}, &out, &errOut); code != 0 {
		t.Fatalf("help: exit %d, want 0", code)
	}
	if code := run([]string{"route", "-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	if code := run([]string{"dynamics", "-h"}, &out, &errOut); code != 0 {
		t.Fatalf("-h: exit %d, want 0", code)
	}
}

// TestLegacyGoldens pins the topo, llpd, tm and sim subcommands to the
// stdout of the standalone topo-convert, llpd, tm-gen and ldr-sim binaries
// they replace: each golden under testdata/legacy was captured from the
// retired binary with the same flags, and must be reproduced byte for byte.
func TestLegacyGoldens(t *testing.T) {
	const dir = "testdata/legacy"
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		// native is topo's default format: `topo -net X` keeps printing
		// the bytes it printed before -to existed.
		{"topo_native", []string{"topo", "-net", "gts-like"}},
		{"topo_graphml", []string{"topo", "-net", "gts-like", "-to", "graphml"}},
		{"topo_repetita", []string{"topo", "-net", "gts-like", "-to", "repetita"}},
		{"llpd_cdf", []string{"llpd", "-net", "gts-like", "-cdf"}},
		// The graph name comes from the file's base name, so this reads the
		// GraphML golden in place, as the legacy capture did.
		{"llpd_file", []string{"llpd", "-file", dir + "/topo_graphml.golden"}},
		{"tm_star6", []string{"tm", "-net", "star-6", "-count", "2"}},
		{"sim_star6_ldr", []string{"sim", "-net", "star-6", "-minutes", "2", "-controller", "ldr"}},
		{"sim_star6_sp", []string{"sim", "-net", "star-6", "-minutes", "2", "-controller", "sp"}},
		{"sim_grid4x4_sp", []string{"sim", "-net", "grid-4x4", "-controller", "sp", "-minutes", "2"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join(dir, tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var out, errOut bytes.Buffer
			if code := run(tc.args, &out, &errOut); code != 0 {
				t.Fatalf("%v: exit %d (stderr %q)", tc.args, code, errOut.String())
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("%v: stdout differs from %s.golden\ngot:\n%s\nwant:\n%s", tc.args, tc.golden, out.Bytes(), want)
			}
		})
	}
}

// TestTopoOutputFile pins -o: the converted topology lands in the file,
// and stdout carries only the confirmation line.
func TestTopoOutputFile(t *testing.T) {
	dest := filepath.Join(t.TempDir(), "gts.graph")
	var out, errOut bytes.Buffer
	if code := run([]string{"topo", "-net", "gts-like", "-to", "repetita", "-o", dest}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d (stderr %q)", code, errOut.String())
	}
	if want := "wrote " + dest + " (repetita, 30 nodes, 104 links)\n"; out.String() != want {
		t.Fatalf("stdout %q, want %q", out.String(), want)
	}
	got, err := os.ReadFile(dest)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/legacy/topo_repetita.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("-o file differs from the repetita golden")
	}
}

// TestMovedCommandExitCodes pins the exit contract the retired binaries
// had, now on their subcommands: bad flag 2, -h 0, and 1 for an unknown
// network, controller or format, a -net set beside -file, or no topology.
// One subtest per retired binary, named after it.
func TestMovedCommandExitCodes(t *testing.T) {
	type exitCase struct {
		args []string
		code int
	}
	for _, tc := range []struct {
		binary string
		cases  []exitCase
	}{
		{"topo-convert", []exitCase{
			{[]string{"topo", "-no-such-flag"}, 2},
			{[]string{"topo", "-h"}, 0},
			{[]string{"topo", "-net", "star-6", "-to", "yaml"}, 1},
			{[]string{"topo", "-net", "x", "-file", "y"}, 1},
			{[]string{"topo", "-file", "no-such-file.graphml"}, 1},
		}},
		{"llpd", []exitCase{
			{[]string{"llpd", "-no-such-flag"}, 2},
			{[]string{"llpd", "-h"}, 0},
			{[]string{"llpd", "-net", "no-such-net"}, 1},
			{[]string{"llpd", "-net", "x", "-file", "y"}, 1},
			{[]string{"llpd"}, 1},
		}},
		{"tm-gen", []exitCase{
			{[]string{"tm", "-no-such-flag"}, 2},
			{[]string{"tm", "-h"}, 0},
			{[]string{"tm", "-net", "no-such-net"}, 1},
			{[]string{"tm", "-net", "x", "-file", "y"}, 1},
			{[]string{"tm"}, 1},
		}},
		{"ldr-sim", []exitCase{
			{[]string{"sim", "-no-such-flag"}, 2},
			{[]string{"sim", "-h"}, 0},
			{[]string{"sim", "-net", "no-such-net"}, 1},
			{[]string{"sim", "-net", "star-6", "-controller", "warp"}, 1},
			{[]string{"sim", "-net", "x", "-file", "y"}, 1},
		}},
	} {
		t.Run(tc.binary, func(t *testing.T) {
			for _, c := range tc.cases {
				var out, errOut bytes.Buffer
				if code := run(c.args, &out, &errOut); code != c.code {
					t.Errorf("%v: exit %d, want %d (stderr %q)", c.args, code, c.code, errOut.String())
				}
				if c.code == 1 && !strings.Contains(errOut.String(), "lowlat:") {
					t.Errorf("%v: error must be reported on stderr, got %q", c.args, errOut.String())
				}
			}
		})
	}
}

// TestNonPositiveCountsAreUsageErrors: a count flag below 1 is rejected
// at parse time (exit 2, reason on stderr). Before, route -tms -1
// panicked, tm -count 0 printed nothing and exited 0, and sim -minutes 0
// ran the 10-minute default.
func TestNonPositiveCountsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"route", "-tms", "-1"},
		{"route", "-tms", "0"},
		{"exp", "-name", "fig3", "-tms", "0"},
		{"tm", "-net", "star-6", "-count", "0"},
		{"tm", "-net", "star-6", "-count", "-3"},
		{"sim", "-net", "star-6", "-minutes", "0"},
		{"sim", "-net", "star-6", "-minutes", "-2"},
		{"dynamics", "-net", "ring-8", "-epochs", "0"},
		{"dynamics", "-net", "ring-8", "-epochs", "-3"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), "must be at least 1") {
			t.Errorf("%v: stderr %q lacks the reason", args, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q on stdout", args, out.String())
		}
	}
}

// TestDynamicsOutOfRangeFlagsAreUsageErrors pins that the dynamics
// probabilities and failure-case cap reject out-of-range values instead
// of running on a default in their place.
func TestDynamicsOutOfRangeFlagsAreUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		reason string
	}{
		{[]string{"-fail-prob", "0"}, "must be in (0, 1]"},
		{[]string{"-fail-prob", "-3"}, "must be in (0, 1]"},
		{[]string{"-fail-prob", "1.5"}, "must be in (0, 1]"},
		{[]string{"-repair-prob", "7"}, "must be in (0, 1]"},
		{[]string{"-repair-prob", "0"}, "must be in (0, 1]"},
		{[]string{"-fail-prob", "NaN"}, "must be in (0, 1]"},
		{[]string{"-max-failures", "0"}, "must be at least 1, or -1 for no cap"},
		{[]string{"-max-failures", "-2"}, "must be at least 1, or -1 for no cap"},
	} {
		args := append([]string{"dynamics", "-net", "ring-8"}, tc.args...)
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), tc.reason) {
			t.Errorf("%v: stderr %q lacks %q", args, errOut.String(), tc.reason)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q on stdout", args, out.String())
		}
	}
}

func TestRunErrorsExitNonZero(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"topo", "-net", "no-such-net"}, &out, &errOut); code != 1 {
		t.Fatalf("unknown network: exit %d, want 1", code)
	}
	if code := run([]string{"route", "-net", "gts-like", "-scheme", "warp"}, &out, &errOut); code != 1 {
		t.Fatalf("unknown scheme: exit %d, want 1", code)
	}
	if code := run([]string{"dynamics", "-net", "gts-like", "-failures", "meteor"}, &out, &errOut); code != 1 {
		t.Fatalf("unknown failure model: exit %d, want 1", code)
	}
	if code := run([]string{"dynamics", "-net", "gts-like", "-churn", "replay"}, &out, &errOut); code != 1 {
		t.Fatalf("replay churn without -replay file: exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "lowlat:") {
		t.Fatalf("errors must be reported on stderr, got %q", errOut.String())
	}
}

// TestHealExitCodes pins the heal subcommand's exit contract: missing
// -cluster is a runtime error (1), bad flags are usage errors (2), and a
// cluster nobody answers for must exit non-zero rather than report a
// clean no-op sweep.
func TestHealExitCodes(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"heal"}, &out, &errOut); code != 1 {
		t.Fatalf("heal without -cluster: exit %d, want 1", code)
	}
	if code := run([]string{"heal", "-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("heal bad flag: exit %d, want 2", code)
	}
	if code := run([]string{"heal", "-h"}, &out, &errOut); code != 0 {
		t.Fatalf("heal -h: exit %d, want 0", code)
	}
	errOut.Reset()
	// Port 1 answers nothing: every probe fails, no daemon joins the key
	// exchange, and the sweep must fail loudly.
	if code := run([]string{"heal", "-cluster", "http://127.0.0.1:1", "-timeout", "5s"}, &out, &errOut); code != 1 {
		t.Fatalf("heal against dead cluster: exit %d, want 1 (stderr %q)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "no daemon answered") {
		t.Fatalf("dead-cluster heal stderr %q, want the no-daemon report", errOut.String())
	}
}

// TestStatsCommand pins the stats subcommand: its exit-code contract,
// and that pointed at a live daemon it renders the counters and — once
// any histogram has recorded — the per-stage latency table.
func TestStatsCommand(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"stats"}, &out, &errOut); code != 1 {
		t.Fatalf("stats without -addr: exit %d, want 1", code)
	}
	if code := run([]string{"stats", "-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("stats bad flag: exit %d, want 2", code)
	}
	if code := run([]string{"stats", "-h"}, &out, &errOut); code != 0 {
		t.Fatalf("stats -h: exit %d, want 0", code)
	}
	if code := run([]string{"stats", "-addr", "http://127.0.0.1:1", "-timeout", "5s"}, &out, &errOut); code != 1 {
		t.Fatalf("stats against dead daemon: exit %d, want 1", code)
	}

	st, err := store.OpenReadOnly(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := serve.NewBackendServer(backend.NewLocal(st, backend.LocalOptions{}), serve.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Prime one request so at least one http_* histogram has recorded by
	// the time the stats snapshot is taken.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	out.Reset()
	if code := run([]string{"stats", "-addr", ts.URL}, &out, &errOut); code != 0 {
		t.Fatalf("stats: exit %d, want 0 (stderr %q)", code, errOut.String())
	}
	for _, want := range []string{"counters:", "place_requests", "latency per stage:", "http_stats", "p99"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("stats output missing %q:\n%s", want, out.String())
		}
	}
}

// TestStatsJSONRoundTrip pins `stats -json`: the output is the raw
// /v1/stats payload, it decodes into backend.Stats, and re-encoding the
// decoded struct reproduces the daemon's JSON exactly — no field of the
// wire format is silently dropped by the Go type.
func TestStatsJSONRoundTrip(t *testing.T) {
	st, err := store.OpenReadOnly(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := serve.NewBackendServer(backend.NewLocal(st, backend.LocalOptions{}), serve.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Prime requests so histograms, windows and counters are non-trivial.
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/query")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	var out, errOut bytes.Buffer
	if code := run([]string{"stats", "-addr", ts.URL, "-json"}, &out, &errOut); code != 0 {
		t.Fatalf("stats -json: exit %d (stderr %q)", code, errOut.String())
	}
	var decoded backend.Stats
	if err := json.Unmarshal(out.Bytes(), &decoded); err != nil {
		t.Fatalf("stats -json output does not decode into backend.Stats: %v\n%s", err, out.String())
	}
	if decoded.Backend != "store" || decoded.Queries != 3 {
		t.Fatalf("decoded stats = backend %q queries %d, want store/3", decoded.Backend, decoded.Queries)
	}
	if len(decoded.Windows["http_query"]) == 0 {
		t.Fatalf("decoded stats carries no http_query windows: %v", decoded.Windows)
	}
	reencoded, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(out.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(reencoded, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("stats JSON does not round-trip through backend.Stats:\nwire: %s\nre-encoded: %s", out.String(), reencoded)
	}
}

// TestWatchCommand pins the watch subcommand: exit codes, and a short
// -plain session against a live daemon renders the health line, the SLO
// table and the endpoint window table.
func TestWatchCommand(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"watch"}, &out, &errOut); code != 1 {
		t.Fatalf("watch without -addr: exit %d, want 1", code)
	}
	if code := run([]string{"watch", "-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("watch bad flag: exit %d, want 2", code)
	}
	if code := run([]string{"watch", "-h"}, &out, &errOut); code != 0 {
		t.Fatalf("watch -h: exit %d, want 0", code)
	}
	if code := run([]string{"watch", "-addr", "http://127.0.0.1:1", "-for", "1s"}, &out, &errOut); code != 1 {
		t.Fatalf("watch against dead daemon: exit %d, want 1", code)
	}

	st, err := store.OpenReadOnly(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	objs, err := obs.ParseObjectives("http_query p99 < 1s over 1m")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewBackendServer(backend.NewLocal(st, backend.LocalOptions{}), serve.Options{Objectives: objs})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	out.Reset()
	errOut.Reset()
	if code := run([]string{"watch", "-addr", ts.URL, "-plain", "-interval", "30ms", "-for", "200ms"}, &out, &errOut); code != 0 {
		t.Fatalf("watch: exit %d (stderr %q)", code, errOut.String())
	}
	for _, want := range []string{"health: ok", "http_query p99 < 1s over 1m", "endpoints", "http_query"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("watch output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "\033[") {
		t.Fatalf("-plain output contains escape codes:\n%q", out.String())
	}
}

// TestScenarioErrorsCollectedButNonZero pins the exit-code contract: a
// sweep whose scenarios partially fail still prints the surviving rows,
// but the command must report an error (and so exit non-zero) instead of
// silently succeeding.
func TestScenarioErrorsCollectedButNonZero(t *testing.T) {
	// Two isolated nodes: every placement is unroutable.
	b := graph.NewBuilder("disconnected")
	b.AddNode("a", geo.Point{})
	b.AddNode("z", geo.Point{Lon: 1})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := tm.New([]tm.Aggregate{{Src: 0, Dst: 1, Volume: 1e9}})
	scs := []engine.Scenario{
		{Tag: "disconnected/tm0", Graph: g, Matrix: m, Scheme: routing.SP{}},
		{Tag: "disconnected/tm1", Graph: g, Matrix: m, Scheme: routing.SP{}},
	}
	var out bytes.Buffer
	err = printScenarioResults(context.Background(), &out, engine.NewRunner(2), scs)
	if err == nil {
		t.Fatal("failed scenarios must surface as an error")
	}
	if !strings.Contains(err.Error(), "scenarios failed") {
		t.Fatalf("error %q should count the failed scenarios", err)
	}
	if !strings.Contains(out.String(), "failed:") {
		t.Fatalf("per-scenario failures should still be printed:\n%s", out.String())
	}
}

func TestDynamicsCommandSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a calibrated matrix")
	}
	var out, errOut bytes.Buffer
	code := run([]string{"dynamics", "-net", "ring-8", "-scheme", "sp",
		"-failures", "single", "-churn", "none", "-workers", "2"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(out.String(), "summary:") {
		t.Fatalf("missing summary line:\n%s", out.String())
	}
}

func TestSweepUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"sweep"}, &out, &errOut); code != 1 {
		t.Fatalf("sweep without -store: exit %d, want 1", code)
	}
	if code := run([]string{"sweep", "-store", t.TempDir()}, &out, &errOut); code != 1 {
		t.Fatalf("sweep without -grid: exit %d, want 1", code)
	}
	if code := run([]string{"sweep", "-store", t.TempDir(), "-grid", "bogus"}, &out, &errOut); code != 1 {
		t.Fatalf("sweep with bad grid: exit %d, want 1", code)
	}
	if code := run([]string{"query"}, &out, &errOut); code != 1 {
		t.Fatalf("query without -store: exit %d, want 1", code)
	}
	if code := run([]string{"export"}, &out, &errOut); code != 1 {
		t.Fatalf("export without -store: exit %d, want 1", code)
	}
	if code := run([]string{"export", "-store", t.TempDir(), "-format", "yaml"}, &out, &errOut); code != 1 {
		t.Fatalf("export with bad format: exit %d, want 1", code)
	}
	if code := run([]string{"sweep", "-h"}, &out, &errOut); code != 0 {
		t.Fatalf("sweep -h: exit %d, want 0", code)
	}
}

// TestSweepQueryExportRoundTrip drives the full store lifecycle through
// the CLI: sweep, resumed sweep (all cells reused), query, export.
func TestSweepQueryExportRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs placements")
	}
	dir := t.TempDir()
	grid := "nets=star-6;seeds=1,2;schemes=sp"
	var out, errOut bytes.Buffer
	if code := run([]string{"sweep", "-store", dir, "-grid", grid, "-workers", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("sweep: exit %d (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(out.String(), "2 computed") {
		t.Fatalf("first sweep should compute 2 cells:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"sweep", "-store", dir, "-grid", grid, "-compact"}, &out, &errOut); code != 0 {
		t.Fatalf("resumed sweep: exit %d (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(out.String(), "2 reused, 0 computed") {
		t.Fatalf("resumed sweep should reuse both cells:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"query", "-store", dir, "-net", "star"}, &out, &errOut); code != 0 {
		t.Fatalf("query: exit %d", code)
	}
	if !strings.Contains(out.String(), "2 of 2 stored cells matched") {
		t.Fatalf("query output:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"export", "-store", dir, "-format", "csv"}, &out, &errOut); code != 0 {
		t.Fatalf("export: exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "net,") {
		t.Fatalf("csv export:\n%s", out.String())
	}
}

func TestPredictUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"predict"}, &out, &errOut); code != 1 {
		t.Fatalf("predict without -store: exit %d, want 1", code)
	}
	if code := run([]string{"predict", "-store", t.TempDir()}, &out, &errOut); code != 1 {
		t.Fatalf("predict without -grid: exit %d, want 1", code)
	}
	if code := run([]string{"predict", "-store", t.TempDir(), "-grid", "nets=star-6;seeds=1;schemes=sp", "-loads", "0.5,0.6"}, &out, &errOut); code != 1 {
		t.Fatalf("predict with 2 loads: exit %d, want 1", code)
	}
	if code := run([]string{"predict", "-store", t.TempDir(), "-grid", "nets=star-6;seeds=1;schemes=sp", "-loads", "0.5,nope,0.7"}, &out, &errOut); code != 1 {
		t.Fatalf("predict with bad load: exit %d, want 1", code)
	}
	if code := run([]string{"predict", "-h"}, &out, &errOut); code != 0 {
		t.Fatalf("predict -h: exit %d, want 0", code)
	}
}

// TestPredictGate drives the error gate end to end: a dense load line
// on a tiny net trains surfaces whose held-out interpolation error is
// within the default bound (exit 0), and a load line spread wider than
// the confidence radius leaves every held-out cell refused, which the
// gate treats as failure (exit 1).
func TestPredictGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs placements")
	}
	dir := t.TempDir()
	grid := "nets=star-6;seeds=1,2;schemes=sp"
	var out, errOut bytes.Buffer
	if code := run([]string{"predict", "-store", dir, "-grid", grid, "-loads", "0.6,0.65,0.7", "-workers", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("gate: exit %d (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(out.String(), "gate OK") {
		t.Fatalf("gate output:\n%s", out.String())
	}

	// Rerunning reuses every swept cell; the gate itself is stable.
	out.Reset()
	if code := run([]string{"predict", "-store", dir, "-grid", grid, "-loads", "0.6,0.65,0.7", "-workers", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("gate rerun: exit %d (stderr: %s)", code, errOut.String())
	}

	// Loads spread wider than the confidence radius: the surfaces refuse
	// the held-out line, and a gate that cannot measure its error fails.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"predict", "-store", dir, "-grid", grid, "-loads", "0.2,0.5,0.8", "-workers", "1"}, &out, &errOut); code != 1 {
		t.Fatalf("unpredictable gate: exit %d, want 1 (stdout: %s)", code, out.String())
	}
	if !strings.Contains(errOut.String(), "no held-out cell was predicted") {
		t.Fatalf("unpredictable gate stderr:\n%s", errOut.String())
	}
}

func TestGateErrorFold(t *testing.T) {
	var g gateErrors
	g.fold(store.Metrics{Stretch: 1.1, MaxStretch: 2, MaxUtil: 0.5, Congested: 0.1},
		store.Metrics{Stretch: 1.0, MaxStretch: 2, MaxUtil: 0.5, Congested: 0.0})
	if g.stretch < 0.0999 || g.stretch > 0.1001 {
		t.Fatalf("stretch rel err = %v, want 0.1", g.stretch)
	}
	if g.congested < 0.0999 || g.congested > 0.1001 {
		t.Fatalf("congested abs err = %v, want 0.1", g.congested)
	}
	if g.max() != g.stretch && g.max() != g.congested {
		t.Fatalf("max = %v, want the worst axis", g.max())
	}
	// A zero-valued exact metric cannot blow up the relative error into
	// NaN/Inf-driven flakiness: the denominator floors.
	g.fold(store.Metrics{MaxUtil: 0}, store.Metrics{MaxUtil: 0})
	if g.maxUtil != 0 {
		t.Fatalf("0-vs-0 max-util rel err = %v, want 0", g.maxUtil)
	}
	if loads, err := parseLoads(" 0.5, 0.7 ,0.9"); err != nil || len(loads) != 3 {
		t.Fatalf("parseLoads = %v, %v", loads, err)
	}
	if _, err := parseLoads("0.5,1.5"); err == nil {
		t.Fatal("out-of-range load accepted")
	}
}
