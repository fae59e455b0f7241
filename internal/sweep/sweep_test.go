package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lowlat/internal/routing"
	"lowlat/internal/store"
)

// testGrid is small enough to run in -short mode but crosses two nets,
// two seeds and two schemes (8 cells).
func testGrid() Grid {
	return Grid{
		Nets:    []string{"star-6", "ring-8"},
		Seeds:   []int64{1, 2},
		Schemes: []string{"sp", "minmax"},
	}
}

func TestParseGrid(t *testing.T) {
	g, err := ParseGrid("nets=gts-like, ring-12;seeds=1,2,3;schemes=sp,ldr;headrooms=0,0.11;load=0.6;locality=2;max-nets=5")
	if err != nil {
		t.Fatal(err)
	}
	want := Grid{
		Nets:      []string{"gts-like", "ring-12"},
		MaxNets:   5,
		Seeds:     []int64{1, 2, 3},
		Schemes:   []string{"sp", "ldr"},
		Headrooms: []float64{0, 0.11},
		Load:      0.6,
		Locality:  2,
	}
	if !reflect.DeepEqual(g, want) {
		t.Fatalf("ParseGrid = %+v, want %+v", g, want)
	}
	for _, bad := range []string{
		"nets",                  // not key=value
		"seeds=x",               // bad seed
		"headrooms=1.5",         // out of range
		"load=0",                // out of range
		"frobs=1",               // unknown key
		"schemes=sp;nets=a;b=c", // unknown key mid-spec
	} {
		if _, err := ParseGrid(bad); err == nil {
			t.Errorf("ParseGrid(%q) accepted", bad)
		}
	}
}

func TestPlanExpansion(t *testing.T) {
	ctx := context.Background()
	grid := testGrid()
	grid.Schemes = []string{"sp", "ldr"}
	grid.Headrooms = []float64{0, 0.2}
	cells, err := Plan(ctx, grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	// sp has no headroom dial (1 point), ldr has 2 points: 2 nets x 2
	// seeds x 3 scheme points.
	if len(cells) != 12 {
		t.Fatalf("planned %d cells, want 12", len(cells))
	}
	seen := make(map[store.CellKey]bool)
	for _, c := range cells {
		if seen[c.Key] {
			t.Fatalf("duplicate cell key %v", c.Key)
		}
		seen[c.Key] = true
	}
	// Planning twice gives identical cells in identical order.
	again, err := Plan(ctx, grid, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if cells[i].Key != again[i].Key || cells[i].Meta != again[i].Meta {
			t.Fatalf("plan not deterministic at %d: %+v vs %+v", i, cells[i], again[i])
		}
	}
}

func TestPlanResolvesGeneratorsAndClasses(t *testing.T) {
	cells, err := Plan(context.Background(), Grid{
		Nets:    []string{"randomgeo:12:7", "multiregion:2x6:3", "class:clique"},
		MaxNets: 4,
		Seeds:   []int64{1},
		Schemes: []string{"sp"},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var nets []string
	for _, c := range cells {
		nets = append(nets, c.Meta.Net)
	}
	want := []string{"randomgeo-12-s7", "multiregion-2x6-s3", "clique-5", "clique-6"}
	if !reflect.DeepEqual(nets, want) {
		t.Fatalf("nets = %v, want %v", nets, want)
	}
	for _, bad := range []string{"randomgeo:12", "multiregion:2:3", "class:nope", "no-such-net"} {
		if _, err := Plan(context.Background(), Grid{
			Nets: []string{bad}, Seeds: []int64{1}, Schemes: []string{"sp"},
		}, 0); err == nil {
			t.Errorf("net term %q accepted", bad)
		}
	}
}

// TestKillAndResume is the subsystem's acceptance test: a sweep
// interrupted after N cells, rerun against the same store, computes only
// the remaining cells (asserted via engine invocation counts) and the
// final export is byte-identical to an uninterrupted run's — including
// after the store's final shard line is torn as by a kill -9 mid-append.
func TestKillAndResume(t *testing.T) {
	ctx := context.Background()
	grid := testGrid()

	// Reference: one uninterrupted run.
	refStore, err := store.OpenSharded(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer refStore.Close()
	refRep, err := Run(ctx, refStore, grid, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if refRep.Planned != 8 || refRep.Computed != 8 || refRep.Reused != 0 {
		t.Fatalf("reference report = %+v, want 8 planned, 8 computed", refRep)
	}
	var refCSV bytes.Buffer
	if err := Export(&refCSV, refStore, Filter{}, "csv"); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: kill the context as the 4th placement is about to
	// start. Workers:1 makes the cut deterministic — exactly 3 cells
	// compute and checkpoint.
	dir := t.TempDir()
	st, err := store.OpenSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	places := 0
	rep1, err := Run(cctx, st, grid, Options{
		Workers: 1,
		OnPlace: func(Cell) {
			places++
			if places == 4 {
				cancel()
			}
		},
	})
	cancel()
	if err == nil {
		t.Fatal("interrupted run reported success")
	}
	if rep1.Computed != 3 {
		t.Fatalf("interrupted run computed %d cells, want 3", rep1.Computed)
	}
	st.Close()

	// The kill can also tear the final checkpoint line mid-append;
	// simulate it and verify recovery reporting.
	shard := filepath.Join(dir, "shard-000.jsonl")
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shard, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := store.OpenSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	survived := rep1.Computed - 1 // the torn line lost one cell
	if st2.Len() != survived || st2.Skipped() != 1 {
		t.Fatalf("recovered store: Len=%d Skipped=%d, want %d, 1", st2.Len(), st2.Skipped(), survived)
	}

	// Resume: only the missing cells may reach the engine, counted at
	// the placement call itself.
	invocations := 0
	rep2, err := Run(ctx, st2, grid, Options{
		Workers: 1,
		OnPlace: func(Cell) { invocations++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.SkippedLines != 1 {
		t.Fatalf("resume report did not surface the torn line: %+v", rep2)
	}
	if invocations != 8-survived {
		t.Fatalf("resume made %d engine invocations, want %d", invocations, 8-survived)
	}
	if rep2.Reused != survived || rep2.Computed != 8-survived {
		t.Fatalf("resume report = %+v, want %d reused, %d computed", rep2, survived, 8-survived)
	}

	var gotCSV bytes.Buffer
	if err := Export(&gotCSV, st2, Filter{}, "csv"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV.Bytes(), refCSV.Bytes()) {
		t.Fatalf("resumed export differs from uninterrupted export:\n--- resumed\n%s\n--- reference\n%s",
			gotCSV.String(), refCSV.String())
	}

	// A third run is a pure no-op.
	rep3, err := Run(ctx, st2, grid, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Computed != 0 || rep3.Reused != 8 {
		t.Fatalf("no-op rerun report = %+v, want 0 computed, 8 reused", rep3)
	}
}

// TestMemoSkipsRegeneration pins the calibration-memo satellite: a rerun
// of a finished sweep derives every cell key from the store's memo and
// performs zero matrix generations, yet plans exactly the keys a fresh,
// fully generating Plan produces — the seeded-generator determinism that
// anchors the memo's soundness.
func TestMemoSkipsRegeneration(t *testing.T) {
	ctx := context.Background()
	grid := testGrid()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	rep1, err := Run(ctx, st, grid, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 2 nets x 2 seeds = 4 calibration groups, all generated cold.
	if rep1.Generated != 4 || rep1.MemoHits != 0 {
		t.Fatalf("cold run: Generated=%d MemoHits=%d, want 4, 0", rep1.Generated, rep1.MemoHits)
	}
	if st.MemoLen() != 4 {
		t.Fatalf("MemoLen=%d after cold run, want 4", st.MemoLen())
	}

	rep2, err := Run(ctx, st, grid, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Generated != 0 || rep2.MemoHits != 4 || rep2.Reused != 8 || rep2.Computed != 0 {
		t.Fatalf("warm run: %+v, want 0 generated, 4 memo hits, 8 reused", rep2)
	}

	// Memoized keys must be exactly the keys full regeneration derives.
	fresh, err := Plan(ctx, grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	memoed, stats, err := planWithStore(ctx, grid, 1, st, true, routing.NewSolverCache())
	if err != nil {
		t.Fatal(err)
	}
	if stats.generated != 0 || stats.memoHits != 4 {
		t.Fatalf("memo plan stats = %+v, want 0 generated, 4 memo hits", stats)
	}
	for i := range fresh {
		if fresh[i].Key != memoed[i].Key || fresh[i].Meta != memoed[i].Meta {
			t.Fatalf("memoized plan diverges at %d: %+v vs %+v", i, memoed[i], fresh[i])
		}
		if memoed[i].Scenario.Matrix != nil {
			t.Fatalf("memoized cell %d carries a matrix it should have skipped", i)
		}
	}

	// A widened grid invalidates its groups (new scheme point missing),
	// so those groups regenerate — and only the new cells compute.
	wide := grid
	wide.Schemes = append(append([]string(nil), grid.Schemes...), "ldr")
	rep3, err := Run(ctx, st, wide, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Generated != 4 || rep3.MemoHits != 0 || rep3.Reused != 8 || rep3.Computed != 4 {
		t.Fatalf("widened run: %+v, want 4 generated, 8 reused, 4 computed", rep3)
	}

	// Recompute bypasses the memo shortcut entirely.
	rep4, err := Run(ctx, st, grid, Options{Workers: 1, Recompute: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep4.Generated != 4 || rep4.MemoHits != 0 || rep4.Computed != 8 {
		t.Fatalf("recompute run: %+v, want 4 generated, 8 computed", rep4)
	}
}

func TestResolveNet(t *testing.T) {
	n, err := ResolveNet("randomgeo:12:7")
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "randomgeo-12-s7" || n.Class != "generated" || n.Graph == nil {
		t.Fatalf("ResolveNet = %+v", n)
	}
	for _, bad := range []string{"zoo", "class:ring", "no-such-net"} {
		if _, err := ResolveNet(bad); err == nil {
			t.Errorf("ResolveNet(%q) accepted", bad)
		}
	}
}

func TestRecomputeOverridesStore(t *testing.T) {
	ctx := context.Background()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	grid := Grid{Nets: []string{"star-6"}, Seeds: []int64{1}, Schemes: []string{"sp"}}
	if _, err := Run(ctx, st, grid, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(ctx, st, grid, Options{Workers: 1, Recompute: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Computed != 1 || rep.Reused != 0 {
		t.Fatalf("recompute report = %+v, want 1 computed", rep)
	}
}

func TestQueryAndExportFilters(t *testing.T) {
	ctx := context.Background()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := Run(ctx, st, testGrid(), Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}

	if got := len(Query(st, Filter{})); got != 8 {
		t.Fatalf("unfiltered query = %d cells, want 8", got)
	}
	if got := len(Query(st, Filter{Net: "star"})); got != 4 {
		t.Fatalf("net filter = %d cells, want 4", got)
	}
	if got := len(Query(st, Filter{Scheme: "minmax"})); got != 4 {
		t.Fatalf("scheme filter = %d cells, want 4", got)
	}
	seed := int64(2)
	if got := len(Query(st, Filter{Seed: &seed, Net: "ring"})); got != 2 {
		t.Fatalf("seed+net filter = %d cells, want 2", got)
	}
	if got := len(Query(st, Filter{Class: "ring"})); got != 4 {
		t.Fatalf("class filter = %d cells, want 4", got)
	}

	var csvOut bytes.Buffer
	if err := Export(&csvOut, st, Filter{Scheme: "sp"}, "csv"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvOut.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("csv export has %d lines, want header + 4 rows:\n%s", len(lines), csvOut.String())
	}
	if !strings.HasPrefix(lines[0], "net,class,seed,tm,scheme,headroom") {
		t.Fatalf("csv header = %q", lines[0])
	}

	var jsonOut bytes.Buffer
	if err := Export(&jsonOut, st, Filter{Net: "no-such"}, "json"); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(jsonOut.String()) != "[]" {
		t.Fatalf("empty json export = %q, want []", jsonOut.String())
	}
	if err := Export(&jsonOut, st, Filter{}, "yaml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// observerLog records Observe calls so the retrain hook's contract is
// pinned: computed cells arrive as they checkpoint, reused cells arrive
// during planning, and one Run covers the whole grid either way.
type observerLog struct{ results []store.Result }

func (o *observerLog) Observe(r store.Result) { o.results = append(o.results, r) }

func TestObserverSeesComputedAndReused(t *testing.T) {
	st, err := store.OpenSharded(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	grid := testGrid()

	var first observerLog
	rep, err := Run(context.Background(), st, grid, Options{Workers: 1, Observer: &first})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.results) != rep.Computed || rep.Computed == 0 {
		t.Fatalf("first run observed %d results, want the %d computed", len(first.results), rep.Computed)
	}

	// A resumed run computes nothing, but the observer still sees every
	// reused cell — one Run trains an index on the whole grid.
	var second observerLog
	rep, err = Run(context.Background(), st, grid, Options{Workers: 1, Observer: &second})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Computed != 0 || len(second.results) != rep.Reused {
		t.Fatalf("resumed run observed %d results, want the %d reused (computed %d)",
			len(second.results), rep.Reused, rep.Computed)
	}
	seen := make(map[store.CellKey]bool)
	for _, r := range second.results {
		if r.Key == (store.CellKey{}) {
			t.Fatal("observer saw a keyless result")
		}
		seen[r.Key] = true
	}
	if len(seen) != rep.Planned {
		t.Fatalf("observer saw %d distinct cells, want all %d planned", len(seen), rep.Planned)
	}
}

// TestRunStopsSolvingOnCheckpointError: a Run that returns because a
// checkpoint failed cancels the cells it had not started, so no solve
// runs on after the error. Workers:1 bounds what may still start to the
// cell in flight when the failure was seen.
func TestRunStopsSolvingOnCheckpointError(t *testing.T) {
	st, err := store.OpenReadOnly(t.TempDir()) // every Put fails
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	grid := Grid{
		Nets:    []string{"star-6", "ring-8"},
		Seeds:   []int64{1, 2, 3},
		Schemes: []string{"sp", "b4", "mplste", "minmax", "minmax-k10", "ldr"},
	}
	var places atomic.Int64
	_, err = Run(context.Background(), st, grid, Options{
		Workers: 1,
		OnPlace: func(Cell) { places.Add(1) },
	})
	if err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("Run over a read-only store = %v, want a checkpoint error", err)
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if n := places.Load(); n > 2 {
			t.Fatalf("%d solves started; after the first checkpoint error only the one then in flight may", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
