package lowlat

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"lowlat/internal/store"
	"lowlat/internal/sweep"
	"lowlat/internal/topo"
)

// TestRunSweepFacade drives the persistence facade end to end: run a tiny
// sweep, resume it (pure reuse), query a slice, export it.
func TestRunSweepFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("runs placements")
	}
	st, err := OpenResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	grid, err := ParseSweepGrid("nets=star-6;seeds=1;schemes=sp,minmax")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunSweep(context.Background(), st, grid, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Computed != 2 || rep.Reused != 0 {
		t.Fatalf("first sweep report = %+v, want 2 computed", rep)
	}
	rep, err = RunSweep(context.Background(), st, grid, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Computed != 0 || rep.Reused != 2 {
		t.Fatalf("resumed sweep report = %+v, want 2 reused", rep)
	}

	if got := sweep.Query(st, SweepFilter{Scheme: "sp"}); len(got) != 1 {
		t.Fatalf("query returned %d cells, want 1", len(got))
	}
	var buf bytes.Buffer
	if err := ExportSweep(&buf, st, SweepFilter{}, "csv"); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(buf.String()), "\n"); len(lines) != 3 {
		t.Fatalf("export:\n%s", buf.String())
	}

	// The content key of the same scenario matches what the sweep stored.
	e, ok := topo.ByName("star-6")
	if !ok {
		t.Fatal("star-6 missing")
	}
	g := e.Build()
	res, err := GenerateTraffic(g, TrafficConfig{Seed: 1, TargetMaxUtil: 1 / 1.3, Locality: 1})
	if err != nil {
		t.Fatal(err)
	}
	key := store.KeyFor(g, res.Matrix, NewShortestPath())
	if _, ok := st.Get(key); !ok {
		t.Fatalf("ScenarioKey %v not found in sweep store", key)
	}
}
