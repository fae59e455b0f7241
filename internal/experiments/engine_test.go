package experiments

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// determinismSubset keeps the parallel-vs-sequential comparison fast while
// still spanning low and high LLPD and several structural classes.
var determinismSubset = map[string]bool{
	"tree-2x4": true, "ring-16": true, "grid-4x4": true,
	"chord-ring-16-4": true, "clique-8": true, "wheel-10": true,
}

func determinismConfig(workers int) Config {
	return Config{
		TMsPerTopology: 2,
		Seed:           17,
		Workers:        workers,
		NetworkFilter:  func(n Network) bool { return determinismSubset[n.Name] },
	}
}

// placementFigures are the drivers whose cells go through placeGrid.
var placementFigures = map[string]bool{
	"fig3": true, "fig4": true, "fig7": true, "fig8": true, "fig16": true,
	"fig17": true, "fig18": true, "fig19": true, "fig20": true,
}

// TestParallelTablesMatchSequential is the engine's core guarantee: a
// figure table rendered with eight workers is byte-identical to the same
// table rendered sequentially. fig15 is excluded (its cells are wall-clock
// timings, unstable even between two sequential runs); fig9/fig10 cover
// the trace path, fig1 the metric path, and the rest the placement path.
// Each run gets a fresh backend, and both must place the same non-zero
// number of cells, so the comparison is solve against solve, never one
// recall against another.
func TestParallelTablesMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several figures twice")
	}
	for _, name := range []string{"fig1", "fig3", "fig4", "fig7", "fig8", "fig9", "fig10", "fig16", "fig20"} {
		var seq, par bytes.Buffer
		seqCfg, parCfg := determinismConfig(1), determinismConfig(8)
		seqCells, parCells := newMemo(), newMemo()
		seqCfg.Backend, parCfg.Backend = seqCells, parCells
		if err := Run(name, seqCfg, &seq); err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}
		if err := Run(name, parCfg, &par); err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if seq.String() != par.String() {
			t.Errorf("%s: parallel table differs from sequential\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
				name, seq.String(), par.String())
		}
		if n, m := len(seqCells.cells), len(parCells.cells); n != m || (placementFigures[name] && n == 0) {
			t.Errorf("%s: placed %d cells at workers=1 and %d at workers=8", name, n, m)
		}
	}
}

// TestExperimentCancellation: a cancelled config context aborts a figure
// run with the context's error instead of hanging or fabricating rows,
// also when every cell the figure needs is already in the backend.
func TestExperimentCancellation(t *testing.T) {
	warm := determinismConfig(4)
	warm.Backend = newMemo()
	var buf bytes.Buffer
	if err := Run("fig3", warm, &buf); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		backend ResultBackend
	}{
		{"cold", nil},
		{"all cells stored", warm.Backend},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			cfg := determinismConfig(4)
			cfg.Context = ctx
			cfg.Backend = tc.backend
			buf.Reset()
			err := Run("fig3", cfg, &buf)
			if err == nil {
				t.Fatal("cancelled context must abort the experiment")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

// TestExperimentTimeout: RunAll respects a deadline between figures.
func TestExperimentTimeout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	cfg := determinismConfig(4)
	cfg.Context = ctx
	var buf bytes.Buffer
	err := RunAll(cfg, &buf)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
