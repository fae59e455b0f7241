package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lowlat/internal/geo"
	"lowlat/internal/graph"
	"lowlat/internal/routing"
	"lowlat/internal/tm"
	"lowlat/internal/tmgen"
	"lowlat/internal/topo"
)

func intItems(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestMapOrdersResults(t *testing.T) {
	items := intItems(100)
	for _, workers := range []int{1, 2, 8, 0} {
		got, err := Map(context.Background(), workers, items,
			func(_ context.Context, i int, v int) (int, error) {
				return v * v, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapParallelMatchesSequential(t *testing.T) {
	items := intItems(64)
	fn := func(_ context.Context, i int, v int) (string, error) {
		return fmt.Sprintf("item-%d", v*3), nil
	}
	seq, err := Map(context.Background(), 1, items, fn)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Map(context.Background(), 8, items, fn)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel result order differs from sequential")
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), 4, nil,
		func(_ context.Context, i int, v int) (int, error) { return v, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty map: got %v, %v", got, err)
	}
}

func TestMapReturnsLowestIndexedError(t *testing.T) {
	items := intItems(50)
	boom := errors.New("boom")
	_, err := Map(context.Background(), 8, items,
		func(_ context.Context, i int, v int) (int, error) {
			if v == 7 || v == 31 {
				return 0, fmt.Errorf("item %d: %w", v, boom)
			}
			return v, nil
		})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	// Item 7 always runs (errors only cancel *unstarted* items, and with
	// deterministic per-item errors the lowest-indexed one wins).
	if got := err.Error(); !strings.Contains(got, "item 7") {
		t.Fatalf("err = %q, want the lowest-indexed failure (item 7)", got)
	}
}

func TestMapFirstErrorCancelsRemaining(t *testing.T) {
	var started atomic.Int64
	items := intItems(1000)
	_, err := Map(context.Background(), 2, items,
		func(_ context.Context, i int, v int) (int, error) {
			started.Add(1)
			if v == 0 {
				return 0, errors.New("early failure")
			}
			time.Sleep(time.Millisecond)
			return v, nil
		})
	if err == nil {
		t.Fatal("want error")
	}
	if n := started.Load(); n == int64(len(items)) {
		t.Fatal("failure should have cancelled unstarted items")
	}
}

func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = Map(ctx, 2, intItems(10000),
			func(_ context.Context, i int, v int) (int, error) {
				if started.Add(1) == 4 {
					cancel()
				}
				time.Sleep(100 * time.Microsecond)
				return v, nil
			})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Map did not return after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n >= 10000 {
		t.Fatal("cancellation did not stop the sweep")
	}
}

func TestMapRecoversWorkerPanic(t *testing.T) {
	_, err := Map(context.Background(), 4, intItems(20),
		func(_ context.Context, i int, v int) (int, error) {
			if v == 5 {
				panic("worker exploded")
			}
			return v, nil
		})
	if err == nil {
		t.Fatal("want error from panicking worker")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", err, err)
	}
	if !strings.Contains(pe.Error(), "worker exploded") {
		t.Fatalf("panic error lost its value: %v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic error lost its stack")
	}
}

func TestStreamDeliversEveryResult(t *testing.T) {
	items := intItems(37)
	seen := make([]bool, len(items))
	for res := range Stream(context.Background(), 5, items,
		func(_ context.Context, i int, v int) (int, error) { return v, nil }) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if seen[res.Index] {
			t.Fatalf("index %d delivered twice", res.Index)
		}
		seen[res.Index] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("index %d never delivered", i)
		}
	}
}

func TestDefaultWorkers(t *testing.T) {
	if DefaultWorkers(3) != 3 {
		t.Fatal("positive counts pass through")
	}
	if DefaultWorkers(0) < 1 || DefaultWorkers(-1) < 1 {
		t.Fatal("non-positive counts must resolve to at least one worker")
	}
}

// scenarioFixture builds a small topology and a few calibrated matrices.
func scenarioFixture(t testing.TB) (*graph.Graph, []*tm.Matrix) {
	t.Helper()
	g := topo.Grid("grid-4x4-engine", 4, 4, 300, 10e9)
	ms, err := tmgen.GenerateSet(g, tmgen.Config{Seed: 11}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g, ms
}

func TestRunnerParallelMatchesSequential(t *testing.T) {
	g, ms := scenarioFixture(t)
	schemes := []routing.Scheme{routing.SP{}, routing.LatencyOpt{}, routing.MinMax{K: 4}}
	var scs []Scenario
	for _, s := range schemes {
		for _, m := range ms {
			scs = append(scs, Scenario{Tag: "grid/" + s.Name(), Graph: g, Matrix: m, Scheme: s})
		}
	}

	seq, err := NewRunner(1).Run(context.Background(), scs)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewRunner(8).Run(context.Background(), scs)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(scs) || len(par) != len(scs) {
		t.Fatalf("result counts: seq %d par %d want %d", len(seq), len(par), len(scs))
	}
	for i := range seq {
		if seq[i].Index != i || par[i].Index != i {
			t.Fatalf("results not in submission order at %d", i)
		}
		a, b := seq[i].Placement, par[i].Placement
		if a.LatencyStretch() != b.LatencyStretch() || a.MaxUtilization() != b.MaxUtilization() {
			t.Fatalf("scenario %d (%s): parallel placement differs from sequential",
				i, scs[i].Tag)
		}
		for ai := range a.Allocs {
			if len(a.Allocs[ai]) != len(b.Allocs[ai]) {
				t.Fatalf("scenario %d aggregate %d: alloc counts differ", i, ai)
			}
			for j := range a.Allocs[ai] {
				if !a.Allocs[ai][j].Path.Equal(b.Allocs[ai][j].Path) {
					t.Fatalf("scenario %d aggregate %d alloc %d: paths differ", i, ai, j)
				}
			}
		}
	}
}

func TestRunnerSharesCacheAcrossScenarios(t *testing.T) {
	g, ms := scenarioFixture(t)
	r := NewRunner(4)
	var scs []Scenario
	for _, m := range ms {
		scs = append(scs, Scenario{Graph: g, Matrix: m, Scheme: routing.LatencyOpt{}})
	}
	if _, err := r.Run(context.Background(), scs); err != nil {
		t.Fatal(err)
	}
	pc := r.Cache().ForGraph(g)
	total := 0
	for _, a := range ms[0].Aggregates {
		total += pc.Generated(a.Src, a.Dst)
	}
	if total == 0 {
		t.Fatal("runner scenarios did not populate the shared path cache")
	}
	// A structurally identical rebuild must hit the same cache.
	g2 := topo.Grid("grid-4x4-engine", 4, 4, 300, 10e9)
	if g2 == g {
		t.Fatal("fixture must rebuild a fresh pointer")
	}
	if r.Cache().ForGraph(g2) != pc {
		t.Fatal("fingerprint-equal graph must share the PathCache")
	}
}

func TestRunnerErrorNamesScenario(t *testing.T) {
	// Two disconnected nodes: SP has no path and must error.
	b := graph.NewBuilder("disconnected")
	a := b.AddNode("a", geo.Point{})
	c := b.AddNode("c", geo.Point{})
	d := b.AddNode("d", geo.Point{})
	b.AddBiLink(a, c, 1e9, 0.001)
	_ = d
	g := b.MustBuild()
	m := tm.New([]tm.Aggregate{{Src: a, Dst: d, Volume: 1e6, Flows: 1}})
	_, err := NewRunner(2).Run(context.Background(), []Scenario{
		{Tag: "disconnected/sp", Graph: g, Matrix: m, Scheme: routing.SP{}},
	})
	if err == nil || !strings.Contains(err.Error(), "disconnected/sp") {
		t.Fatalf("err = %v, want scenario tag in message", err)
	}
}
