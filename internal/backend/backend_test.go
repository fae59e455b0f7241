package backend

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.OpenSharded(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// readOnly reopens st's directory with store.OpenReadOnly — the mount a
// read-only daemon or a query beside a writing sweep serves from.
func readOnly(t *testing.T, st *store.Store) *store.Store {
	t.Helper()
	ro, err := store.OpenReadOnly(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ro.Close() })
	return ro
}

func spec(net string, seed int64, scheme string) store.CellSpec {
	return store.CellSpec{Net: net, Seed: seed, Scheme: scheme, Locality: 1}
}

// TestLocalPlaceLifecycle pins the Local backend's whole contract on one
// cell: a first Place computes and persists, the repeat is a store hit
// via the calibration memo (no second engine invocation), Lookup finds
// the key, Query filters it, and Stats counts every step.
func TestLocalPlaceLifecycle(t *testing.T) {
	st := openStore(t)
	var invocations atomic.Int64
	l := NewLocal(st, LocalOptions{Workers: 1, OnPlace: func(store.CellKey) { invocations.Add(1) }})

	res, src, err := l.PlaceSourced(context.Background(), spec("star-6", 1, "sp"))
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceComputed || invocations.Load() != 1 {
		t.Fatalf("first place: source %q, %d invocations", src, invocations.Load())
	}
	if res.Meta.Net != "star-6" || res.Meta.Load == 0 {
		t.Fatalf("result meta %+v", res.Meta)
	}

	again, src, err := l.PlaceSourced(context.Background(), spec("star-6", 1, "sp"))
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceStore || again != res || invocations.Load() != 1 {
		t.Fatalf("repeat place: source %q, %d invocations", src, invocations.Load())
	}

	if got, ok := l.Lookup(res.Key); !ok || got != res {
		t.Fatalf("lookup: %+v, %v", got, ok)
	}
	if n := len(l.Query(sweep.Filter{Scheme: "sp"})); n != 1 {
		t.Fatalf("query matched %d cells", n)
	}
	s := l.Stats()
	if s.Backend != "local" || s.StoreCells != 1 || s.Computed != 1 || s.MemoHits != 1 || s.StoreHits != 2 {
		t.Fatalf("stats %+v", s)
	}
}

// TestLocalSpecErrors pins that malformed specs fail with *SpecError —
// the kind the HTTP layer renders as 400 — before any engine work.
func TestLocalSpecErrors(t *testing.T) {
	l := NewLocal(openStore(t), LocalOptions{Workers: 1})
	for name, s := range map[string]store.CellSpec{
		"missing net":    {Scheme: "sp", Locality: 1},
		"missing scheme": {Net: "star-6", Locality: 1},
		"unknown scheme": spec("star-6", 1, "frob"),
		"unknown net":    spec("no-such-net", 1, "sp"),
		"multi net":      spec("zoo", 1, "sp"),
		"bad headroom":   {Net: "star-6", Scheme: "ldr", Headroom: 1.5, Locality: 1},
		"bad load":       {Net: "star-6", Scheme: "sp", Load: 7, Locality: 1},
		"bad locality":   {Net: "star-6", Scheme: "sp", Locality: -1},
	} {
		_, err := l.Place(context.Background(), s)
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("%s: err = %v, want *SpecError", name, err)
		}
	}
	if n := l.Stats().Computed; n != 0 {
		t.Fatalf("%d engine invocations from invalid specs", n)
	}
}

// TestLocalOverload pins admission control: with the one slot held by a
// parked computation, a Place for a different cell fails ErrOverloaded
// without queueing.
func TestLocalOverload(t *testing.T) {
	st := openStore(t)
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	l := NewLocal(st, LocalOptions{
		Workers:     1,
		MaxInflight: 1,
		OnPlace: func(store.CellKey) {
			select {
			case entered <- struct{}{}:
				<-release
			default:
			}
		},
	})
	done := make(chan error, 1)
	go func() {
		_, err := l.Place(context.Background(), spec("star-6", 1, "sp"))
		done <- err
	}()
	<-entered

	_, err := l.Place(context.Background(), spec("ring-8", 1, "sp"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-limit place: %v, want ErrOverloaded", err)
	}
	if got := l.Stats().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("held place: %v", err)
	}
}

// TestLocalHonorsContext pins the Backend contract that Place blocks
// until the cell is resolved or the context dies: with the one worker
// slot held by a parked solve, a Place whose deadline passes while it
// waits for the slot fails with that deadline instead of waiting.
func TestLocalHonorsContext(t *testing.T) {
	st := openStore(t)
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	l := NewLocal(st, LocalOptions{
		Workers: 1,
		OnPlace: func(store.CellKey) {
			select {
			case entered <- struct{}{}:
				<-release
			default:
			}
		},
	})
	held := make(chan error, 1)
	go func() {
		_, err := l.Place(context.Background(), spec("star-6", 1, "sp"))
		held <- err
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	second := make(chan error, 1)
	go func() {
		_, err := l.Place(ctx, spec("ring-8", 1, "sp"))
		second <- err
	}()
	var err error
	waited := false
	select {
	case err = <-second:
	case <-time.After(5 * time.Second):
		err, waited = errors.New("still waiting for a worker slot after 5s"), true
	}
	close(release)
	if err := <-held; err != nil {
		t.Errorf("held place: %v", err)
	}
	if waited {
		<-second
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("place past its deadline: %v, want context.DeadlineExceeded", err)
	}
}

// TestReadOnlyLocalNeverComputes pins the read-only mount: a Local over
// a store opened read-only serves swept cells through the memo, fails
// anything else with ErrNotStored before any engine work, never writes
// the store, and reports itself as the "store" backend.
func TestReadOnlyLocalNeverComputes(t *testing.T) {
	st := openStore(t)
	grid := sweep.Grid{Nets: []string{"star-6"}, Seeds: []int64{1}, Schemes: []string{"sp"}}
	if _, err := sweep.Run(context.Background(), st, grid, sweep.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	var invocations atomic.Int64
	b := NewLocal(readOnly(t, st), LocalOptions{OnPlace: func(store.CellKey) { invocations.Add(1) }})

	res, src, err := b.PlaceSourced(context.Background(), spec("star-6", 1, "sp"))
	if err != nil || src != SourceStore {
		t.Fatalf("stored place: %v, source %q", err, src)
	}
	if _, err := b.Place(context.Background(), spec("star-6", 1, "minmax")); !errors.Is(err, ErrNotStored) {
		t.Fatalf("unstored place: %v, want ErrNotStored", err)
	}
	if got, ok := b.Lookup(res.Key); !ok || got != res {
		t.Fatalf("lookup: %+v, %v", got, ok)
	}
	s := b.Stats()
	if s.Backend != "store" || !s.ReadOnly || s.StoreCells != 1 || s.Errors != 1 || s.MemoHits != 1 {
		t.Fatalf("stats %+v", s)
	}
	if n := invocations.Load(); n != 0 || s.Computed != 0 {
		t.Fatalf("read-only mount invoked the engine %d times (computed %d)", n, s.Computed)
	}
	reopened, err := store.OpenReadOnly(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != 1 {
		t.Fatalf("store grew to %d cells under a read-only backend", reopened.Len())
	}
}

// TestSweepAndLocalAgreeOnCells pins that a sweep's in-process dispatch
// and Local.Place build the same cell: the same specs, swept into one
// store and placed one by one into another, yield equal keys, metadata
// and metrics. Each planned cell's Spec is placed as is — what a sweep
// farming cells out to a backend sends — so a headroom point must name
// its scheme the way CheckSpec accepts it.
func TestSweepAndLocalAgreeOnCells(t *testing.T) {
	swept := openStore(t)
	grid := sweep.Grid{Nets: []string{"star-6"}, Seeds: []int64{1}, Schemes: []string{"sp", "minmax", "ldr"}, Headrooms: []float64{0, 0.1}}
	cells, err := sweep.Plan(context.Background(), grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := sweep.Run(context.Background(), swept, grid, sweep.Options{Workers: 1}); err != nil || rep.Computed != len(cells) {
		t.Fatalf("sweep: %+v, %v", rep, err)
	}
	l := NewLocal(openStore(t), LocalOptions{Workers: 1})
	for _, c := range cells {
		want, ok := swept.Get(c.Key)
		if !ok {
			t.Fatalf("%s: swept store misses planned key %s", c.Scenario.Tag, c.Key)
		}
		got, src, err := l.PlaceSourced(context.Background(), c.Spec)
		if err != nil || src != SourceComputed {
			t.Fatalf("%s: place: %v, source %q", c.Scenario.Tag, err, src)
		}
		if got.Key != want.Key || got.Meta != want.Meta || got.Metrics != want.Metrics {
			t.Fatalf("%s: Local placed\n%+v\nsweep stored\n%+v", c.Scenario.Tag, got, want)
		}
	}
}

// TestLocalPut pins the experiments checkpoint seam: Put persists an
// externally computed cell that Lookup then recalls.
func TestLocalPut(t *testing.T) {
	l := NewLocal(openStore(t), LocalOptions{Workers: 1})
	r := store.Result{
		Key:     store.CellKey{Graph: 1, Matrix: 2, Scheme: "sp", Config: 3},
		Meta:    store.Meta{Net: "synthetic"},
		Metrics: store.Metrics{Stretch: 1.5},
	}
	if err := l.Put(r); err != nil {
		t.Fatal(err)
	}
	if got, ok := l.Lookup(r.Key); !ok || got != r {
		t.Fatalf("lookup after put: %+v, %v", got, ok)
	}
}
