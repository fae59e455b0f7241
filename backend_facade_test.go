package lowlat

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestBackendFacade drives the placement-backend facade end to end: two
// stores served by two daemons, a ClusterBackend over RemoteBackends
// fronting them, itself served by a third (storeless) daemon — the
// daemons-compose deployment — queried and placed through the typed
// client, and compared against a LocalBackend for provenance.
func TestBackendFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("runs placements")
	}
	seed := func(nets string) *ResultStore {
		t.Helper()
		st, err := OpenResultStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		grid, err := ParseSweepGrid("nets=" + nets + ";seeds=1;schemes=sp")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunSweep(context.Background(), st, grid, SweepOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		return st
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boot := func(b PlacementBackend) string {
		t.Helper()
		bound := make(chan net.Addr, 1)
		served := make(chan error, 1)
		go func() {
			served <- ServeBackend(ctx, b, "127.0.0.1:0", ServeOptions{}, func(a net.Addr) { bound <- a })
		}()
		t.Cleanup(func() {
			select {
			case err := <-served:
				if err != nil {
					t.Errorf("ServeBackend = %v after shutdown", err)
				}
			case <-time.After(30 * time.Second):
				t.Error("ServeBackend did not return after cancel")
			}
		})
		select {
		case a := <-bound:
			return "http://" + a.String()
		case err := <-served:
			t.Fatalf("ServeBackend exited early: %v", err)
			return ""
		}
	}

	urlA := boot(NewLocalBackend(seed("star-6"), LocalBackendOptions{Workers: 1}))
	urlB := boot(NewLocalBackend(seed("ring-8"), LocalBackendOptions{Workers: 1}))

	cb, err := NewClusterBackend([]PlacementBackend{
		NewRemoteBackend(urlA, RemoteBackendOptions{}),
		NewRemoteBackend(urlB, RemoteBackendOptions{}),
	}, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// The cluster's merged query sees both shards.
	if results := cb.Query(SweepFilter{Scheme: "sp"}); len(results) != 2 {
		t.Fatalf("cluster query returned %d cells, want 2", len(results))
	}

	// A place through the cluster routes to one replica and persists
	// there; Lookup resolves it cluster-wide.
	res, err := cb.Place(ctx, CellSpec{Net: "star-6", Seed: 2, Scheme: "sp", Locality: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := cb.Lookup(res.Key); !ok || got != res {
		t.Fatalf("cluster lookup = %+v, %v", got, ok)
	}

	// Daemons compose: a third daemon serves the cluster itself, and the
	// typed client reads through the whole stack.
	front := boot(cb)
	c := NewServeClient(front)
	results, err := c.Query(ctx, SweepFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("front-daemon query returned %d cells, want 3", len(results))
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Backend != "cluster" || len(stats.Replicas) != 2 {
		t.Fatalf("front stats = %+v, want cluster backend with 2 replicas", stats)
	}

	cancel()
}

// TestReplicatedFacade drives the replication facade: a ClusterBackend
// at Replicas:2 writes a placed cell to both of its key's ring owners,
// Heal returns a converged report, and a CachedBackend over
// the cluster serves the repeat lookup from its client-side tier.
func TestReplicatedFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("runs placements")
	}
	openStore := func() *ResultStore {
		t.Helper()
		st, err := OpenResultStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	stA, stB := openStore(), openStore()
	cb, err := NewClusterBackend([]PlacementBackend{
		NewLocalBackend(stA, LocalBackendOptions{Workers: 1}),
		NewLocalBackend(stB, LocalBackendOptions{Workers: 1}),
	}, ClusterOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()

	res, err := cb.Place(context.Background(), CellSpec{Net: "star-6", Seed: 1, Scheme: "sp", Locality: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*ResultStore{stA, stB} {
		if _, ok := st.Get(res.Key); !ok {
			t.Fatal("replicated place did not reach both ring owners")
		}
	}
	if stats := cb.Stats(); stats.ReplicaFactor != 2 || stats.Replicated != 1 {
		t.Fatalf("stats = %+v, want replica_factor 2 with 1 replicated copy", stats)
	}

	rep, err := cb.Heal(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replicas != 2 || rep.Failed != 0 {
		t.Fatalf("heal report = %+v, want 2 converged replicas with 0 failures", rep)
	}

	cached := NewCachedBackend(cb, CachedBackendOptions{Size: 8})
	for i := 0; i < 2; i++ {
		if got, ok := cached.Lookup(res.Key); !ok || got != res {
			t.Fatalf("cached lookup %d = %+v, %v", i, got, ok)
		}
	}
	if stats := cached.Stats(); stats.CacheHits != 1 {
		t.Fatalf("cached stats = %+v, want 1 client-side hit on the repeat lookup", stats)
	}
}

// TestPredictiveFacade drives the predictive fast path through the
// facade: a PredictiveBackend trained from a swept store answers an
// unseen interior cell without invoking the engine, and an untrained
// topology falls back to the exact solver.
func TestPredictiveFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("runs placements")
	}
	st, err := OpenResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, load := range []float64{0.6, 0.7} {
		grid := SweepGrid{Nets: []string{"star-6"}, Seeds: []int64{1, 2}, Schemes: []string{"sp"}, Load: load}
		if _, err := RunSweep(context.Background(), st, grid, SweepOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}

	var invocations atomic.Int64
	local := NewLocalBackend(st, LocalBackendOptions{Workers: 1, OnPlace: func(CellKey) { invocations.Add(1) }})
	pb := NewPredictiveBackend(local, PredictiveBackendOptions{})
	defer pb.Close()
	pb.Train(local.Query(SweepFilter{}))

	// An unseen (seed, load) inside the trained region answers without
	// the solver: interpolated metrics under a zero content key.
	res, err := pb.Place(context.Background(), CellSpec{Net: "star-6", Seed: 9, Scheme: "sp", Load: 0.65, Locality: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Key != (CellKey{}) || res.Metrics.Stretch < 1 {
		t.Fatalf("predicted result = %+v, want zero key and plausible metrics", res)
	}
	if n := invocations.Load(); n != 0 {
		t.Fatalf("predicted place invoked the engine %d times", n)
	}

	// An untrained topology falls back to the exact path and persists.
	res, err = pb.Place(context.Background(), CellSpec{Net: "ring-8", Seed: 1, Scheme: "sp", Load: 0.65, Locality: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Key == (CellKey{}) || invocations.Load() != 1 {
		t.Fatalf("fallback result = %+v after %d invocations, want a stored cell from 1 exact solve",
			res, invocations.Load())
	}

	stats := pb.Stats()
	if stats.Backend != "predictive+local" || stats.Predicted != 1 || stats.PredictFallbacks != 1 {
		t.Fatalf("stats = %+v, want predictive+local with 1 predicted / 1 fallback", stats)
	}
	// The fallback's ground truth was observed back into the index: the
	// ring-8 surface now exists beside the trained star-6 one.
	if stats.Surfaces != 2 || stats.SurfaceSamples != 5 {
		t.Fatalf("stats = %+v, want 2 surfaces / 5 samples after the fallback observation", stats)
	}
}
