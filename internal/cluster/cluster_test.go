package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lowlat/internal/backend"
	"lowlat/internal/cluster"
	"lowlat/internal/serve"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// Note: this suite runs on the project's 1-CPU CI box; everything stays
// on the tiny star-6/ring-8 networks and Workers:1 daemons, like the
// serve suite.

// replica is one in-process lowlatd: a store, a query server over it,
// an HTTP listener, and an engine-invocation counter.
type replica struct {
	st     *store.Store
	srv    *serve.Server
	ts     *httptest.Server
	placed atomic.Int64
}

// newReplica seeds a store through a sweep (empty grid = empty store)
// and serves it.
func newReplica(t *testing.T, nets []string) *replica {
	t.Helper()
	st, err := store.OpenSharded(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if len(nets) > 0 {
		grid := sweep.Grid{Nets: nets, Seeds: []int64{1}, Schemes: []string{"sp"}}
		if _, err := sweep.Run(context.Background(), st, grid, sweep.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	r := &replica{st: st}
	r.srv = serve.NewBackendServer(backend.NewLocal(st, backend.LocalOptions{
		Workers: 1,
		OnPlace: func(store.CellKey) { r.placed.Add(1) },
	}), serve.Options{})
	r.ts = httptest.NewServer(r.srv.Handler())
	t.Cleanup(r.ts.Close)
	return r
}

func (r *replica) remote() *serve.Remote {
	return serve.NewRemote(serve.NewClient(r.ts.URL), serve.RemoteOptions{Timeout: 10 * time.Second})
}

// TestClusterAcceptance is the subsystem's acceptance test: a
// ClusterBackend over two in-process query servers (a) answers a
// filtered Query byte-identical to a single Local backend over the union
// store, (b) routes Place for one key to the same replica every time —
// one engine invocation across 8 concurrent clients through the ring —
// and (c) reroutes a killed replica's keys to the ring successor with
// zero failed requests.
func TestClusterAcceptance(t *testing.T) {
	ra := newReplica(t, []string{"star-6"})
	rb := newReplica(t, []string{"ring-8"})
	cb, err := cluster.New([]backend.Backend{ra.remote(), rb.remote()}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// --- (a) fan-out query matches the union store byte for byte.
	union, err := store.OpenSharded(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer union.Close()
	grid := sweep.Grid{Nets: []string{"star-6", "ring-8"}, Seeds: []int64{1}, Schemes: []string{"sp"}}
	if _, err := sweep.Run(context.Background(), union, grid, sweep.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	local := backend.NewLocal(union, backend.LocalOptions{Workers: 1})
	f := sweep.Filter{Scheme: "sp"}
	got, err := json.Marshal(cb.Query(f))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(local.Query(f))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("cluster query differs from union store:\n--- cluster\n%s\n--- union\n%s", got, want)
	}
	if n := len(cb.Query(f)); n != 2 {
		t.Fatalf("cluster query matched %d cells, want 2", n)
	}

	// --- (b) deterministic placement: 8 concurrent clients, one replica,
	// one engine invocation.
	spec := store.CellSpec{Net: "star-6", Seed: 2, Scheme: "sp", Locality: 1}
	owner := cb.Owners(spec.Normalized().String())[0]
	const clients = 8
	results := make([]store.Result, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = cb.Place(context.Background(), spec)
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("client %d got a different result: %+v vs %+v", i, results[i], results[0])
		}
	}
	invocations := [2]int64{ra.placed.Load(), rb.placed.Load()}
	if invocations[0]+invocations[1] != 1 {
		t.Fatalf("%d engine invocations across the cluster for one key, want exactly 1 (per replica: %v)",
			invocations[0]+invocations[1], invocations)
	}
	if invocations[owner] != 1 {
		t.Fatalf("engine ran on replica %d, but the ring owner is %d", 1-owner, owner)
	}
	// A repeat Place routes to the same replica and is served without a
	// new invocation; the cell is now addressable by key cluster-wide.
	if again, err := cb.Place(context.Background(), spec); err != nil || again != results[0] {
		t.Fatalf("repeat place: %+v, %v", again, err)
	}
	if got, ok := cb.Lookup(results[0].Key); !ok || got != results[0] {
		t.Fatalf("cluster lookup of placed key: %+v, %v", got, ok)
	}
	if n := ra.placed.Load() + rb.placed.Load(); n != 1 {
		t.Fatalf("repeat requests re-invoked the engine (%d invocations)", n)
	}

	// --- (c) kill one replica: its keys reroute to the ring successor
	// with zero failed requests.
	victimSpec := store.CellSpec{Net: "ring-8", Seed: 3, Scheme: "sp", Locality: 1}
	victim := cb.Owners(victimSpec.Normalized().String())[0]
	first, err := cb.Place(context.Background(), victimSpec)
	if err != nil {
		t.Fatal(err)
	}
	reps := [2]*replica{ra, rb}
	reps[victim].ts.Close() // the daemon is gone mid-test

	rerouted, err := cb.Place(context.Background(), victimSpec)
	if err != nil {
		t.Fatalf("place after replica kill: %v", err)
	}
	if rerouted.Key != first.Key {
		t.Fatalf("rerouted place changed content identity: %s vs %s", rerouted.Key, first.Key)
	}
	if got, ok := cb.Lookup(first.Key); !ok || got.Key != first.Key {
		t.Fatalf("lookup after replica kill: %+v, %v", got, ok)
	}
	// The survivor computed the rerouted cell and now persists it.
	survivor := reps[1-victim]
	if _, ok := survivor.st.Get(first.Key); !ok {
		t.Fatal("rerouted cell did not persist on the surviving replica")
	}
	stats := cb.Stats()
	if stats.Down != 1 {
		t.Fatalf("stats.Down = %d, want 1", stats.Down)
	}
	if stats.Rerouted == 0 {
		t.Fatal("stats.Rerouted = 0 after rerouted requests")
	}
	// Queries keep answering from the healthy side — no error, no hang.
	if res := cb.Query(sweep.Filter{}); len(res) == 0 {
		t.Fatal("query after replica kill returned nothing")
	}
}

// TestReprobeRecoveryAndTotalFailure pins the two health-mark edges: a
// down-marked replica that is actually alive rejoins automatically once
// its ReprobeInterval elapses (no operator Probe needed), and a cluster
// whose every replica is unreachable reports an error from QueryContext
// instead of reading as an empty landscape.
func TestReprobeRecoveryAndTotalFailure(t *testing.T) {
	r := newReplica(t, []string{"star-6"})
	cb, err := cluster.New([]backend.Backend{r.remote()}, cluster.Options{ReprobeInterval: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	cb.MarkDown(0)
	if res, err := cb.QueryContext(context.Background(), sweep.Filter{}); err != nil || len(res) != 1 {
		t.Fatalf("query against a recovered replica: %d results, %v", len(res), err)
	}
	if cb.Down(0) {
		t.Fatal("live replica still marked down after automatic re-probe")
	}

	dead := newReplica(t, nil)
	dead.ts.Close()
	dc, err := cluster.New([]backend.Backend{dead.remote()}, cluster.Options{ReprobeInterval: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dc.QueryContext(context.Background(), sweep.Filter{}); !errors.Is(err, backend.ErrUnavailable) {
		t.Fatalf("all-dead cluster query: %v, want ErrUnavailable", err)
	}
	if _, err := dc.Place(context.Background(), store.CellSpec{Net: "star-6", Seed: 1, Scheme: "sp", Locality: 1}); !errors.Is(err, backend.ErrUnavailable) {
		t.Fatalf("all-dead cluster place: %v, want ErrUnavailable", err)
	}
}

// TestSweepFarmsOutThroughCluster pins the orchestrator re-plumb: a
// sweep with Options.Backend set dispatches every missing cell through
// the cluster (the replicas' engines do the work, sharded by the ring)
// while still checkpointing into the local store, so the sweep remains
// resumable.
func TestSweepFarmsOutThroughCluster(t *testing.T) {
	ra := newReplica(t, nil)
	rb := newReplica(t, nil)
	cb, err := cluster.New([]backend.Backend{ra.remote(), rb.remote()}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}

	st, err := store.OpenSharded(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	grid := sweep.Grid{Nets: []string{"star-6", "ring-8"}, Seeds: []int64{1, 2}, Schemes: []string{"sp"}}
	rep, err := sweep.Run(context.Background(), st, grid, sweep.Options{Workers: 1, Backend: cb})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Planned != 4 || rep.Computed != 4 || rep.Failed != 0 {
		t.Fatalf("report %+v, want 4 planned, 4 computed", rep)
	}
	if st.Len() != 4 {
		t.Fatalf("local store holds %d cells, want 4 checkpointed", st.Len())
	}
	// The compute happened on the replicas, sharded by the ring — the
	// local process never placed a cell itself.
	if n := ra.placed.Load() + rb.placed.Load(); n != 4 {
		t.Fatalf("replicas ran %d engine invocations, want 4", n)
	}
	// A rerun reuses every local checkpoint: no new remote work.
	rep2, err := sweep.Run(context.Background(), st, grid, sweep.Options{Workers: 1, Backend: cb})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Reused != 4 || rep2.Computed != 0 {
		t.Fatalf("resumed report %+v, want 4 reused", rep2)
	}
	if n := ra.placed.Load() + rb.placed.Load(); n != 4 {
		t.Fatalf("resumed sweep re-ran remote work (%d invocations)", n)
	}
}
