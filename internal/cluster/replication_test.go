package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lowlat/internal/backend"
	"lowlat/internal/cluster"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// faulty is an in-process fault-injectable replica: a Local backend whose
// failures are a flag flip instead of a killed process, so the R>1
// acceptance test can kill and rejoin replicas deterministically (and
// rebuild one from an empty store) without HTTP servers. While down,
// every call fails the way a dead daemon's does — ErrUnavailable from
// anything that dials, a miss from Lookup — and Probe refuses, so the
// cluster's health machinery exercises its real paths.
type faulty struct {
	mu    sync.RWMutex
	inner *backend.Local
	st    *store.Store
	down  atomic.Bool

	// failDelay, when set, makes every failure slow — the latency shape
	// of a dialing client timing out against a dead host rather than an
	// instant connection refusal. Set before the replica sees traffic.
	failDelay time.Duration

	putMu  sync.Mutex
	putLog []store.Result
	// putErr, when set, fails every Put with it while the rest of the
	// replica keeps answering: a fault on the write alone.
	putErr error
}

func newFaulty(t *testing.T) *faulty {
	t.Helper()
	f := &faulty{}
	f.rebuild(t)
	return f
}

// rebuild swaps in a fresh empty store — the in-process analogue of a
// replica whose disk was lost and daemon redeployed.
func (f *faulty) rebuild(t *testing.T) {
	t.Helper()
	st, err := store.OpenSharded(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	f.mu.Lock()
	f.st = st
	f.inner = backend.NewLocal(st, backend.LocalOptions{Workers: 1})
	f.mu.Unlock()
}

func (f *faulty) local() *backend.Local {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.inner
}

func (f *faulty) store() *store.Store {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.st
}

func (f *faulty) fail() error {
	if f.failDelay > 0 {
		time.Sleep(f.failDelay)
	}
	return fmt.Errorf("faulty replica is down: %w", backend.ErrUnavailable)
}

// takePutLog returns the sequence of results delivered via Put and
// resets it.
func (f *faulty) takePutLog() []store.Result {
	f.putMu.Lock()
	defer f.putMu.Unlock()
	out := f.putLog
	f.putLog = nil
	return out
}

func (f *faulty) Lookup(k store.CellKey) (store.Result, bool) {
	if f.down.Load() {
		return store.Result{}, false
	}
	return f.local().Lookup(k)
}

func (f *faulty) Place(ctx context.Context, spec store.CellSpec) (store.Result, error) {
	r, _, err := f.PlaceSourced(ctx, spec)
	return r, err
}

func (f *faulty) PlaceSourced(ctx context.Context, spec store.CellSpec) (store.Result, backend.Source, error) {
	if f.down.Load() {
		return store.Result{}, "", f.fail()
	}
	return f.local().PlaceSourced(ctx, spec)
}

func (f *faulty) Query(filter sweep.Filter) []store.Result {
	if f.down.Load() {
		return nil
	}
	return f.local().Query(filter)
}

func (f *faulty) QueryContext(ctx context.Context, filter sweep.Filter) ([]store.Result, error) {
	if f.down.Load() {
		return nil, f.fail()
	}
	return f.local().Query(filter), nil
}

func (f *faulty) Probe(context.Context) error {
	if f.down.Load() {
		return f.fail()
	}
	return nil
}

// failPuts makes every later Put fail with err (nil heals the fault).
func (f *faulty) failPuts(err error) {
	f.putMu.Lock()
	f.putErr = err
	f.putMu.Unlock()
}

func (f *faulty) Put(r store.Result) error {
	if f.down.Load() {
		return f.fail()
	}
	f.putMu.Lock()
	err := f.putErr
	f.putMu.Unlock()
	if err != nil {
		return err
	}
	if err := f.local().Put(r); err != nil {
		return err
	}
	f.putMu.Lock()
	f.putLog = append(f.putLog, r)
	f.putMu.Unlock()
	return nil
}

func (f *faulty) Keys(ctx context.Context) ([]store.CellKey, error) {
	if f.down.Load() {
		return nil, f.fail()
	}
	return f.local().Keys(ctx)
}

func (f *faulty) KeyDigest(ctx context.Context) (store.Digest, int, error) {
	if f.down.Load() {
		return 0, 0, f.fail()
	}
	return f.local().KeyDigest(ctx)
}

func (f *faulty) Stats() backend.Stats { return f.local().Stats() }

// acceptanceSpecs is the tiny grid the replicated acceptance test places:
// 4 cells over the two smallest nets, cheap enough for the 1-CPU box.
func acceptanceSpecs() []store.CellSpec {
	return []store.CellSpec{
		{Net: "star-6", Seed: 1, Scheme: "sp", Locality: 1},
		{Net: "star-6", Seed: 2, Scheme: "sp", Locality: 1},
		{Net: "ring-8", Seed: 1, Scheme: "sp", Locality: 1},
		{Net: "ring-8", Seed: 2, Scheme: "sp", Locality: 1},
	}
}

// newReplicatedCluster builds 3 fault-injectable replicas under one R=2
// ring with instant re-probe.
func newReplicatedCluster(t *testing.T) (*cluster.Backend, []*faulty) {
	t.Helper()
	reps := []*faulty{newFaulty(t), newFaulty(t), newFaulty(t)}
	cb, err := cluster.New(
		[]backend.Backend{reps[0], reps[1], reps[2]},
		cluster.Options{Replicas: 2, ReprobeInterval: time.Nanosecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cb.Close() })
	return cb, reps
}

// export renders the cluster's full landscape in canonical merged order —
// the byte-identity witness the acceptance criteria compare across runs.
func export(t *testing.T, cb *cluster.Backend) []byte {
	t.Helper()
	res, err := cb.QueryContext(context.Background(), sweep.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReplicatedClusterAcceptance is the R>1 acceptance test: a
// 3-replica R=2 cluster, killing any one replica mid-run, must serve
// every place and lookup with zero failures; after the victim rejoins
// (hint drain) and a Heal sweep — including a rejoin from a completely
// empty rebuilt store — every cell is back on all of its ring owners and
// the exported landscape is byte-identical to a run where nothing was
// ever killed.
func TestReplicatedClusterAcceptance(t *testing.T) {
	specs := acceptanceSpecs()

	// Baseline: same topology, nothing ever killed.
	base, _ := newReplicatedCluster(t)
	for _, sp := range specs {
		if _, err := base.Place(context.Background(), sp); err != nil {
			t.Fatal(err)
		}
	}
	baseline := export(t, base)

	for victim := 0; victim < 3; victim++ {
		t.Run(fmt.Sprintf("victim-%d", victim), func(t *testing.T) {
			cb, reps := newReplicatedCluster(t)
			keys := make([]store.CellKey, len(specs))

			// Phase 1: half the grid lands while everyone is up.
			for i, sp := range specs[:2] {
				res, err := cb.Place(context.Background(), sp)
				if err != nil {
					t.Fatalf("place %d: %v", i, err)
				}
				keys[i] = res.Key
			}

			// Phase 2: kill the victim mid-run. Every remaining place and
			// every lookup must still succeed — that is what R=2 buys.
			reps[victim].down.Store(true)
			for i, sp := range specs[2:] {
				res, err := cb.Place(context.Background(), sp)
				if err != nil {
					t.Fatalf("place %d with replica %d down: %v", i+2, victim, err)
				}
				keys[i+2] = res.Key
			}
			for i, k := range keys {
				if _, ok := cb.Lookup(k); !ok {
					t.Fatalf("lookup %d failed with replica %d down", i, victim)
				}
			}

			// Phase 3: rejoin. Probe marks the victim up, which drains its
			// hinted writes before it sees traffic; Heal mops up anything the
			// hints did not carry.
			reps[victim].down.Store(false)
			if down := cb.Probe(context.Background()); down != 0 {
				t.Fatalf("%d replicas still down after rejoin", down)
			}
			if _, err := cb.Heal(context.Background()); err != nil {
				t.Fatal(err)
			}
			assertFullyReplicated(t, cb, reps, keys)
			if got := export(t, cb); !bytes.Equal(got, baseline) {
				t.Fatalf("export after kill+rejoin differs from never-killed run:\n--- got\n%s\n--- want\n%s", got, baseline)
			}

			// Phase 4: the victim loses its entire store (rebuilt daemon,
			// empty disk) and rejoins. No hints exist for cells it already
			// held — only the anti-entropy sweep can restore them.
			reps[victim].rebuild(t)
			if _, err := cb.Heal(context.Background()); err != nil {
				t.Fatal(err)
			}
			assertFullyReplicated(t, cb, reps, keys)
			if got := export(t, cb); !bytes.Equal(got, baseline) {
				t.Fatalf("export after store loss + heal differs from never-killed run:\n--- got\n%s\n--- want\n%s", got, baseline)
			}

			st := cb.Stats()
			if st.ReplicaFactor != 2 {
				t.Fatalf("stats replica factor = %d, want 2", st.ReplicaFactor)
			}
			if st.Healed == 0 {
				t.Fatal("stats.Healed = 0 after a store-loss heal")
			}
			if st.HintsPending != 0 {
				t.Fatalf("stats.HintsPending = %d after full recovery, want 0", st.HintsPending)
			}
		})
	}
}

// assertFullyReplicated checks that every key is present in the store of
// each of its ring owners — zero lost cells, R-way.
func assertFullyReplicated(t *testing.T, cb *cluster.Backend, reps []*faulty, keys []store.CellKey) {
	t.Helper()
	for i, k := range keys {
		for _, o := range cb.Owners(k.String()) {
			if _, ok := reps[o].store().Get(k); !ok {
				t.Fatalf("cell %d (%s) missing from owner replica %d", i, k, o)
			}
		}
	}
}

// synthetic builds a distinct keyed result without running any engine.
func synthetic(i int, util float64) store.Result {
	return store.Result{
		Key:     store.CellKey{Graph: store.Digest(i + 1), Matrix: 1, Scheme: "sp", Config: 1},
		Meta:    store.Meta{Net: fmt.Sprintf("synthetic-%d", i), Class: "test", Scheme: "sp", Locality: 1},
		Metrics: store.Metrics{MaxUtil: util},
	}
}

// TestHintedHandoffDrainOrdering pins the handoff queue's contract:
// writes bound for a down replica queue FIFO, re-puts of a queued key
// fold in place without losing their position, and the whole queue
// drains in order on MarkUp — before any new traffic, with zero engine
// invocations anywhere.
func TestHintedHandoffDrainOrdering(t *testing.T) {
	reps := []*faulty{newFaulty(t), newFaulty(t)}
	// A huge ReprobeInterval keeps the operator's MarkDown sticky: drain
	// timing belongs to the test, not the automatic re-probe.
	cb, err := cluster.New([]backend.Backend{reps[0], reps[1]}, cluster.Options{
		Replicas:        2,
		ReprobeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()

	reps[1].down.Store(true)
	cb.MarkDown(1)
	const n = 5
	for i := 0; i < n; i++ {
		if err := cb.Put(synthetic(i, 0.5)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Re-put key 2 with different contents: the queued hint must fold in
	// place (no duplicate entry, position preserved).
	updated := synthetic(2, 0.9)
	if err := cb.Put(updated); err != nil {
		t.Fatal(err)
	}

	st := cb.Stats()
	if st.HintsQueued != n {
		t.Fatalf("hints queued = %d, want %d (the re-put must dedupe)", st.HintsQueued, n)
	}
	if st.HintsPending != n {
		t.Fatalf("hints pending = %d, want %d", st.HintsPending, n)
	}
	reps[1].takePutLog()

	reps[1].down.Store(false)
	cb.MarkUp(1)
	drained := reps[1].takePutLog()
	if len(drained) != n {
		t.Fatalf("drained %d hints, want %d", len(drained), n)
	}
	for i, r := range drained {
		if want := store.Digest(i + 1); r.Key.Graph != want {
			t.Fatalf("drain position %d delivered key graph %s, want %s (FIFO order)", i, r.Key.Graph, want)
		}
	}
	// The folded entry carries the deterministic winner of old vs new —
	// the same canonical-bytes order every other convergence path uses.
	old := synthetic(2, 0.5)
	ob, _ := store.MarshalResult(old)
	ub, _ := store.MarshalResult(updated)
	want := old
	if bytes.Compare(ub, ob) > 0 {
		want = updated
	}
	if drained[2] != want {
		t.Fatalf("folded hint drained %+v, want the canonical-bytes winner %+v", drained[2], want)
	}
	st = cb.Stats()
	if st.HintsDrained != n || st.HintsPending != 0 || st.HintsDropped != 0 {
		t.Fatalf("after drain: %d drained / %d pending / %d dropped, want %d / 0 / 0",
			st.HintsDrained, st.HintsPending, st.HintsDropped, n)
	}
	// Engine never ran: everything moved as already-computed bytes.
	if computed := cb.Stats().Computed; computed != 0 {
		t.Fatalf("%d engine invocations during handoff, want 0", computed)
	}
}

// TestHandoffLimitDropsOldest pins the bound: beyond HandoffLimit the
// oldest hint is dropped and counted, and the survivors still drain in
// order.
func TestHandoffLimitDropsOldest(t *testing.T) {
	reps := []*faulty{newFaulty(t), newFaulty(t)}
	cb, err := cluster.New([]backend.Backend{reps[0], reps[1]}, cluster.Options{
		Replicas:        2,
		ReprobeInterval: time.Hour,
		HandoffLimit:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()

	reps[1].down.Store(true)
	cb.MarkDown(1)
	for i := 0; i < 3; i++ {
		if err := cb.Put(synthetic(i, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if st := cb.Stats(); st.HintsDropped != 1 || st.HintsPending != 2 {
		t.Fatalf("dropped %d / pending %d, want 1 / 2", st.HintsDropped, st.HintsPending)
	}
	reps[1].takePutLog()
	reps[1].down.Store(false)
	cb.MarkUp(1)
	drained := reps[1].takePutLog()
	if len(drained) != 2 || drained[0].Key.Graph != 2 || drained[1].Key.Graph != 3 {
		t.Fatalf("drained %+v, want keys graph 2 then 3 (oldest dropped)", drained)
	}
}

// TestReadRepairWriteBack pins the read path's healing half: a cell held
// by only one of its owners is written back to the others by the first
// Lookup — the repair moves stored bytes, never the engine — and a
// second Lookup finds nothing left to repair.
func TestReadRepairWriteBack(t *testing.T) {
	var invocations atomic.Int64
	sts := make([]*store.Store, 2)
	locals := make([]backend.Backend, 2)
	for i := range locals {
		st, err := store.OpenSharded(t.TempDir(), 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		sts[i] = st
		locals[i] = backend.NewLocal(st, backend.LocalOptions{
			Workers: 1,
			OnPlace: func(store.CellKey) { invocations.Add(1) },
		})
	}
	cb, err := cluster.New(locals, cluster.Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()

	// Seed one owner behind the cluster's back — the state a rejoined
	// replica is in after its hints were dropped.
	res := synthetic(7, 0.5)
	if err := sts[0].Put(res); err != nil {
		t.Fatal(err)
	}

	got, ok := cb.Lookup(res.Key)
	if !ok || got != res {
		t.Fatalf("lookup = %+v, %v; want the seeded cell", got, ok)
	}
	if _, ok := sts[1].Get(res.Key); !ok {
		t.Fatal("read-repair did not write the cell back to the second owner")
	}
	if n := cb.Stats().ReadRepairs; n != 1 {
		t.Fatalf("read repairs = %d, want 1", n)
	}
	if _, ok := cb.Lookup(res.Key); !ok {
		t.Fatal("second lookup failed")
	}
	if n := cb.Stats().ReadRepairs; n != 1 {
		t.Fatalf("read repairs after converged lookup = %d, want still 1", n)
	}
	if n := invocations.Load(); n != 0 {
		t.Fatalf("%d engine invocations during read-repair, want 0", n)
	}
}

// TestQueryMergeLWWDeterminism is the regression test for the fan-out
// merge: when two replicas hold divergent copies of one key, the merged
// answer must be the canonical-bytes winner regardless of replica index
// order — not "first replica wins", which would make the export depend
// on which replica answered first.
func TestQueryMergeLWWDeterminism(t *testing.T) {
	a, b := synthetic(3, 0.4), synthetic(3, 0.8)
	ab, _ := store.MarshalResult(a)
	bb, _ := store.MarshalResult(b)
	want := a
	if bytes.Compare(bb, ab) > 0 {
		want = b
	}

	build := func(first, second store.Result) *cluster.Backend {
		t.Helper()
		var backends []backend.Backend
		for _, r := range []store.Result{first, second} {
			st, err := store.OpenSharded(t.TempDir(), 1)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			if err := st.Put(r); err != nil {
				t.Fatal(err)
			}
			backends = append(backends, backend.NewLocal(st, backend.LocalOptions{Workers: 1}))
		}
		cb, err := cluster.New(backends, cluster.Options{Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cb.Close() })
		return cb
	}

	for name, cb := range map[string]*cluster.Backend{
		"a-first": build(a, b),
		"b-first": build(b, a),
	} {
		res, err := cb.QueryContext(context.Background(), sweep.Filter{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 {
			t.Fatalf("%s: merged %d results, want 1 (duplicate key folds)", name, len(res))
		}
		if res[0] != want {
			t.Fatalf("%s: merged copy %+v, want the canonical-bytes winner %+v", name, res[0], want)
		}
	}
}
