package cluster_test

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"lowlat/internal/backend"
	"lowlat/internal/cluster"
	"lowlat/internal/store"
)

// newPair builds two fault-injectable replicas under one R=2 ring, so
// both own every key. The hour-long re-probe keeps down marks sticky:
// recovery timing belongs to the test.
func newPair(t *testing.T) (*cluster.Backend, []*faulty) {
	t.Helper()
	reps := []*faulty{newFaulty(t), newFaulty(t)}
	cb, err := cluster.New([]backend.Backend{reps[0], reps[1]},
		cluster.Options{Replicas: 2, ReprobeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cb.Close() })
	return cb, reps
}

// TestWriteRuleOnEveryPath pins the one replica write rule on each of the
// five paths that copy a cell to another replica: a write the target
// accepts counts on the path's own counter; one that fails with
// ErrUnavailable marks the target down and leaves the cell as a hint (the
// drain re-queues its own); any other refusal counts an error and
// leaves no hint (the drain drops it).
func TestWriteRuleOnEveryPath(t *testing.T) {
	type outcome struct {
		name string
		err  error
	}
	outcomes := []outcome{
		{"accepts", nil},
		{"unavailable", fmt.Errorf("dial: %w", backend.ErrUnavailable)},
		{"refuses", fmt.Errorf("put: %w", store.ErrReadOnly)},
	}
	type path struct {
		name string
		// write runs the path against target; reps[target] fails its
		// Puts with fault, the other replica accepts.
		write   func(t *testing.T, cb *cluster.Backend, reps []*faulty, fault error) (target int)
		counter func(backend.Stats) int64
		// other is the counter's count from writes to the other replica.
		other int64
	}
	cell := synthetic(11, 0.5)
	paths := []path{
		{
			name: "put",
			write: func(t *testing.T, cb *cluster.Backend, reps []*faulty, fault error) int {
				reps[1].failPuts(fault)
				if err := cb.Put(cell); err != nil {
					t.Fatal(err)
				}
				return 1
			},
			counter: func(s backend.Stats) int64 { return s.Replicated },
			other:   1,
		},
		{
			name: "place",
			write: func(t *testing.T, cb *cluster.Backend, reps []*faulty, fault error) int {
				spec := store.CellSpec{Net: "star-6", Seed: 1, Scheme: "sp", Locality: 1}
				target := 1 - cb.Owners(spec.Normalized().String())[0]
				reps[target].failPuts(fault)
				if _, err := cb.Place(context.Background(), spec); err != nil {
					t.Fatal(err)
				}
				return target
			},
			counter: func(s backend.Stats) int64 { return s.Replicated },
		},
		{
			name: "read-repair",
			write: func(t *testing.T, cb *cluster.Backend, reps []*faulty, fault error) int {
				if err := reps[0].store().Put(cell); err != nil {
					t.Fatal(err)
				}
				reps[1].failPuts(fault)
				if _, ok := cb.Lookup(cell.Key); !ok {
					t.Fatal("lookup missed the seeded cell")
				}
				return 1
			},
			counter: func(s backend.Stats) int64 { return s.ReadRepairs },
		},
		{
			name: "heal",
			write: func(t *testing.T, cb *cluster.Backend, reps []*faulty, fault error) int {
				if err := reps[0].store().Put(cell); err != nil {
					t.Fatal(err)
				}
				reps[1].failPuts(fault)
				if _, err := cb.Heal(context.Background()); err != nil {
					t.Fatal(err)
				}
				return 1
			},
			counter: func(s backend.Stats) int64 { return s.Healed },
		},
		{
			name: "hint-drain",
			write: func(t *testing.T, cb *cluster.Backend, reps []*faulty, fault error) int {
				reps[1].down.Store(true)
				cb.MarkDown(1)
				if err := cb.Put(cell); err != nil {
					t.Fatal(err)
				}
				reps[1].down.Store(false)
				reps[1].failPuts(fault)
				cb.MarkUp(1)
				return 1
			},
			counter: func(s backend.Stats) int64 { return s.HintsDrained },
		},
	}
	for _, p := range paths {
		for _, o := range outcomes {
			t.Run(p.name+"/"+o.name, func(t *testing.T) {
				cb, reps := newPair(t)
				target := p.write(t, cb, reps, o.err)
				st := cb.Stats()

				wantDown := o.name == "unavailable"
				var wantHints, wantErrors, wantCounter, wantDropped int64
				switch o.name {
				case "accepts":
					wantCounter = 1
				case "unavailable":
					wantHints = 1
				case "refuses":
					wantErrors = 1
					if p.name == "hint-drain" {
						wantDropped = 1
					}
				}
				if got := cb.Down(target); got != wantDown {
					t.Errorf("target down = %v, want %v", got, wantDown)
				}
				if got := int64(st.HintsPending); got != wantHints {
					t.Errorf("hints pending = %d, want %d", got, wantHints)
				}
				if p.name == "hint-drain" {
					// The drain re-queues at the front; it never queues anew.
					if st.HintsQueued != 1 {
						t.Errorf("hints queued = %d, want the one the down mark queued", st.HintsQueued)
					}
				} else if st.HintsQueued != wantHints {
					t.Errorf("hints queued = %d, want %d", st.HintsQueued, wantHints)
				}
				if st.Errors != wantErrors {
					t.Errorf("errors = %d, want %d", st.Errors, wantErrors)
				}
				if got := p.counter(st) - p.other; got != wantCounter {
					t.Errorf("path counter = %d, want %d", got, wantCounter)
				}
				if st.HintsDropped != wantDropped {
					t.Errorf("hints dropped = %d, want %d", st.HintsDropped, wantDropped)
				}
			})
		}
	}
}

// TestHealCopiesInKeyOrder pins that a heal sweep copies the cells an
// owner is missing in canonical key order — the order every inventory
// lists — so the replica's shard file is the same bytes on every run.
func TestHealCopiesInKeyOrder(t *testing.T) {
	cb, reps := newPair(t)
	const n = 8
	want := make([]string, n)
	for i := 0; i < n; i++ {
		r := synthetic(i, 0.5)
		if err := reps[0].store().Put(r); err != nil {
			t.Fatal(err)
		}
		want[i] = r.Key.String()
	}
	sort.Strings(want)
	rep, err := cb.Heal(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healed != n {
		t.Fatalf("healed %d cells, want %d", rep.Healed, n)
	}
	got := reps[1].takePutLog()
	if len(got) != n {
		t.Fatalf("replica received %d puts, want %d", len(got), n)
	}
	for i, r := range got {
		if r.Key.String() != want[i] {
			t.Fatalf("put %d carried %s, want %s (canonical key order)", i, r.Key, want[i])
		}
	}
}
