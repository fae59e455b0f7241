package cluster_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"lowlat/internal/backend"
	"lowlat/internal/cluster"
	"lowlat/internal/obs"
	"lowlat/internal/serve"
	"lowlat/internal/store"
)

// TestStatsWindowsCoverEveryStage pins that stage telemetry travels as one
// value through every layer's Stats: after one Place and one Lookup, each
// stage under Stats().Stages has its rolling windows under
// Stats().Windows, and the longest window (which spans the whole test)
// counts exactly what the cumulative histogram counts. A layer that folds
// its registry's cumulative view but drops the windows fails here — and
// so does an SLO over a backend stage, which evaluates those windows.
func TestStatsWindowsCoverEveryStage(t *testing.T) {
	local := func(t *testing.T) *backend.Local {
		return backend.NewLocal(newReplica(t, nil).st, backend.LocalOptions{Workers: 1})
	}
	cases := []struct {
		name string
		// build returns the backend to drive and the telemetry to check.
		build func(t *testing.T) (backend.Backend, func() obs.Telemetry)
	}{
		{"local", func(t *testing.T) (backend.Backend, func() obs.Telemetry) {
			b := local(t)
			return b, func() obs.Telemetry { return b.Stats().Telemetry }
		}},
		{"store", func(t *testing.T) (backend.Backend, func() obs.Telemetry) {
			b := backend.NewStore(newReplica(t, []string{"star-6"}).st)
			return b, func() obs.Telemetry { return b.Stats().Telemetry }
		}},
		{"cached", func(t *testing.T) (backend.Backend, func() obs.Telemetry) {
			b := backend.NewCached(local(t), backend.CachedOptions{})
			return b, func() obs.Telemetry { return b.Stats().Telemetry }
		}},
		{"predictive", func(t *testing.T) (backend.Backend, func() obs.Telemetry) {
			b := backend.NewPredictive(local(t), backend.PredictiveOptions{})
			t.Cleanup(func() { b.Close() })
			return b, func() obs.Telemetry { return b.Stats().Telemetry }
		}},
		{"remote", func(t *testing.T) (backend.Backend, func() obs.Telemetry) {
			b := newReplica(t, nil).remote()
			return b, func() obs.Telemetry { return b.Stats().Telemetry }
		}},
		{"cluster", func(t *testing.T) (backend.Backend, func() obs.Telemetry) {
			b, err := cluster.New([]backend.Backend{newReplica(t, nil).remote(), newReplica(t, nil).remote()}, cluster.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			return b, func() obs.Telemetry { return b.Stats().Telemetry }
		}},
		{"server", func(t *testing.T) (backend.Backend, func() obs.Telemetry) {
			srv := serve.NewBackendServer(local(t), serve.Options{})
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			b := serve.NewRemote(serve.NewClient(ts.URL), serve.RemoteOptions{Timeout: 10 * time.Second})
			return b, func() obs.Telemetry { return srv.Stats().Telemetry }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, telemetry := tc.build(t)
			r, err := b.Place(context.Background(), store.CellSpec{Net: "star-6", Seed: 1, Scheme: "sp", Locality: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := b.Lookup(r.Key); !ok {
				t.Fatalf("Lookup(%s) missed the cell Place just resolved", r.Key)
			}
			// A daemon records an endpoint's stage just after its response
			// is written, so allow the last record a moment to land.
			var bad error
			for try := 0; try < 50; try++ {
				if bad = windowsMatchStages(telemetry()); bad == nil {
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
			t.Fatal(bad)
		})
	}
}

// windowsMatchStages checks that every cumulative stage has windows and
// that the longest window's count equals the stage's count.
func windowsMatchStages(tel obs.Telemetry) error {
	if len(tel.Stages) == 0 {
		return fmt.Errorf("no stages recorded")
	}
	for name, s := range tel.Stages {
		wins := tel.Windows[name]
		if len(wins) == 0 {
			return fmt.Errorf("stage %q (count %d) has no windows; windowed stages: %v", name, s.Count, windowNames(tel))
		}
		if longest := wins[len(wins)-1]; longest.Count != s.Count {
			return fmt.Errorf("stage %q: %s window counts %d, cumulative %d", name, longest.Window, longest.Count, s.Count)
		}
	}
	return nil
}

// windowNames lists the stages that carry windows, for failure messages.
func windowNames(tel obs.Telemetry) []string {
	names := make([]string, 0, len(tel.Windows))
	for name := range tel.Windows {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
