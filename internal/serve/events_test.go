package serve_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"lowlat/internal/backend"
	"lowlat/internal/cluster"
	"lowlat/internal/obs"
	"lowlat/internal/serve"
	"lowlat/internal/store"
)

// TestEventsThroughPredictiveFront drives /v1/events on the stack
// `lowlatd -cluster -predict` builds: a cluster sharing the server's
// journal, wrapped in Predictive. The answer must be the cluster's fold
// — the shared journal's entries once each (the front must recognise the
// journal as its own through the wrapper, not append it a second time)
// and every replica's entries under that replica's origin.
func TestEventsThroughPredictiveFront(t *testing.T) {
	var replicas []backend.Backend
	for i := 0; i < 2; i++ {
		st, err := store.OpenSharded(t.TempDir(), 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		rj := obs.NewJournal(16)
		rj.Record(obs.EventHealthState, "", "replica-side transition")
		ts := httptest.NewServer(serve.NewBackendServer(backend.NewLocal(st, backend.LocalOptions{Workers: 1}), serve.Options{Journal: rj}).Handler())
		t.Cleanup(ts.Close)
		rc := serve.NewClient(ts.URL)
		rc.HTTPClient = ts.Client()
		replicas = append(replicas, serve.NewRemote(rc, serve.RemoteOptions{}))
	}

	journal := obs.NewJournal(64)
	cb, err := cluster.New(replicas, cluster.Options{Labels: []string{"r0", "r1"}, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cb.Close() })
	pb := backend.NewPredictive(cb, backend.PredictiveOptions{})
	t.Cleanup(func() { pb.Close() })
	journal.Record(obs.EventReplicaDown, "r1", "front-side transition")
	journal.Record(obs.EventReplicaUp, "r1", "front-side transition")

	front := httptest.NewServer(serve.NewBackendServer(pb, serve.Options{Journal: journal}).Handler())
	t.Cleanup(front.Close)
	c := serve.NewClient(front.URL)
	c.HTTPClient = front.Client()

	ev, err := c.Events(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	type id struct {
		origin string
		seq    int64
	}
	seen := map[id]int{}
	for _, e := range ev.Events {
		seen[id{e.Origin, e.Seq}]++
	}
	want := []id{{"", 1}, {"", 2}, {"r0", 1}, {"r1", 1}}
	for _, w := range want {
		if seen[w] != 1 {
			t.Errorf("event origin=%q seq=%d reported %d times, want exactly once", w.origin, w.seq, seen[w])
		}
	}
	if len(ev.Events) != len(want) {
		t.Errorf("%d events, want %d: %+v", len(ev.Events), len(want), ev.Events)
	}
}
