package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"lowlat/internal/backend"
	"lowlat/internal/cluster"
	"lowlat/internal/serve"
)

// TestFrontReplicaStatsAreDaemonSnapshots: each replicas[i] entry of a
// cluster front's /v1/stats is the replica daemon's own snapshot, in the
// top level's type and keys — it decodes into backend.Stats with no
// unknown field, and carries the owning daemon's computed and
// place_requests counts.
func TestFrontReplicaStatsAreDaemonSnapshots(t *testing.T) {
	reps := []*replica{newReplica(t, nil), newReplica(t, nil)}
	cb, err := cluster.New([]backend.Backend{reps[0].remote(), reps[1].remote()}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(serve.NewBackendServer(cb, serve.Options{}).Handler())
	defer fts.Close()
	if _, err := serve.NewClient(fts.URL).Place(context.Background(),
		serve.PlaceRequest{Net: "star-6", Seed: 1, Scheme: "sp"}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(fts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var front backend.Stats
	if err := dec.Decode(&front); err != nil {
		t.Fatalf("front /v1/stats does not decode into backend.Stats: %v\n%s", err, body)
	}
	if len(front.Replicas) != len(reps) {
		t.Fatalf("front reports %d replica snapshots, want %d", len(front.Replicas), len(reps))
	}
	computed := int64(0)
	for i, rs := range front.Replicas {
		own := reps[i].srv.Stats()
		if rs.Backend != "remote" || rs.Computed != own.Computed || rs.PlaceRequests != own.PlaceRequests {
			t.Fatalf("replicas[%d] = backend %q computed %d place_requests %d; daemon reports computed %d place_requests %d",
				i, rs.Backend, rs.Computed, rs.PlaceRequests, own.Computed, own.PlaceRequests)
		}
		computed += rs.Computed
	}
	if computed != 1 || front.Computed != 1 {
		t.Fatalf("replicas computed %d in all, front reports %d; want the owner's 1", computed, front.Computed)
	}
}
