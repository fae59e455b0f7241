package serve

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"

	"lowlat/internal/backend"
	"lowlat/internal/store"
)

// TestReplicateAndDigest exercises the replication endpoints end to end:
// a cell computed on daemon A pushes to daemon B via /v1/replicate, B's
// /v1/digest converges to A's, and B serves the cell by key without ever
// having computed it.
func TestReplicateAndDigest(t *testing.T) {
	sa, ca := newTestServer(t, backend.NewLocal(openStore(t), backend.LocalOptions{Workers: 1}), Options{})
	sb, cb := newTestServer(t, backend.NewLocal(openStore(t), backend.LocalOptions{Workers: 1}), Options{})

	resp, err := ca.Place(context.Background(), PlaceRequest{Net: "star-6", Seed: 1, Scheme: "sp"})
	if err != nil {
		t.Fatal(err)
	}
	res := resp.Result

	dB, err := cb.Digest(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if dB.Count != 0 {
		t.Fatalf("fresh daemon digest count = %d, want 0", dB.Count)
	}

	if err := cb.Replicate(context.Background(), res); err != nil {
		t.Fatalf("replicate: %v", err)
	}

	// Digests converge: B now answers the same key-set digest as A.
	dA, err := ca.Digest(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	dB, err = cb.Digest(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if dB.Count != 1 || dB.Digest != dA.Digest {
		t.Fatalf("after replicate: B digest %+v, A digest %+v — want equal with count 1", dB, dA)
	}
	if len(dB.Keys) != 1 || dB.Keys[0] != res.Key.String() {
		t.Fatalf("B keys = %v, want [%s]", dB.Keys, res.Key)
	}

	// B serves the replicated cell by content key, no computation.
	got, err := cb.Cell(context.Background(), res.Key.String())
	if err != nil {
		t.Fatalf("cell on replica target: %v", err)
	}
	if got != res {
		t.Fatalf("replicated cell differs:\n got %+v\nwant %+v", got, res)
	}
	if st := sb.Stats(); st.Replications != 1 || st.Computed != 0 {
		t.Fatalf("B stats replications=%d computed=%d, want 1 and 0", st.Replications, st.Computed)
	}
	if st := sa.Stats(); st.Replications != 0 {
		t.Fatalf("A stats replications=%d, want 0", st.Replications)
	}
}

// TestReplicateRejectsBadRecords pins the endpoint's refusal modes: a
// body that is not a canonical result answers 400, a keyless record
// answers 400, and a read-only backend answers 403.
func TestReplicateRejectsBadRecords(t *testing.T) {
	_, c := newTestServer(t, backend.NewLocal(openStore(t), backend.LocalOptions{Workers: 1}), Options{})

	post := func(body string) *StatusError {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, c.BaseURL+"/v1/replicate", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		var se *StatusError
		if err := c.do(req, nil); err != nil {
			var ok bool
			if se, ok = err.(*StatusError); !ok {
				t.Fatalf("want StatusError, got %T: %v", err, err)
			}
		}
		return se
	}

	if se := post("not json"); se == nil || se.Code != http.StatusBadRequest {
		t.Fatalf("garbage body: %v, want 400", se)
	}
	if se := post(`{"metrics":{}}`); se == nil || se.Code != http.StatusBadRequest {
		t.Fatalf("keyless record: %v, want 400", se)
	}

	// A read-only mount refuses replicated writes with 403, same as
	// computed ones.
	st := openStore(t)
	dir := st.Dir()
	st.Close()
	ro, err := store.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ro.Close() })
	_, rc := newTestServer(t, backend.NewLocal(ro, backend.LocalOptions{}), Options{})
	res := store.Result{Key: store.CellKey{Graph: 1, Matrix: 2, Scheme: "sp", Config: 3}}
	err = rc.Replicate(context.Background(), res)
	se, ok := err.(*StatusError)
	if !ok || se.Code != http.StatusForbidden {
		t.Fatalf("replicate to read-only daemon: %v, want 403", err)
	}
	if !strings.Contains(se.Message, "read-only") && !strings.Contains(se.Message, "writes") {
		t.Fatalf("unexpected refusal message: %q", se.Message)
	}
}
