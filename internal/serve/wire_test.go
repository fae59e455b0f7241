package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"lowlat/internal/backend"
	"lowlat/internal/store"
)

// TestDaemonWireMatchesStoreWire pins the one-marshal-path satellite
// from the daemon side: each result element in a /v1/query response,
// compacted, is byte-identical to store.MarshalResult of the same cell —
// the daemon serves the store's canonical wire form, not a parallel
// encoding that could drift.
func TestDaemonWireMatchesStoreWire(t *testing.T) {
	st := goldenStore(t)
	_, c := newTestServer(t, backend.NewLocal(st, backend.LocalOptions{Workers: 1}), Options{})
	body := get(t, c, "/v1/query")

	var resp struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	want := st.Results()
	if len(resp.Results) != len(want) {
		t.Fatalf("%d results on the wire, %d in the store", len(resp.Results), len(want))
	}
	for i, raw := range resp.Results {
		var compact bytes.Buffer
		if err := json.Compact(&compact, raw); err != nil {
			t.Fatal(err)
		}
		canonical, err := store.MarshalResult(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(compact.Bytes(), canonical) {
			t.Fatalf("result %d drifted from the canonical wire form:\n--- daemon\n%s\n--- store\n%s",
				i, compact.Bytes(), canonical)
		}
	}
}
