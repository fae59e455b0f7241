package serve

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"lowlat/internal/backend"
	"lowlat/internal/store"
)

// TestStoreDaemonStatsKeySet pins the exact top-level key set of a fresh
// store daemon's /v1/stats. The golden projection ignores keys a response
// has grown, so only this test notices a counter that appears on a
// healthy daemon's body: backend-side counters that are zero there
// (errors, retried, rerouted, down, the predictive and replication
// tiers) must stay out of it.
func TestStoreDaemonStatsKeySet(t *testing.T) {
	st, err := store.OpenSharded(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	_, c := newTestServer(t, backend.NewLocal(st, backend.LocalOptions{Workers: 1}), Options{})
	get(t, c, "/v1/query") // so the telemetry keys are present
	var body map[string]json.RawMessage
	if err := json.Unmarshal(get(t, c, "/v1/stats"), &body); err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(body))
	for k := range body {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{
		"backend", "cache_hits", "cache_misses", "cached_entries", "cell_lookups",
		"coalesced", "computed", "in_flight", "memo_entries", "memo_hits",
		"place_requests", "queries", "read_only", "rejected", "replications",
		"stages", "store_cells", "store_hits", "windows",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fresh store daemon's /v1/stats keys\n got %v\nwant %v", got, want)
	}
}
