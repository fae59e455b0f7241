package cluster_test

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"lowlat/internal/backend"
	"lowlat/internal/cluster"
	"lowlat/internal/obs"
	"lowlat/internal/serve"
)

// logBuffer is a goroutine-safe sink for slog request logs: the serving
// goroutines write while the test polls.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestIDPropagatesToOwningReplica is the tracing acceptance test:
// one /v1/place sent to a cluster front with a caller-chosen
// X-Request-ID must appear under that same ID in the front's request log
// AND in the owning replica's — the header rides the context through the
// cluster's routing and the typed client onto the downstream wire.
func TestRequestIDPropagatesToOwningReplica(t *testing.T) {
	const reqID = "trace-e2e-0042"

	var replicaLogs [2]logBuffer
	var remotes []backend.Backend
	for i := 0; i < 2; i++ {
		r := newReplica(t, []string{"star-6"})
		// Re-serve the same store with a logger attached; newReplica's
		// server stays unused.
		srv := serve.NewBackendServer(backend.NewLocal(r.st, backend.LocalOptions{Workers: 1}), serve.Options{
			Logger: slog.New(slog.NewJSONHandler(&replicaLogs[i], nil)),
		})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		remotes = append(remotes, serve.NewRemote(serve.NewClient(ts.URL), serve.RemoteOptions{}))
	}
	cb, err := cluster.New(remotes, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}

	var frontLog logBuffer
	front := serve.NewBackendServer(cb, serve.Options{
		Logger: slog.New(slog.NewJSONHandler(&frontLog, nil)),
	})
	fts := httptest.NewServer(front.Handler())
	defer fts.Close()

	req, err := http.NewRequest(http.MethodPost, fts.URL+"/v1/place",
		strings.NewReader(`{"net":"star-6","seed":1,"scheme":"sp"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("place through the front = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != reqID {
		t.Fatalf("front echoed X-Request-ID %q, want %q", got, reqID)
	}

	// The request-log line is written after the handler returns, which can
	// trail the client seeing the response by a beat; poll briefly.
	waitFor(t, func() bool { return strings.Contains(frontLog.String(), reqID) },
		"front request log never mentioned "+reqID)
	// Exactly one replica served the routed request; its log must carry
	// the front's ID, not a freshly minted one. The replica's log line
	// lands before the front's (inner response first), so no extra wait.
	carried := 0
	for i := range replicaLogs {
		if strings.Contains(replicaLogs[i].String(), reqID) {
			carried++
		}
	}
	if carried != 1 {
		t.Fatalf("request ID %s appeared in %d replica logs, want exactly 1:\n--- replica 0\n%s\n--- replica 1\n%s",
			reqID, carried, replicaLogs[0].String(), replicaLogs[1].String())
	}
}

// TestClusterStatsMergeStages is the histogram-merge acceptance test: a
// three-replica R=2 front that just routed one computed placement must
// report cluster-merged stage histograms in its own /v1/stats — the
// owning replica's solve (seen through the wire) and the front's
// remote_hop, each with a non-zero count and quantiles.
func TestClusterStatsMergeStages(t *testing.T) {
	var remotes []backend.Backend
	for i := 0; i < 3; i++ {
		r := newReplica(t, nil)
		remotes = append(remotes, r.remote())
	}
	cb, err := cluster.New(remotes, cluster.Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	front := serve.NewBackendServer(cb, serve.Options{})
	fts := httptest.NewServer(front.Handler())
	defer fts.Close()

	resp, err := http.Post(fts.URL+"/v1/place", "application/json",
		strings.NewReader(`{"net":"star-6","seed":1,"scheme":"sp"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("place through the front = %d, want 200", resp.StatusCode)
	}

	sresp, err := http.Get(fts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats backend.Stats
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"solve", "remote_hop"} {
		s, ok := stats.Stages[stage]
		if !ok {
			t.Fatalf("front stats missing merged %q stage; have %v", stage, stageNames(stats.Stages))
		}
		if s.Count < 1 || s.P50NS <= 0 || s.P99NS < s.P50NS {
			t.Fatalf("merged %q stage = %+v, want count >= 1 and ordered quantiles", stage, s)
		}
	}
	// Per-replica snapshots stay unmerged under replicas: exactly the
	// owning replica's carries the solve.
	solved := 0
	for _, rs := range stats.Replicas {
		if s, ok := rs.Stages["solve"]; ok && s.Count > 0 {
			solved++
		}
	}
	if solved != 1 {
		t.Fatalf("%d replica snapshots carry a solve, want exactly 1 (the owner)", solved)
	}
}

// stageNames lists a stage map's keys for failure messages.
func stageNames(stages map[string]obs.Snapshot) []string {
	names := make([]string, 0, len(stages))
	for name := range stages {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// waitFor polls cond until it holds or a short deadline passes.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatal(msg)
		case <-time.After(2 * time.Millisecond):
		}
	}
}
