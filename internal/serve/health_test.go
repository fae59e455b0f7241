package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lowlat/internal/backend"
	"lowlat/internal/obs"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// failingBackend answers every Place with ErrUnavailable — a stand-in
// for a daemon whose downstream is gone, driving 5xx through the
// middleware's error counters.
type failingBackend struct{}

func (failingBackend) Lookup(store.CellKey) (store.Result, bool) { return store.Result{}, false }
func (failingBackend) Place(context.Context, store.CellSpec) (store.Result, error) {
	return store.Result{}, backend.ErrUnavailable
}
func (failingBackend) Query(sweep.Filter) []store.Result { return nil }
func (failingBackend) Stats() backend.Stats              { return backend.Stats{Backend: "failing"} }

// mustObjectives parses an objective list or fails the test.
func mustObjectives(t *testing.T, s string) []obs.Objective {
	t.Helper()
	objs, err := obs.ParseObjectives(s)
	if err != nil {
		t.Fatal(err)
	}
	return objs
}

// TestHealthEndpoint walks /v1/health from ok to critical: a server with
// a p99 objective reports ok while quiet, pages once its endpoint window
// fills with observations far past target (503, named reason, burn
// rates), and journals both the SLO transition and the health
// transition — all visible through /v1/events and the client.
func TestHealthEndpoint(t *testing.T) {
	s := NewBackendServer(failingBackend{}, Options{
		Objectives:     mustObjectives(t, "http_place p99 < 10ms over 1m"),
		SLOMinInterval: -1,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	c.HTTPClient = ts.Client()
	ctx := context.Background()

	rep, err := c.HealthReport(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != HealthOK {
		t.Fatalf("quiet server health = %q, want %q", rep.Status, HealthOK)
	}
	if len(rep.SLOs) != 1 || rep.SLOs[0].State != obs.SLOOK {
		t.Fatalf("quiet server SLOs = %+v, want one ok objective", rep.SLOs)
	}

	// Fill the endpoint window with observations 5x past target: bad
	// fraction 1.0 against a 1% budget burns at 100x on both windows.
	for i := 0; i < 100; i++ {
		s.obs.Hist("http_place").Record(50 * time.Millisecond)
	}
	rep, err = c.HealthReport(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != HealthCritical {
		t.Fatalf("burning server health = %q, want %q", rep.Status, HealthCritical)
	}
	if len(rep.Reasons) == 0 || !strings.Contains(rep.Reasons[0], "http_place") {
		t.Fatalf("critical report names no reason: %+v", rep.Reasons)
	}
	if st := rep.SLOs[0]; st.State != obs.SLOPage || st.BurnLong < 2 {
		t.Fatalf("objective status = %+v, want paging with burn >= 2", st)
	}
	// The raw endpoint must answer 503 for probes that only read codes.
	resp, err := ts.Client().Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("critical /v1/health code = %d, want 503", resp.StatusCode)
	}

	// Both transitions journaled, served by /v1/events, trimmed by cursor.
	ev, err := c.Events(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, e := range ev.Events {
		kinds = append(kinds, e.Type)
	}
	if len(kinds) != 2 || kinds[0] != obs.EventSLOState || kinds[1] != obs.EventHealthState {
		t.Fatalf("journal kinds = %v, want [%s %s]", kinds, obs.EventSLOState, obs.EventHealthState)
	}
	if !strings.Contains(ev.Events[0].Detail, "ok -> page") {
		t.Fatalf("SLO transition detail = %q, want ok -> page", ev.Events[0].Detail)
	}
	tail, err := c.Events(ctx, ev.NextSince, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail.Events) != 0 {
		t.Fatalf("events after cursor %d = %+v, want none", ev.NextSince, tail.Events)
	}

	// /metrics renders the paging objective and the health gauge.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`lowlat_slo_state{objective="http_place p99 < 10ms over 1m"} 2`,
		"lowlat_health 2",
		"# HELP lowlat_slo_burn_long",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMiddlewareErrorStages checks the 5xx accounting behind error-rate
// objectives: a failed place bumps http_place_errors and the aggregate
// http/http_errors stages, and the windows surface through Stats.
func TestMiddlewareErrorStages(t *testing.T) {
	s := NewBackendServer(failingBackend{}, Options{
		Objectives:     mustObjectives(t, "error_rate < 10% over 1m"),
		SLOMinInterval: -1,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	c.HTTPClient = ts.Client()
	ctx := context.Background()

	if _, err := c.Place(ctx, PlaceRequest{Net: "star-6", Seed: 1, Scheme: "sp"}); err == nil {
		t.Fatal("place over a failing backend succeeded")
	}
	for stage, want := range map[string]int64{
		"http_place": 1, "http_place_errors": 1, "http": 1, "http_errors": 1,
	} {
		ws, ok := s.obs.Window(stage, "1m")
		if !ok || ws.Count != want {
			t.Errorf("window %s count = %+v ok=%v, want %d", stage, ws.Count, ok, want)
		}
	}
	// A 4xx must not burn budget: bad cell key answers 400.
	if _, err := c.Cell(ctx, "nonsense"); err == nil {
		t.Fatal("bad cell key succeeded")
	}
	if ws, _ := s.obs.Window("http_errors", "1m"); ws.Count != 1 {
		t.Errorf("http_errors after 4xx = %d, want still 1", ws.Count)
	}

	// Every bad request against a 10% budget: error-rate objective pages.
	rep := s.Health()
	if rep.Status != HealthCritical || rep.SLOs[0].CurrentRate == 0 {
		t.Fatalf("health after errors = %+v, want critical with a measured rate", rep)
	}

	st := s.Stats()
	if len(st.Windows["http_place"]) == 0 {
		t.Fatalf("Stats().Windows missing http_place: %v", keysOf(st.Windows))
	}
}

// TestWatchStream subscribes a client to /v1/watch and checks the
// snapshots carry health, windows and journal entries recorded while
// the stream is live.
func TestWatchStream(t *testing.T) {
	s := NewBackendServer(failingBackend{}, Options{SLOMinInterval: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	c.HTTPClient = ts.Client()

	s.obs.Hist("http_query").Record(time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var events []obs.Event
	n := 0
	err := c.Watch(ctx, 20*time.Millisecond, func(ev WatchEvent) error {
		n++
		if ev.Health.Status != HealthOK {
			t.Errorf("snapshot %d health = %q, want ok", n, ev.Health.Status)
		}
		if len(ev.Windows["http_query"]) == 0 {
			t.Errorf("snapshot %d carries no http_query windows", n)
		}
		events = append(events, ev.Events...)
		if n == 1 {
			// Recorded mid-stream: must ride a later snapshot exactly once.
			s.journal.Record(obs.EventReplicaDown, "r0", "test transition")
		}
		if n >= 3 {
			cancel()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n < 3 {
		t.Fatalf("saw %d snapshots, want >= 3", n)
	}
	if len(events) != 1 || events[0].Type != obs.EventReplicaDown {
		t.Fatalf("streamed events = %+v, want exactly the one recorded transition", events)
	}
}

// TestWatchBadParams rejects malformed intervals and cursors up front.
func TestWatchBadParams(t *testing.T) {
	s := NewBackendServer(failingBackend{}, Options{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for _, q := range []string{"?interval=banana", "?interval=-1s", "?since=-3", "?since=x"} {
		resp, err := ts.Client().Get(ts.URL + "/v1/watch" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("watch%s code = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestHealthDegradedOnDownReplica maps a down replica (without any SLO
// breach) to degraded — 200, named replica — whether the server fronts
// the reporting backend directly or through a wrapper: a predictive
// front over a cluster is the stack `lowlatd -cluster -predict` runs.
func TestHealthDegradedOnDownReplica(t *testing.T) {
	down := downBackend{failingBackend{}}
	pb := backend.NewPredictive(down, backend.PredictiveOptions{})
	t.Cleanup(func() { pb.Close() })
	for name, b := range map[string]backend.Backend{
		"direct":     down,
		"predictive": pb,
		"cached":     backend.NewCached(down, backend.CachedOptions{}),
	} {
		t.Run(name, func(t *testing.T) {
			s := NewBackendServer(b, Options{})
			rep := s.Health()
			if rep.Status != HealthDegraded {
				t.Fatalf("health with a down replica = %q, want %q", rep.Status, HealthDegraded)
			}
			if len(rep.Reasons) != 1 || !strings.Contains(rep.Reasons[0], "replica-2") {
				t.Fatalf("reasons = %v, want the down replica named", rep.Reasons)
			}
			// The transition journaled once, not per evaluation.
			s.Health()
			evs := s.journal.Since(0, 0)
			if len(evs) != 1 || evs[0].Type != obs.EventHealthState {
				t.Fatalf("journal = %+v, want one health transition", evs)
			}
		})
	}
}

// downBackend reports one down replica.
type downBackend struct{ failingBackend }

func (downBackend) DownReplicas() []string { return []string{"replica-2"} }

// keysOf lists a windows map's stage names for failure messages.
func keysOf(m map[string][]obs.WindowSnapshot) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
