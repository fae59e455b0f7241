package serve

// This file is the readiness half of the health plane: /v1/health rolls
// the SLO engine's objective states and the cluster's down-replica set
// into one ok/degraded/critical answer, and /v1/events serves the
// state-transition journal — the front's own entries folded with its
// replicas' when the backend can report them. Liveness stays on
// /healthz, which never consults the backend; readiness is allowed to.

import (
	"net/http"
	"sort"
	"strconv"

	"lowlat/internal/obs"
)

// Health statuses, in escalation order. Degraded serves 200 (the daemon
// still answers, a load balancer should not eject it); critical serves
// 503.
const (
	// HealthOK means every objective is within budget and every replica
	// is up.
	HealthOK = "ok"
	// HealthDegraded means an objective is burning budget at warning
	// rate or a replica is down but the daemon is still serving.
	HealthDegraded = "degraded"
	// HealthCritical means at least one objective is paging: both its
	// windows burn past the page threshold.
	HealthCritical = "critical"
)

// HealthReport is the /v1/health payload: the rolled-up status, the
// named reasons behind it, and the full per-objective SLO evaluation.
type HealthReport struct {
	// Status is ok, degraded or critical.
	Status string `json:"status"`
	// Reasons names each contributing problem in one line; empty when ok.
	Reasons []string `json:"reasons,omitempty"`
	// DownReplicas names the replicas currently marked down behind this
	// front (cluster backends only).
	DownReplicas []string `json:"down_replicas,omitempty"`
	// SLOs is the per-objective evaluation: state, burn rates, budget.
	SLOs []obs.SLOStatus `json:"slos,omitempty"`
}

// sloLookup builds the window lookup SLO evaluation reads: the server's
// own endpoint windows first (free), the backend's merged windows on a
// miss — fetched lazily at most once per evaluation, since a cluster
// front's Stats call fans out to its replicas.
func (s *Server) sloLookup() obs.WindowLookup {
	var bw map[string][]obs.WindowSnapshot
	fetched := false
	return func(stage, window string) (obs.WindowSnapshot, bool) {
		if ws, ok := s.obs.Window(stage, window); ok {
			return ws, true
		}
		if !fetched {
			fetched = true
			bw = s.b.Stats().Windows
		}
		return obs.LookupWindows(bw)(stage, window)
	}
}

// Health evaluates the server's readiness: SLO objectives against the
// rolling windows, plus the backend's down-replica set. Any paging
// objective makes the report critical; a warning objective or a down
// replica makes it degraded. Status transitions are journaled once each
// as EventHealthState.
func (s *Server) Health() HealthReport {
	rep := HealthReport{Status: HealthOK, DownReplicas: s.tier.DownReplicas()}
	for _, l := range rep.DownReplicas {
		rep.Reasons = append(rep.Reasons, "replica "+l+" down")
	}
	rep.SLOs = s.slo.Eval(s.sloLookup())
	for _, st := range rep.SLOs {
		if st.Reason != "" {
			rep.Reasons = append(rep.Reasons, st.Reason)
		}
	}
	switch {
	case obs.WorstState(rep.SLOs) == obs.SLOPage:
		rep.Status = HealthCritical
	case obs.WorstState(rep.SLOs) == obs.SLOWarn || len(rep.DownReplicas) > 0:
		rep.Status = HealthDegraded
	}
	s.noteHealth(rep)
	return rep
}

// noteHealth journals a health-status transition exactly once.
func (s *Server) noteHealth(rep HealthReport) {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	if rep.Status == s.healthState {
		return
	}
	detail := s.healthState + " -> " + rep.Status
	if len(rep.Reasons) > 0 {
		detail += ": " + rep.Reasons[0]
	}
	s.healthState = rep.Status
	s.journal.Record(obs.EventHealthState, "", detail)
}

// handleHealthReport serves /v1/health. Critical answers 503 so load
// balancers and probes eject the front; degraded stays 200 — a daemon
// with one down replica is still the right place to send traffic.
func (s *Server) handleHealthReport(w http.ResponseWriter, r *http.Request) {
	rep := s.Health()
	code := http.StatusOK
	if rep.Status == HealthCritical {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, rep)
}

// EventsResponse is the /v1/events payload: state-transition events
// after the request's cursor, oldest first, and the cursor to pass next
// (the largest sequence number returned, or the request's own when
// nothing new happened). On a cluster front, events folded from replicas
// carry an Origin and their own sequence space, so a cursor over a
// folded stream is approximate: it trims exactly on the front's events
// and conservatively on replicas'.
type EventsResponse struct {
	NextSince int64       `json:"next_since"`
	Events    []obs.Event `json:"events"`
}

// eventsSince collects events after the cursor: the backend's folded
// view (own journal + replicas; nothing when it keeps no journal),
// merged with the server's own journal — unless they are the same
// journal, as in a daemon that shares one journal between its serving
// and cluster layers. Both questions go through the tier, so wrappers
// between the server and a cluster (a predictive front) do not hide the
// answer.
func (s *Server) eventsSince(r *http.Request, since int64, limit int) []obs.Event {
	local := s.journal.Since(since, limit)
	evs, err := s.tier.Events(r.Context(), since, limit)
	if err != nil || len(evs) == 0 {
		return local
	}
	if s.tier.Journal() == s.journal {
		// Shared journal: the backend's fold already contains every local
		// entry; appending ours would double-report.
		return evs
	}
	evs = append(evs, local...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })
	if limit > 0 && len(evs) > limit {
		evs = evs[:limit]
	}
	return evs
}

// handleEvents serves the event journal: ?since=<seq> resumes after a
// cursor, ?limit=<n> bounds the answer (default 256, 0 explicit means
// all retained).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var since int64
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeError(w, errf(http.StatusBadRequest, "bad since %q", v))
			return
		}
		since = n
	}
	limit := 256
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, errf(http.StatusBadRequest, "bad limit %q", v))
			return
		}
		limit = n
	}
	events := s.eventsSince(r, since, limit)
	if events == nil {
		events = []obs.Event{}
	}
	next := since
	for _, e := range events {
		if e.Seq > next {
			next = e.Seq
		}
	}
	writeJSON(w, http.StatusOK, EventsResponse{NextSince: next, Events: events})
}
