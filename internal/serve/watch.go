package serve

// This file is the streaming half of the health plane: /v1/watch holds
// the connection open and pushes a WatchEvent snapshot — health roll-up,
// rolling windows, new journal entries — every interval as a server-sent
// event. `lowlat watch` renders the stream as a live terminal view; curl
// renders it readably for free. The stream reads the server's own
// journal (which, on a daemon sharing one journal between its serving
// and cluster layers, carries replica transitions too); the exhaustive
// replica-folded view stays on /v1/events.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"lowlat/internal/obs"
)

// minWatchInterval floors the per-connection snapshot period so a
// client asking for "1ns" cannot turn the daemon into a busy loop.
const minWatchInterval = 100 * time.Millisecond

// WatchEvent is one /v1/watch SSE payload (event type "snapshot"): the
// moment's health evaluation, the server's rolling endpoint windows, and
// the journal entries recorded since the previous snapshot.
type WatchEvent struct {
	// Time is when the snapshot was taken.
	Time time.Time `json:"time"`
	// Health is the same evaluation /v1/health serves.
	Health HealthReport `json:"health"`
	// Windows is the server's per-endpoint rolling-window view (http_*
	// stages; backend stages ride in /v1/stats, not the stream).
	Windows map[string][]obs.WindowSnapshot `json:"windows,omitempty"`
	// Events are the journal entries since the previous snapshot.
	Events []obs.Event `json:"events,omitempty"`
}

// handleWatch streams WatchEvent snapshots as server-sent events until
// the client disconnects. ?interval=2s overrides the snapshot period
// (floored at 100ms); ?since=<seq> replays journal entries after a
// cursor into the first snapshot instead of starting at "now".
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	interval := s.opts.WatchInterval
	q := r.URL.Query()
	if v := q.Get("interval"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeError(w, errf(http.StatusBadRequest, "bad interval %q", v))
			return
		}
		interval = max(d, minWatchInterval)
	}
	cursor := s.journal.LastSeq()
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeError(w, errf(http.StatusBadRequest, "bad since %q", v))
			return
		}
		cursor = n
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errf(http.StatusNotImplemented, "streaming unsupported by connection"))
		return
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // tell buffering proxies to pass events through
	w.WriteHeader(http.StatusOK)

	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		ev := WatchEvent{
			Time:    time.Now(),
			Health:  s.Health(),
			Windows: s.obs.Snapshot().Windows,
			Events:  s.journal.Since(cursor, 0),
		}
		for _, e := range ev.Events {
			if e.Seq > cursor {
				cursor = e.Seq
			}
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return
		}
		if _, err := fmt.Fprintf(w, "event: snapshot\ndata: %s\n\n", data); err != nil {
			return // client gone
		}
		fl.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-t.C:
		}
	}
}
