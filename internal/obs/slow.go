package obs

import (
	"slices"
	"sync"
	"time"
)

// SlowEntry is one slow request's record in the ring: identity, where
// it landed, how long it took, and the per-stage breakdown its trace
// accumulated on the way through.
type SlowEntry struct {
	// ID is the request ID.
	ID string `json:"id"`
	// Endpoint names the handler ("place", "query", ...).
	Endpoint string `json:"endpoint"`
	// Detail carries the handler's annotation — the cell spec or key.
	Detail string `json:"detail,omitempty"`
	// Source is the answer's provenance when the handler reported one.
	Source string `json:"source,omitempty"`
	// Status is the HTTP status the request answered with.
	Status int `json:"status"`
	// Start is when the request began, RFC 3339 with nanoseconds.
	Start time.Time `json:"start"`
	// DurNS is the request's total duration in nanoseconds.
	DurNS int64 `json:"dur_ns"`
	// Stages is the per-stage timing breakdown, in record order.
	Stages []StageTiming `json:"stages,omitempty"`
}

// SlowRing is a bounded ring of the most recent slow requests — the
// "what just hurt" buffer /v1/slow serves. Writers never block beyond a
// short mutex; the oldest entry is overwritten when the ring is full.
// A nil *SlowRing is valid and records nothing.
type SlowRing struct {
	mu      sync.Mutex
	entries ring[SlowEntry]
}

// NewSlowRing returns a ring holding the last n entries (n <= 0 takes
// a 64-entry default).
func NewSlowRing(n int) *SlowRing {
	if n <= 0 {
		n = 64
	}
	return &SlowRing{entries: newRing[SlowEntry](n)}
}

// Add records one slow request, overwriting the oldest entry when full.
// No-op on a nil ring.
func (r *SlowRing) Add(e SlowEntry) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.entries.push(e)
	r.mu.Unlock()
}

// Total counts every slow request ever recorded, including entries the
// ring has since overwritten. Zero on a nil ring.
func (r *SlowRing) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries.pushed
}

// Snapshot returns the retained entries, most recent first. Nil on a
// nil or empty ring.
func (r *SlowRing) Snapshot() []SlowEntry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.entries.from(0, 0)
	slices.Reverse(out)
	return out
}
