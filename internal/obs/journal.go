package obs

import (
	"sync"
	"time"
)

// Event types the serving stack records. A type is just a string —
// nothing registers them — but sharing the constants keeps the cluster,
// the HTTP skin, /v1/events and the docs in agreement.
const (
	// EventReplicaDown marks a replica transitioning healthy -> down.
	EventReplicaDown = "replica_down"
	// EventReplicaUp marks a replica transitioning down -> healthy.
	EventReplicaUp = "replica_up"
	// EventReroute marks a placement rerouted off an unavailable owner.
	EventReroute = "reroute"
	// EventHintQueued marks a write queued as a hint for a down owner.
	EventHintQueued = "hint_queued"
	// EventHintDropped marks the oldest hint evicted by a full queue.
	EventHintDropped = "hint_dropped"
	// EventHintDrained marks a recovered replica's hint queue replayed.
	EventHintDrained = "hint_drained"
	// EventHealSweep marks one anti-entropy heal sweep finishing.
	EventHealSweep = "heal_sweep"
	// EventReadRepair marks a stale replica repaired during a read.
	EventReadRepair = "read_repair"
	// EventSLOState marks an SLO objective changing alert state.
	EventSLOState = "slo_state"
	// EventHealthState marks the daemon's overall health changing.
	EventHealthState = "health_state"
)

// Event is one structured state transition in the journal: what
// happened, to what, when, and (on cluster fronts folding replica
// journals) where. Seq is the journal-local cursor — strictly
// increasing, so `since` polling never re-reads or skips an event from
// the same origin.
type Event struct {
	// Seq is the event's position in its origin journal, starting at 1.
	Seq int64 `json:"seq"`
	// Time is when the event was recorded.
	Time time.Time `json:"time"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Subject names what the event is about — a replica URL, a content
	// key, an objective.
	Subject string `json:"subject,omitempty"`
	// Detail is a human-readable elaboration ("ok -> page: ...").
	Detail string `json:"detail,omitempty"`
	// Origin labels which daemon recorded the event; empty for the
	// local journal, set when a cluster front folds replica journals.
	Origin string `json:"origin,omitempty"`
}

// Journal is a bounded ring of state-transition events — the queryable
// memory behind /v1/events. Recording is a short mutex and never
// allocates beyond the event itself; when the ring is full the oldest
// event is overwritten (its Seq simply stops being served, which
// `since` cursors tolerate: a reader that fell behind resumes from the
// oldest retained event). A nil *Journal is valid and records nothing.
type Journal struct {
	mu     sync.Mutex
	events ring[Event] // an event's Seq is its 1-based push number

	// now overrides the clock for tests; nil means time.Now.
	now func() time.Time
}

// NewJournal returns a journal retaining the last n events (n <= 0
// takes a 1024-entry default).
func NewJournal(n int) *Journal {
	if n <= 0 {
		n = 1024
	}
	return &Journal{events: newRing[Event](n)}
}

// Record appends one event, stamping its sequence number and time.
// No-op on a nil journal.
func (j *Journal) Record(typ, subject, detail string) {
	if j == nil {
		return
	}
	now := time.Now
	if j.now != nil {
		now = j.now
	}
	j.mu.Lock()
	j.events.push(Event{Seq: j.events.pushed + 1, Time: now(), Type: typ, Subject: subject, Detail: detail})
	j.mu.Unlock()
}

// LastSeq is the sequence number of the newest event — the cursor a
// poller passes back as `since` to receive only what follows. Zero on a
// nil or empty journal.
func (j *Journal) LastSeq() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.events.pushed
}

// Since returns retained events with Seq > since, oldest first, at most
// limit (limit <= 0 means all retained). since = 0 returns everything
// retained. Nil on a nil journal or when nothing follows the cursor.
func (j *Journal) Since(since int64, limit int) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.events.from(since, limit) // Seq > since: pushes since onwards
}
