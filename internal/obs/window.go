package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file is the windowed half of the observability plane: rolling
// multi-window views (1m / 5m / 1h by default) over the same log-bucket
// histograms the cumulative plane records. Cumulative-since-boot numbers
// answer "how has this daemon done over its lifetime"; the windows answer
// the operational question the SLO engine needs — "is p99 holding *right
// now*, under this failure storm" — which is the cISP-style continuous
// tail-latency tracking requirement made concrete.
//
// Design: every Windowed histogram keeps one cumulative Histogram plus a
// live sub-slot (a full Histogram covering the current SlotDur tick) that
// recorders reach through an atomic pointer. Record is therefore two
// lock-free histogram records and a clock read — no locks, no allocation
// — and stays inside the <100ns hot-path budget. Rotation swaps the live
// slot pointer and retires the old slot into a ring of per-slot
// snapshots; it runs under a mutex recorders never take (the record-side
// check uses TryLock and simply skips when someone else is rotating), so
// rotation never blocks a concurrent Record. A window snapshot merges the
// retired slots inside its span with the live slot — exact bucket sums,
// quantiles recomputed once over the merge, identical to the cumulative
// plane's merge discipline.
//
// Attribution at the edges is monitoring-grade, not transactional: an
// observation racing a rotation lands in the retiring slot (whose
// histogram stays live for one extra slot before freezing) or the fresh
// one; either way it is never lost from the cumulative plane.

// Default window geometry: three windows over ten-second sub-slots.
const (
	// DefaultSlot is the default sub-slot duration windows rotate on.
	DefaultSlot = 10 * time.Second
)

// DefaultWindows are the default rolling window spans: one minute, five
// minutes, one hour. Window names are the canonical duration strings
// ("1m0s" shortened to "1m" — see WindowName).
var DefaultWindows = []time.Duration{time.Minute, 5 * time.Minute, time.Hour}

// WindowName renders a window span the way objectives, /v1/stats and
// /metrics name it: time.Duration.String with trailing zero units
// trimmed ("1m0s" -> "1m", "1h0m0s" -> "1h").
func WindowName(d time.Duration) string {
	s := d.String()
	for _, suffix := range []string{"m0s", "h0m"} {
		for len(s) > len(suffix) && s[len(s)-len(suffix):] == suffix {
			s = s[:len(s)-2]
		}
	}
	return s
}

// WindowConfig is the window geometry a Registry (and every Windowed
// histogram it creates) rolls on. The zero value means DefaultSlot and
// DefaultWindows. Tests shrink both to drive rotations in milliseconds.
type WindowConfig struct {
	// Slot is the sub-slot duration: the rotation tick, and the
	// granularity at which old observations age out of a window.
	Slot time.Duration
	// Windows are the rolling spans reported per stage, each rounded up
	// to a whole number of slots. Order is preserved in snapshots.
	Windows []time.Duration

	// now overrides the clock for tests; nil means time.Now.
	now func() time.Time
}

func (c WindowConfig) withDefaults() WindowConfig {
	if c.Slot <= 0 {
		c.Slot = DefaultSlot
	}
	if len(c.Windows) == 0 {
		c.Windows = DefaultWindows
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// slots converts a window span to its slot count (rounded up, minimum 1).
func (c WindowConfig) slots(w time.Duration) int {
	n := int((w + c.Slot - 1) / c.Slot)
	if n < 1 {
		n = 1
	}
	return n
}

// maxSlots is the retired-ring length: enough slots to cover the longest
// window (the live slot covers the current tick).
func (c WindowConfig) maxSlots() int {
	max := 1
	for _, w := range c.Windows {
		if n := c.slots(w); n > max {
			max = n
		}
	}
	return max
}

// WindowSnapshot is one stage's state over one rolling window: the
// merged Snapshot of the window's sub-slots plus the window's identity
// and rate. It is what /v1/stats carries under "windows" and what the
// SLO engine evaluates.
type WindowSnapshot struct {
	// Window names the span ("1m", "5m", "1h").
	Window string `json:"window"`
	// SpanNS is the wall-clock span the window actually covers in
	// nanoseconds (shorter than the nominal span right after boot).
	SpanNS int64 `json:"span_ns"`
	// Rate is observations per second over the covered span.
	Rate float64 `json:"rate_per_sec"`
	// Snapshot is the merged distribution: exact bucket sums over the
	// window's sub-slots, quantiles recomputed once over the merge.
	Snapshot
}

// winSlot is one live sub-slot: a sequence number (unix-nanos divided by
// the slot duration) and the histogram recorders write into.
type winSlot struct {
	seq int64
	h   Histogram
}

// retSlot is one retired sub-slot in the ring. live points at the slot's
// histogram for one extra rotation (so stragglers racing the pointer
// swap still land); after that the slot freezes into its snapshot.
type retSlot struct {
	seq  int64
	live *Histogram
	snap Snapshot
}

// view reads the slot's current distribution.
func (r *retSlot) view() Snapshot {
	if r.live != nil {
		return r.live.Snapshot()
	}
	return r.snap
}

// Windowed is a latency histogram with both a cumulative view and
// rolling multi-window views. Record is lock-free (two histogram records
// and a clock read); rotation and window snapshots never block
// recorders. Create with NewWindowed (or through a Registry); the zero
// value records into the cumulative plane only.
type Windowed struct {
	cum Histogram
	cfg WindowConfig
	cur atomic.Pointer[winSlot]

	mu      sync.Mutex // guards ring + rotation; never taken by the Record fast path
	ring    []retSlot  // retired slots, indexed by seq % len
	started int64      // unix-nanos the first slot opened, for partial spans

	// Clock plumbing: production reads go through the monotonic clock
	// (epoch + time.Since ≈ half the cost of time.Now on the hot path);
	// a test-injected cfg.now bypasses it.
	epoch   time.Time
	epochNS int64
	fake    bool
}

// NewWindowed builds a windowed histogram with the given geometry (zero
// config = DefaultSlot / DefaultWindows).
func NewWindowed(cfg WindowConfig) *Windowed {
	fake := cfg.now != nil
	cfg = cfg.withDefaults()
	w := &Windowed{cfg: cfg, ring: make([]retSlot, cfg.maxSlots()), fake: fake}
	w.epoch = cfg.now()
	w.epochNS = w.epoch.UnixNano()
	w.started = w.epochNS
	w.cur.Store(&winSlot{seq: w.epochNS / int64(cfg.Slot)})
	return w
}

// nowNS reads the clock for slot arithmetic: the monotonic path in
// production, the injected clock in tests.
func (w *Windowed) nowNS() int64 {
	if w.fake {
		return w.cfg.now().UnixNano()
	}
	return w.epochNS + int64(time.Since(w.epoch))
}

// Record adds one observation to the cumulative histogram and the
// current sub-slot. Negative durations clamp to zero. When the clock has
// crossed a slot boundary the recorder attempts the rotation itself with
// a TryLock — if another goroutine is already rotating it records into
// the retiring slot instead of waiting, so Record never blocks.
func (w *Windowed) Record(d time.Duration) {
	if w == nil {
		return
	}
	w.cum.Record(d)
	s := w.cur.Load()
	if s == nil {
		return // zero value: cumulative only
	}
	if seq := w.nowNS() / int64(w.cfg.Slot); seq != s.seq {
		if ns := w.rotateTry(seq); ns != nil {
			s = ns
		}
	}
	s.h.Record(d)
}

// Inc records a zero-duration observation — the counter idiom. A stage
// used this way reports counts and rates per window (and a degenerate
// latency distribution); the SLO engine's error_rate objectives divide
// one such counter by its base stage's count.
func (w *Windowed) Inc() { w.Record(0) }

// rotateTry advances to slot seq if no other goroutine is mid-rotation,
// returning the fresh slot (nil when the lock was contended and the
// caller should use the slot it already has).
func (w *Windowed) rotateTry(seq int64) *winSlot {
	if !w.mu.TryLock() {
		return nil
	}
	defer w.mu.Unlock()
	return w.rotateLocked(seq)
}

// rotateLocked retires the live slot and opens slot seq. Callers hold mu.
func (w *Windowed) rotateLocked(seq int64) *winSlot {
	s := w.cur.Load()
	if s == nil || s.seq >= seq {
		return s
	}
	ns := &winSlot{seq: seq}
	w.cur.Store(ns)
	// Retire the old slot with its histogram still live: recorders that
	// loaded the old pointer just before the swap finish into it and are
	// still counted. It freezes on a later rotation, once it is at least
	// one whole slot old.
	w.ring[s.seq%int64(len(w.ring))] = retSlot{seq: s.seq, live: &s.h}
	for i := range w.ring {
		if w.ring[i].live != nil && w.ring[i].seq < seq-1 {
			w.ring[i].snap = w.ring[i].live.Snapshot()
			w.ring[i].live = nil
		}
	}
	return ns
}

// Snapshot captures the cumulative histogram, exactly as a plain
// Histogram would. Zero Snapshot on a nil receiver.
func (w *Windowed) Snapshot() Snapshot {
	if w == nil {
		return Snapshot{}
	}
	return w.cum.Snapshot()
}

// Windows captures every configured rolling window: for each span, the
// merged distribution of the sub-slots inside it (live slot included)
// plus the covered span and rate. Returns nil on a nil or zero-value
// Windowed.
func (w *Windowed) Windows() []WindowSnapshot {
	if w == nil || w.cur.Load() == nil {
		return nil
	}
	now := w.nowNS()
	seq := now / int64(w.cfg.Slot)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rotateLocked(seq)
	live := w.cur.Load()

	out := make([]WindowSnapshot, 0, len(w.cfg.Windows))
	for _, span := range w.cfg.Windows {
		k := w.cfg.slots(span)
		var s Snapshot
		for i := range w.ring {
			if r := &w.ring[i]; r.seq >= seq-int64(k) && r.seq < seq && (r.live != nil || r.snap.Count > 0) {
				s.Merge(r.view())
			}
		}
		s.Merge(live.h.Snapshot())
		covered := int64(span)
		if up := now - w.started; up < covered {
			covered = up
		}
		ws := WindowSnapshot{Window: WindowName(span), SpanNS: covered, Snapshot: s}
		if covered > 0 {
			ws.Rate = float64(s.Count) / (float64(covered) / 1e9)
		}
		out = append(out, ws)
	}
	return out
}

// Window returns the snapshot for one configured span, matched by
// WindowName. ok is false when the span is not configured.
func (w *Windowed) Window(name string) (WindowSnapshot, bool) {
	for _, ws := range w.Windows() {
		if ws.Window == name {
			return ws, true
		}
	}
	return WindowSnapshot{}, false
}

// WindowLookup resolves one stage's snapshot over one named window — the
// view the SLO engine evaluates against. Implemented by Registry.Window
// (live) and Telemetry.Window (merged cluster-wide state).
type WindowLookup func(stage, window string) (WindowSnapshot, bool)
