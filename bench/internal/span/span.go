// Package span is the benchmark's tracer. Spans are recorded from the
// benchmark's own files around calls into each layer's public functions
// (spans inside the program are a later change): name, start, end, the
// span that caused it, and the id of the operation they belong to. They
// are held in memory while a workload runs and written out when it ends.
package span

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// NoParent marks a root span.
const NoParent = -1

// Span is one recorded interval. Times are nanoseconds since the
// recorder started, so a trace file is independent of the wall clock.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Duration is the span's length in nanoseconds.
func (s Span) Duration() int64 { return s.End - s.Start }

// Recorder collects spans. It is safe for concurrent use; a nil Recorder
// records nothing, so untraced runs share the traced code path at the
// cost of one nil check per boundary.
type Recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []Span // guarded by mu
}

// NewRecorder starts a recorder; span times count from now.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Start opens a span and returns its id (NoParent on a nil recorder).
func (r *Recorder) Start(op int64, parent int, name string) int {
	if r == nil {
		return NoParent
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return id
}

// End closes the span.
func (r *Recorder) End(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if id < len(r.spans) {
		r.spans[id].End = now
	}
}

// Do records fn as a child span.
func (r *Recorder) Do(op int64, parent int, name string, fn func()) {
	id := r.Start(op, parent, name)
	fn()
	r.End(id)
}

// Spans returns a copy of everything recorded so far, in id order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes returns, per span id, the span's duration minus the part of
// its interval its direct children cover. Overlapping children are
// counted once (their union), and a child reaching outside its parent is
// clipped to it, so self time is never negative and self times of a tree
// sum to the root's duration.
func SelfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != NoParent {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Duration() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals inside
// the parent's.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total int64
	curStart, curEnd := int64(0), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if curEnd < curStart || s > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = s, e
			continue
		}
		curEnd = max(curEnd, e)
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return total
}

// ByName groups self times (and, for root spans, durations) by span
// name: the per-layer view of a trace. Unaccounted is the self time of
// root spans — the part of each operation no child span claimed.
type ByName struct {
	// SelfNs sums self time per span name over non-root spans.
	SelfNs map[string]int64
	// RootNs is the summed duration of root spans, UnaccountedNs their
	// summed self time; Roots counts them.
	RootNs, UnaccountedNs int64
	Roots                 int
}

// Aggregate folds a trace into its per-name view.
func Aggregate(spans []Span) ByName {
	self := SelfTimes(spans)
	out := ByName{SelfNs: make(map[string]int64)}
	for _, s := range spans {
		if s.Parent == NoParent {
			out.Roots++
			out.RootNs += s.Duration()
			out.UnaccountedNs += self[s.ID]
			continue
		}
		out.SelfNs[s.Name] += self[s.ID]
	}
	return out
}

// File is the on-disk form of one workload's trace.
type File struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []Span `json:"spans"`
}

// WriteFile writes the trace as JSON.
func WriteFile(path string, f File) error {
	b, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("span: marshal trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("span: %w", err)
	}
	return nil
}

// ReadFile reads a trace written by WriteFile.
func ReadFile(path string) (File, error) {
	var f File
	b, err := os.ReadFile(path)
	if err != nil {
		return f, fmt.Errorf("span: %w", err)
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("span: parse %s: %w", path, err)
	}
	return f, nil
}
