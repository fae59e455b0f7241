// Package obs is the observability plane threaded through every serving
// tier: lock-cheap mergeable latency histograms with per-stage
// registries, request-ID tracing carried on contexts, a bounded ring of
// recent slow requests, and a Prometheus-text metrics renderer. It is
// deliberately dependency-free (standard library only) so every layer —
// backends, the cluster, the HTTP skin, the sweep orchestrator — can
// record into it without dragging a metrics SDK through the repository.
//
// The paper's case for low-latency-capable topologies only cashes out if
// the serving layer can *prove* its latency at runtime; this package is
// the measurement plane the cISP-style "track tail latency continuously"
// question is answered from. The design mirrors production metric
// pipelines at miniature scale:
//
//   - Histogram is log-bucketed (4 sub-buckets per power of two over
//     nanosecond values), records with a handful of atomic adds — no
//     locks on the hot path — and snapshots into a Snapshot whose sparse
//     bucket list survives JSON, so replicas' histograms merge
//     cluster-wide into exact bucket sums (quantiles are then estimated
//     once, over the merged buckets, not averaged across replicas).
//   - Registry is a name→Histogram table; stages are plain strings and
//     the Stage* constants name the ones the serving stack records.
//   - Snapshot carries p50/p90/p99 so /v1/stats answers SLO questions
//     directly.
package obs

import (
	"context"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names recorded by the serving stack. A stage is just a string —
// nothing registers them — but sharing the constants keeps /v1/stats,
// /metrics and the docs in agreement.
const (
	// StageSolve times one exact placement solve (the engine invocation).
	StageSolve = "solve"
	// StageMatrix times one traffic-matrix generation (calibration LPs).
	StageMatrix = "matrix"
	// StageStoreRead times one content-key read against a local store.
	StageStoreRead = "store_read"
	// StageStoreWrite times one cell persist into a local store.
	StageStoreWrite = "store_write"
	// StagePredict times one interpolation-index prediction attempt.
	StagePredict = "predict"
	// StageReplicate times one replication write to a cluster peer.
	StageReplicate = "replicate"
	// StageHeal times one full anti-entropy heal sweep.
	StageHeal = "heal"
	// StageRemoteHop times one HTTP round trip to a downstream daemon.
	StageRemoteHop = "remote_hop"
	// StageCachedPlace times one Place answered from a client-side cache.
	StageCachedPlace = "cached_place"
)

// Bucket layout: values below 1<<subBits nanoseconds get exact unit
// buckets; above that, each power of two splits into 1<<subBits
// log-linear sub-buckets (relative error ≤ 1/2^subBits ≈ 25%, plenty for
// p99 reporting across nine decades of latency). 252 buckets cover the
// full int64 nanosecond range.
const (
	subBits    = 2
	subCount   = 1 << subBits
	numBuckets = (64-subBits)*subCount + subCount
)

// Histogram is a fixed-layout log-bucketed latency histogram safe for
// concurrent use. Record is a few atomic adds — no locks, no allocation
// — so it can sit on nanosecond-scale hot paths. The zero value is ready
// to use.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// bucketOf maps a non-negative nanosecond value to its bucket index.
func bucketOf(ns int64) int {
	v := uint64(ns)
	if v < subCount {
		return int(v)
	}
	e := bits.Len64(v) - 1 // position of the leading bit, ≥ subBits
	frac := (v >> (uint(e) - subBits)) & (subCount - 1)
	return (e-subBits)*subCount + subCount + int(frac)
}

// bucketBounds returns the [lo, hi) nanosecond range of bucket b.
func bucketBounds(b int) (lo, hi int64) {
	if b < subCount {
		return int64(b), int64(b) + 1
	}
	i := b - subCount
	e := uint(i/subCount) + subBits
	frac := uint64(i % subCount)
	width := int64(1) << (e - subBits)
	lo = int64((subCount + frac) << (e - subBits))
	return lo, lo + width
}

// Record adds one observation. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketOf(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		m := h.max.Load()
		if ns <= m || h.max.CompareAndSwap(m, ns) {
			return
		}
	}
}

// Snapshot captures the histogram's current state. Concurrent Records
// may land between the field reads — a snapshot is a monitoring view,
// not a transaction — but every recorded observation appears in some
// later snapshot.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{
		Count: h.count.Load(),
		SumNS: h.sum.Load(),
		MaxNS: h.max.Load(),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, [2]int64{int64(i), n})
		}
	}
	s.refresh()
	return s
}

// Snapshot is one histogram's point-in-time state: totals, the sparse
// bucket list (pairs of [bucket index, count], ascending by index), and
// nearest-rank quantile estimates computed over the buckets. Snapshots
// are what travel in /v1/stats — the bucket list is exact, so replicas'
// snapshots merge into a cluster-wide distribution with Merge and the
// quantiles stay honest after any number of hops.
type Snapshot struct {
	// Count is the number of recorded observations; SumNS and MaxNS their
	// nanosecond total and maximum.
	Count int64 `json:"count"`
	SumNS int64 `json:"sum_ns"`
	MaxNS int64 `json:"max_ns,omitempty"`
	// P50NS, P90NS and P99NS are nearest-rank quantile estimates in
	// nanoseconds (bucket midpoints; ≤ 25% relative bucket error).
	P50NS int64 `json:"p50_ns"`
	P90NS int64 `json:"p90_ns"`
	P99NS int64 `json:"p99_ns"`
	// Buckets is the sparse bucket list: [bucket index, count] pairs in
	// ascending index order, only non-empty buckets present.
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

// refresh recomputes the quantile fields from the bucket list.
func (s *Snapshot) refresh() {
	s.P50NS = s.quantile(0.50)
	s.P90NS = s.quantile(0.90)
	s.P99NS = s.quantile(0.99)
}

// quantile estimates the q-quantile (nearest rank) from the buckets,
// answering each bucket's midpoint. Returns 0 for an empty snapshot.
func (s *Snapshot) quantile(q float64) int64 {
	if s.Count <= 0 {
		return 0
	}
	rank := int64(float64(q*float64(s.Count)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var seen int64
	for _, b := range s.Buckets {
		seen += b[1]
		if seen >= rank {
			lo, hi := bucketBounds(int(b[0]))
			mid := lo + (hi-lo)/2
			if mid > s.MaxNS && s.MaxNS > 0 {
				// The top bucket's midpoint can overshoot the true maximum;
				// never report a quantile above an observed value.
				return s.MaxNS
			}
			return mid
		}
	}
	return s.MaxNS
}

// Quantile estimates an arbitrary q-quantile (0 < q < 1) the same way
// the P50/P90/P99 fields are computed: nearest rank over the sparse
// buckets, answering bucket midpoints, clamped to the observed maximum.
// The SLO engine uses it for objectives on quantiles beyond the three
// precomputed ones.
func (s Snapshot) Quantile(q float64) int64 { return s.quantile(q) }

// FractionAbove returns the fraction of observations strictly above ns,
// judged by bucket midpoints — the "bad fraction" an SLO burn rate is
// built from. Buckets are ≤25% wide, so the answer inherits the same
// relative error as the quantile estimates. Zero for an empty snapshot.
func (s Snapshot) FractionAbove(ns int64) float64 {
	if s.Count <= 0 {
		return 0
	}
	var bad int64
	for _, b := range s.Buckets {
		lo, hi := bucketBounds(int(b[0]))
		if lo+(hi-lo)/2 > ns {
			bad += b[1]
		}
	}
	return float64(bad) / float64(s.Count)
}

// Merge folds another snapshot into this one: counts, sums and buckets
// add, the maximum takes the larger, and the quantiles are recomputed
// over the merged buckets. Merging exact bucket counts (rather than
// averaging quantiles) is what makes a cluster-wide p99 meaningful.
func (s *Snapshot) Merge(o Snapshot) {
	s.Count += o.Count
	s.SumNS += o.SumNS
	if o.MaxNS > s.MaxNS {
		s.MaxNS = o.MaxNS
	}
	s.Buckets = mergeBuckets(s.Buckets, o.Buckets)
	s.refresh()
}

// mergeBuckets merges two ascending sparse bucket lists, summing counts
// for shared indices.
func mergeBuckets(a, b [][2]int64) [][2]int64 {
	if len(a) == 0 {
		return append([][2]int64(nil), b...)
	}
	if len(b) == 0 {
		return a
	}
	out := make([][2]int64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i][0] < b[j][0]:
			out = append(out, a[i])
			i++
		case a[i][0] > b[j][0]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, [2]int64{a[i][0], a[i][1] + b[j][1]})
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Telemetry is a registry's stage telemetry: the cumulative per-stage
// histograms and their rolling windows, keyed by stage name. It is the
// one value every layer's Stats carries, so a wrapping backend, a remote
// hop or a cluster front folds the layer below with a single Merge and
// neither view can be dropped on the way up.
type Telemetry struct {
	// Stages carries the cumulative per-stage latency histograms (solve,
	// store_read, http_place, ...). Merged stages are exact bucket sums;
	// quantiles are recomputed after merging, never averaged.
	Stages map[string]Snapshot `json:"stages,omitempty"`
	// Windows carries each stage's rolling windows, smallest span first
	// — the view the SLO engine evaluates.
	Windows map[string][]WindowSnapshot `json:"windows,omitempty"`
}

// Merge folds o into t — the roll-up every wrapping layer applies to the
// layer below. Stages merge bucket sums; windows merge by name (bucket
// sums add, spans take the larger, since replica windows cover the same
// nominal span and partial boot-time spans take the longest observed,
// and rates are recomputed over the merged counts so a three-replica
// cluster reports the cluster-wide request rate). t never aliases o's
// maps, slices or buckets.
func (t *Telemetry) Merge(o Telemetry) {
	if len(o.Stages) > 0 && t.Stages == nil {
		t.Stages = make(map[string]Snapshot, len(o.Stages))
	}
	for name, snap := range o.Stages {
		cur := t.Stages[name]
		cur.Merge(snap)
		t.Stages[name] = cur
	}
	if len(o.Windows) > 0 && t.Windows == nil {
		t.Windows = make(map[string][]WindowSnapshot, len(o.Windows))
	}
	for stage, wins := range o.Windows {
		cur := t.Windows[stage]
		for _, ws := range wins {
			i := slices.IndexFunc(cur, func(c WindowSnapshot) bool { return c.Window == ws.Window })
			if i < 0 {
				cur = append(cur, WindowSnapshot{Window: ws.Window})
				i = len(cur) - 1
			}
			c := &cur[i]
			c.Snapshot.Merge(ws.Snapshot)
			c.SpanNS = max(c.SpanNS, ws.SpanNS)
			if c.SpanNS > 0 {
				c.Rate = float64(c.Count) / (float64(c.SpanNS) / 1e9)
			}
		}
		t.Windows[stage] = cur
	}
}

// Window resolves one stage's snapshot over one named window — the
// WindowLookup the SLO engine evaluates merged state through. ok is
// false when the stage or the window is absent.
func (t Telemetry) Window(stage, window string) (WindowSnapshot, bool) {
	for _, ws := range t.Windows[stage] {
		if ws.Window == window {
			return ws, true
		}
	}
	return WindowSnapshot{}, false
}

// Registry is a named-histogram table: one windowed histogram per
// stage, created on first use, all rolling on the registry's window
// geometry. A nil *Registry is valid and records nothing — components
// accept an optional registry without nil checks. All methods are safe
// for concurrent use.
type Registry struct {
	mu    sync.RWMutex
	cfg   WindowConfig
	hists map[string]*Windowed
}

// NewRegistry returns an empty registry with the default window
// geometry (DefaultSlot sub-slots, DefaultWindows spans).
func NewRegistry() *Registry {
	return NewRegistryWindows(WindowConfig{})
}

// NewRegistryWindows returns an empty registry whose histograms roll on
// the given window geometry (zero config = defaults). Tests use short
// slots to drive rotations in milliseconds.
func NewRegistryWindows(cfg WindowConfig) *Registry {
	return &Registry{cfg: cfg.withDefaults(), hists: make(map[string]*Windowed)}
}

// Hist returns the named histogram, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Hist(name string) *Windowed {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewWindowed(r.cfg)
		r.hists[name] = h
	}
	return h
}

// Observe records one stage duration into the registry's histogram and,
// when ctx carries a Trace, into the request's stage timings. Safe on a
// nil registry (the trace still records).
func (r *Registry) Observe(ctx context.Context, stage string, d time.Duration) {
	if h := r.Hist(stage); h != nil {
		h.Record(d)
	}
	TraceFrom(ctx).Stage(stage, d)
}

// Snapshot captures every histogram in the registry, keyed by stage
// name: the cumulative view and the rolling windows. Both maps are nil
// on a nil or empty registry.
func (r *Registry) Snapshot() Telemetry {
	if r == nil {
		return Telemetry{}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.hists) == 0 {
		return Telemetry{}
	}
	t := Telemetry{
		Stages:  make(map[string]Snapshot, len(r.hists)),
		Windows: make(map[string][]WindowSnapshot, len(r.hists)),
	}
	for name, h := range r.hists {
		t.Stages[name] = h.Snapshot()
		t.Windows[name] = h.Windows()
	}
	return t
}

// Window resolves one stage's snapshot over one named window — the
// WindowLookup the SLO engine evaluates a live registry through. ok is
// false when the stage has never recorded or the window is not
// configured.
func (r *Registry) Window(stage, window string) (WindowSnapshot, bool) {
	if r == nil {
		return WindowSnapshot{}, false
	}
	r.mu.RLock()
	h := r.hists[stage]
	r.mu.RUnlock()
	if h == nil {
		return WindowSnapshot{}, false
	}
	return h.Window(window)
}
