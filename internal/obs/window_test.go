package obs

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic rotation
// tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestWindowName pins the canonical window naming objectives match on.
func TestWindowName(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{time.Minute, "1m"},
		{5 * time.Minute, "5m"},
		{time.Hour, "1h"},
		{90 * time.Second, "1m30s"},
		{10 * time.Second, "10s"},
		{1500 * time.Millisecond, "1.5s"},
	} {
		if got := WindowName(tc.d); got != tc.want {
			t.Errorf("WindowName(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

// TestWindowedRotation drives a fake clock through slot boundaries and
// checks observations age out of short windows while the cumulative
// plane and longer windows keep them.
func TestWindowedRotation(t *testing.T) {
	clk := newFakeClock()
	w := NewWindowed(WindowConfig{
		Slot:    time.Second,
		Windows: []time.Duration{2 * time.Second, 10 * time.Second},
		now:     clk.now,
	})
	w.Record(time.Millisecond)
	w.Record(time.Millisecond)
	clk.advance(time.Second) // next slot
	w.Record(2 * time.Millisecond)

	short, ok := w.Window("2s")
	if !ok || short.Count != 3 {
		t.Fatalf("2s window = %+v ok=%v, want count 3", short, ok)
	}
	long, ok := w.Window("10s")
	if !ok || long.Count != 3 {
		t.Fatalf("10s window = %+v, want count 3", long)
	}

	// Advance past the short window: the first two observations age out
	// of 2s but stay in 10s and in the cumulative snapshot.
	clk.advance(2 * time.Second)
	short, _ = w.Window("2s")
	if short.Count != 1 {
		t.Fatalf("2s window count after aging = %d, want 1", short.Count)
	}
	long, _ = w.Window("10s")
	if long.Count != 3 {
		t.Fatalf("10s window count = %d, want 3", long.Count)
	}
	if cum := w.Snapshot(); cum.Count != 3 {
		t.Fatalf("cumulative count = %d, want 3", cum.Count)
	}

	// Far future: everything ages out of every window; cumulative holds.
	clk.advance(time.Minute)
	for _, name := range []string{"2s", "10s"} {
		if ws, _ := w.Window(name); ws.Count != 0 {
			t.Fatalf("%s window count after a minute idle = %d, want 0", name, ws.Count)
		}
	}
	if cum := w.Snapshot(); cum.Count != 3 {
		t.Fatalf("cumulative count = %d, want 3", cum.Count)
	}
}

// TestWindowedRate pins the rate computation: count over covered span,
// with the span clamped to uptime right after boot.
func TestWindowedRate(t *testing.T) {
	clk := newFakeClock()
	w := NewWindowed(WindowConfig{Slot: time.Second, Windows: []time.Duration{10 * time.Second}, now: clk.now})
	for i := 0; i < 20; i++ {
		w.Record(time.Millisecond)
	}
	clk.advance(2 * time.Second)
	ws, _ := w.Window("10s")
	// 20 observations over 2s of uptime (span clamps to uptime).
	if ws.SpanNS != int64(2*time.Second) {
		t.Fatalf("span = %v, want 2s", time.Duration(ws.SpanNS))
	}
	if ws.Rate < 9.9 || ws.Rate > 10.1 {
		t.Fatalf("rate = %v, want ~10/s", ws.Rate)
	}
}

// TestWindowRotationConcurrentRecord is the race-clean rotation test:
// recorders hammer a Windowed with a real clock and a sub-millisecond
// slot (forcing rotations constantly) while readers snapshot windows.
// The cumulative plane must count every observation exactly; windows
// must never exceed it.
func TestWindowRotationConcurrentRecord(t *testing.T) {
	w := NewWindowed(WindowConfig{
		Slot:    200 * time.Microsecond,
		Windows: []time.Duration{2 * time.Millisecond, 50 * time.Millisecond},
	})
	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					for _, ws := range w.Windows() {
						if ws.Count < 0 {
							t.Error("negative window count")
							return
						}
					}
				}
			}
		}()
	}
	var recorded atomic.Int64
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				w.Record(time.Duration(i%1000) * time.Microsecond)
				recorded.Add(1)
			}
		}()
	}
	for recorded.Load() < writers*perWriter {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if cum := w.Snapshot(); cum.Count != writers*perWriter {
		t.Fatalf("cumulative count = %d, want %d (windows lost an observation into the cumulative plane)", cum.Count, writers*perWriter)
	}
	for _, ws := range w.Windows() {
		if ws.Count > writers*perWriter {
			t.Fatalf("window %s count %d exceeds total recorded %d", ws.Window, ws.Count, writers*perWriter)
		}
	}
}

// TestSnapshotMergeQuantileProperty is the property-style Merge test:
// over random bucket fills — disjoint ranges, overlapping ranges, and
// uniform mixes — merging two snapshots must yield exactly the
// quantiles of a single histogram that saw both streams.
func TestSnapshotMergeQuantileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ranges := [][2]int64{
		{1, 1000},          // overlapping low range
		{1, 1000},          // same again (full overlap)
		{1 << 20, 1 << 24}, // disjoint mid range
		{1 << 40, 1 << 44}, // disjoint high range
		{100, 1 << 42},     // spans everything
		{0, 3},             // unit buckets only
	}
	for trial := 0; trial < 50; trial++ {
		ra := ranges[rng.Intn(len(ranges))]
		rb := ranges[rng.Intn(len(ranges))]
		var ha, hb, combined Histogram
		na, nb := 1+rng.Intn(500), 1+rng.Intn(500)
		for i := 0; i < na; i++ {
			v := ra[0] + rng.Int63n(ra[1]-ra[0]+1)
			ha.Record(time.Duration(v))
			combined.Record(time.Duration(v))
		}
		for i := 0; i < nb; i++ {
			v := rb[0] + rng.Int63n(rb[1]-rb[0]+1)
			hb.Record(time.Duration(v))
			combined.Record(time.Duration(v))
		}
		merged := ha.Snapshot()
		merged.Merge(hb.Snapshot())
		want := combined.Snapshot()
		if merged.Count != want.Count || merged.SumNS != want.SumNS || merged.MaxNS != want.MaxNS {
			t.Fatalf("trial %d (ranges %v+%v): merged totals %d/%d/%d, want %d/%d/%d",
				trial, ra, rb, merged.Count, merged.SumNS, merged.MaxNS, want.Count, want.SumNS, want.MaxNS)
		}
		if merged.P50NS != want.P50NS || merged.P90NS != want.P90NS || merged.P99NS != want.P99NS {
			t.Fatalf("trial %d (ranges %v+%v): merged quantiles %d/%d/%d, want %d/%d/%d",
				trial, ra, rb, merged.P50NS, merged.P90NS, merged.P99NS, want.P50NS, want.P90NS, want.P99NS)
		}
		if len(merged.Buckets) != len(want.Buckets) {
			t.Fatalf("trial %d: merged has %d buckets, combined %d", trial, len(merged.Buckets), len(want.Buckets))
		}
		for i := range merged.Buckets {
			if merged.Buckets[i] != want.Buckets[i] {
				t.Fatalf("trial %d: bucket %d = %v, want %v", trial, i, merged.Buckets[i], want.Buckets[i])
			}
		}
		// Arbitrary quantiles agree too (the SLO engine uses these).
		for _, q := range []float64{0.25, 0.75, 0.999} {
			if merged.Quantile(q) != want.Quantile(q) {
				t.Fatalf("trial %d: Quantile(%v) = %d, want %d", trial, q, merged.Quantile(q), want.Quantile(q))
			}
		}
	}
}

// TestFractionAbove pins the bad-fraction computation burn rates use.
func TestFractionAbove(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Record(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(100 * time.Millisecond)
	}
	s := h.Snapshot()
	if f := s.FractionAbove(int64(10 * time.Millisecond)); f < 0.09 || f > 0.11 {
		t.Fatalf("FractionAbove(10ms) = %v, want ~0.1", f)
	}
	if f := s.FractionAbove(int64(time.Second)); f != 0 {
		t.Fatalf("FractionAbove(1s) = %v, want 0", f)
	}
	if f := (Snapshot{}).FractionAbove(0); f != 0 {
		t.Fatalf("empty FractionAbove = %v", f)
	}
}

// TestMergeWindows pins the cluster roll-up through Telemetry.Merge:
// counts add per stage and per window name, rates recompute over the
// merged span, and the merged value never aliases its sources.
func TestMergeWindows(t *testing.T) {
	clk := newFakeClock()
	cfg := WindowConfig{Slot: time.Second, Windows: []time.Duration{10 * time.Second}, now: clk.now}
	a, b := NewWindowed(cfg), NewWindowed(cfg)
	for i := 0; i < 10; i++ {
		a.Record(time.Millisecond)
		b.Record(2 * time.Millisecond)
	}
	clk.advance(10 * time.Second)
	src := Telemetry{
		Stages:  map[string]Snapshot{"s": b.Snapshot()},
		Windows: map[string][]WindowSnapshot{"s": b.Windows()},
	}
	var merged Telemetry
	merged.Merge(Telemetry{
		Stages:  map[string]Snapshot{"s": a.Snapshot()},
		Windows: map[string][]WindowSnapshot{"s": a.Windows()},
	})
	merged.Merge(src)
	if got := merged.Stages["s"].Count; got != 20 {
		t.Fatalf("merged stage count = %d, want 20", got)
	}
	ws := merged.Windows["s"]
	if len(ws) != 1 || ws[0].Window != "10s" || ws[0].Count != 20 {
		t.Fatalf("merged windows = %+v, want one 10s window with count 20", ws)
	}
	if ws[0].Rate < 1.9 || ws[0].Rate > 2.1 {
		t.Fatalf("merged rate = %v, want ~2/s (20 obs over 10s)", ws[0].Rate)
	}
	if got, ok := merged.Window("s", "10s"); !ok || got.Count != 20 {
		t.Fatalf("Telemetry.Window = %+v ok=%v", got, ok)
	}
	if _, ok := merged.Window("s", "1m"); ok {
		t.Fatal("Telemetry.Window found an unconfigured window")
	}
	var fresh Telemetry
	fresh.Merge(src)
	fresh.Merge(src)
	if src.Stages["s"].Count != 10 || src.Windows["s"][0].Count != 10 || src.Windows["s"][0].Buckets[0][1] != 10 {
		t.Fatalf("Merge wrote through to its source: %+v", src)
	}
}

// TestRegistryWindows pins the registry-level window surface.
func TestRegistryWindows(t *testing.T) {
	r := NewRegistryWindows(WindowConfig{Slot: time.Second, Windows: []time.Duration{time.Minute}})
	r.Hist("x").Record(time.Millisecond)
	r.Hist("x").Inc()
	wins := r.Snapshot().Windows
	if len(wins["x"]) != 1 || wins["x"][0].Count != 2 {
		t.Fatalf("registry windows = %+v, want x with count 2", wins)
	}
	if ws, ok := r.Window("x", "1m"); !ok || ws.Count != 2 {
		t.Fatalf("registry Window(x,1m) = %+v ok=%v", ws, ok)
	}
	if _, ok := r.Window("missing", "1m"); ok {
		t.Fatal("registry Window found a missing stage")
	}
	var nilReg *Registry
	if nilReg.Snapshot().Windows != nil {
		t.Fatal("nil registry windows")
	}
	if _, ok := nilReg.Window("x", "1m"); ok {
		t.Fatal("nil registry Window ok")
	}
	var nilW *Windowed
	nilW.Record(time.Millisecond)
	nilW.Inc()
	if nilW.Windows() != nil || nilW.Snapshot().Count != 0 {
		t.Fatal("nil Windowed leaked data")
	}
}
