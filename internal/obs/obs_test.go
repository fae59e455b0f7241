package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketRoundTrip pins the bucket layout: every value lands in a
// bucket whose bounds contain it, indices are monotone, and the whole
// int64 range fits the fixed bucket count.
func TestBucketRoundTrip(t *testing.T) {
	values := []int64{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 100, 999, 1000,
		1 << 20, 1<<20 + 3, 1 << 40, (1 << 62) + 12345}
	prev := -1
	for _, v := range values {
		b := bucketOf(v)
		if b < 0 || b >= numBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range [0,%d)", v, b, numBuckets)
		}
		if b < prev {
			t.Fatalf("bucketOf(%d) = %d < previous bucket %d (not monotone)", v, b, prev)
		}
		prev = b
		lo, hi := bucketBounds(b)
		if v < lo || v >= hi {
			t.Fatalf("value %d in bucket %d with bounds [%d,%d)", v, b, lo, hi)
		}
	}
	if b := bucketOf(int64(^uint64(0) >> 1)); b >= numBuckets {
		t.Fatalf("max int64 lands in bucket %d, layout holds %d", b, numBuckets)
	}
}

// TestHistogramQuantiles records a known distribution and checks the
// nearest-rank estimates stay within one bucket's relative error.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 samples: 1ms, 2ms, ..., 100ms.
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.MaxNS != int64(100*time.Millisecond) {
		t.Fatalf("max = %d, want 100ms", s.MaxNS)
	}
	check := func(name string, got, want int64) {
		t.Helper()
		// Log-linear buckets with 4 sub-buckets guarantee ≤ 25% relative
		// error; allow a touch more for the nearest-rank rounding.
		if diff := got - want; diff < -want/3 || diff > want/3 {
			t.Errorf("%s = %s, want ≈ %s", name, time.Duration(got), time.Duration(want))
		}
	}
	check("p50", s.P50NS, int64(50*time.Millisecond))
	check("p90", s.P90NS, int64(90*time.Millisecond))
	check("p99", s.P99NS, int64(99*time.Millisecond))
}

// TestSnapshotMergeMatchesCombined pins the mergeability contract: the
// merge of two histograms' snapshots equals the snapshot of one
// histogram that recorded both streams — including after a JSON round
// trip, which is how snapshots travel between daemons.
func TestSnapshotMergeMatchesCombined(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var a, b, both Histogram
	for i := 0; i < 500; i++ {
		d := time.Duration(rng.Int63n(int64(time.Second)))
		if i%2 == 0 {
			a.Record(d)
		} else {
			b.Record(d)
		}
		both.Record(d)
	}

	sa := a.Snapshot()
	// JSON round trip: the bucket list must survive the wire.
	wire, err := json.Marshal(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var sb Snapshot
	if err := json.Unmarshal(wire, &sb); err != nil {
		t.Fatal(err)
	}

	sa.Merge(sb)
	want := both.Snapshot()
	if sa.Count != want.Count || sa.SumNS != want.SumNS || sa.MaxNS != want.MaxNS {
		t.Fatalf("merged totals %+v != combined %+v", sa, want)
	}
	if len(sa.Buckets) != len(want.Buckets) {
		t.Fatalf("merged %d buckets, combined %d", len(sa.Buckets), len(want.Buckets))
	}
	for i := range sa.Buckets {
		if sa.Buckets[i] != want.Buckets[i] {
			t.Fatalf("bucket %d: merged %v, combined %v", i, sa.Buckets[i], want.Buckets[i])
		}
	}
	if sa.P99NS != want.P99NS {
		t.Fatalf("merged p99 %d != combined p99 %d", sa.P99NS, want.P99NS)
	}
}

// TestConcurrentRecordMergeSnapshot is the race-clean test the tentpole
// requires: many goroutines record into shared histograms while others
// snapshot and merge continuously; afterwards every recorded observation
// is accounted for.
func TestConcurrentRecordMergeSnapshot(t *testing.T) {
	reg := NewRegistry()
	const writers, perWriter = 8, 2000
	stop := make(chan struct{})
	var snapshots sync.WaitGroup
	for i := 0; i < 2; i++ {
		snapshots.Add(1)
		go func() {
			defer snapshots.Done()
			var acc Snapshot
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range reg.Snapshot().Stages {
					acc.Merge(s)
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stage := fmt.Sprintf("stage-%d", w%2)
			for i := 0; i < perWriter; i++ {
				reg.Observe(context.Background(), stage, time.Duration(i)*time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapshots.Wait()

	var total int64
	var bucketTotal int64
	for _, s := range reg.Snapshot().Stages {
		total += s.Count
		for _, b := range s.Buckets {
			bucketTotal += b[1]
		}
	}
	if want := int64(writers * perWriter); total != want || bucketTotal != want {
		t.Fatalf("count %d / bucket sum %d after concurrent records, want %d", total, bucketTotal, want)
	}
}

// TestNilSafety pins the nil contracts components lean on: a nil
// registry, trace and ring all absorb calls without panicking.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	reg.Observe(context.Background(), StageSolve, time.Millisecond)
	if s := reg.Snapshot(); s.Stages != nil || s.Windows != nil {
		t.Fatalf("nil registry snapshot = %+v", s)
	}
	var tr *Trace
	tr.Stage(StageSolve, time.Millisecond)
	tr.Annotate("k", "v")
	if tr.Stages() != nil || tr.Attrs() != nil {
		t.Fatal("nil trace leaked data")
	}
	var ring *SlowRing
	ring.Add(SlowEntry{})
	if ring.Snapshot() != nil || ring.Total() != 0 {
		t.Fatal("nil ring leaked data")
	}
	if id := RequestIDFrom(context.Background()); id != "" {
		t.Fatalf("traceless context has request id %q", id)
	}
}

// TestTraceContext pins context propagation and annotation semantics.
func TestTraceContext(t *testing.T) {
	tr := NewTrace("req-1")
	ctx := WithTrace(context.Background(), tr)
	if got := RequestIDFrom(ctx); got != "req-1" {
		t.Fatalf("request id %q, want req-1", got)
	}
	reg := NewRegistry()
	reg.Observe(ctx, StageSolve, 5*time.Millisecond)
	reg.Observe(ctx, StageStoreWrite, time.Millisecond)
	st := tr.Stages()
	if len(st) != 2 || st[0].Stage != StageSolve || st[1].Stage != StageStoreWrite {
		t.Fatalf("trace stages = %+v", st)
	}
	tr.Annotate("key", "a")
	tr.Annotate("source", "store")
	tr.Annotate("key", "b") // last write wins, position preserved
	if got := tr.Attrs(); len(got) != 4 || got[0] != "key" || got[1] != "b" || got[2] != "source" {
		t.Fatalf("attrs = %v", got)
	}
	if a, b := NewRequestID(), NewRequestID(); a == b || len(a) != 16 {
		t.Fatalf("request ids %q / %q not unique 16-hex", a, b)
	}
}

// TestSlowRing pins ring semantics: newest first, bounded, total keeps
// counting past eviction.
func TestSlowRing(t *testing.T) {
	r := NewSlowRing(3)
	for i := 1; i <= 5; i++ {
		r.Add(SlowEntry{ID: fmt.Sprintf("r%d", i)})
	}
	got := r.Snapshot()
	if len(got) != 3 || got[0].ID != "r5" || got[1].ID != "r4" || got[2].ID != "r3" {
		t.Fatalf("ring snapshot = %+v, want r5,r4,r3", got)
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d, want 5", r.Total())
	}
	partial := NewSlowRing(8)
	partial.Add(SlowEntry{ID: "a"})
	partial.Add(SlowEntry{ID: "b"})
	if got := partial.Snapshot(); len(got) != 2 || got[0].ID != "b" {
		t.Fatalf("partial ring = %+v, want b,a", got)
	}
}

// TestWriteMetrics pins the exposition format: deterministic order,
// TYPE lines, cumulative le buckets ending in +Inf.
func TestWriteMetrics(t *testing.T) {
	var h Histogram
	h.Record(3 * time.Millisecond)
	h.Record(5 * time.Millisecond)
	var sb strings.Builder
	err := WriteMetrics(&sb, "lowlat",
		[]Metric{
			{Name: "lowlat_place_requests_total", Kind: "counter", Value: 7},
			{Name: "lowlat_store_cells", Kind: "gauge", Value: 3},
		},
		map[string]Snapshot{StageSolve: h.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE lowlat_place_requests_total counter\nlowlat_place_requests_total 7\n",
		"# TYPE lowlat_store_cells gauge\nlowlat_store_cells 3\n",
		"# TYPE lowlat_stage_latency_seconds histogram\n",
		`lowlat_stage_latency_seconds_bucket{stage="solve",le="+Inf"} 2`,
		`lowlat_stage_latency_seconds_count{stage="solve"} 2`,
		`lowlat_stage_latency_seconds_sum{stage="solve"} 0.008`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
	// Cumulative buckets: the +Inf count equals the total and the last
	// finite bucket's cumulative count.
	if strings.Count(out, `stage="solve"`) < 4 {
		t.Fatalf("expected le buckets for solve:\n%s", out)
	}
}
