package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"lowlat/bench/internal/stat"
)

// drawSequence is what a workload does per request: a class, then a key.
func drawSequence(seed int64, caller, n int) [][2]int {
	rng := Stream(seed, caller)
	mix := NewMix(60, 20, 12, 8)
	z := NewZipf(2048, 1.1)
	perm := Permutation(seed, 2048)
	out := make([][2]int, n)
	for i := range out {
		out[i] = [2]int{mix.Class(rng.Float64()), perm[z.Rank(rng.Float64())]}
	}
	return out
}

func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	a, b := drawSequence(42, 0, 500), drawSequence(42, 0, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and caller drew different request sequences")
	}
	if reflect.DeepEqual(a, drawSequence(43, 0, 500)) {
		t.Error("seeds 42 and 43 drew the same sequence")
	}
	if reflect.DeepEqual(a, drawSequence(42, 1, 500)) {
		t.Error("callers 0 and 1 drew the same sequence")
	}
}

func TestZipfAndMixShapes(t *testing.T) {
	z := NewZipf(2048, 1.1)
	rng := Stream(1, 0)
	const n = 200000
	var top, top512 int
	for i := 0; i < n; i++ {
		r := z.Rank(rng.Float64())
		if r == 0 {
			top++
		}
		if r < 512 {
			top512++
		}
	}
	// Analytically rank 0 holds 1/H(2048,1.1) ~ 16.9% and the first 512
	// ranks ~ 88% of the mass: a 512-entry LRU in front of 2048 keys.
	if f := float64(top) / n; f < 0.16 || f > 0.18 {
		t.Errorf("rank 0 drew %.3f of requests; want ~0.169", f)
	}
	if f := float64(top512) / n; f < 0.86 || f > 0.90 {
		t.Errorf("ranks <512 drew %.3f of requests; want ~0.88", f)
	}
	mix := NewMix(60, 20, 12, 8)
	counts := make([]int, 4)
	for i := 0; i < n; i++ {
		counts[mix.Class(rng.Float64())]++
	}
	for i, want := range []float64{0.60, 0.20, 0.12, 0.08} {
		if f := float64(counts[i]) / n; f < want-0.01 || f > want+0.01 {
			t.Errorf("class %d share %.3f; want %.2f", i, f, want)
		}
	}
}

// TestOpenLoopChargesStallFromDueTime: a server that stalls once for
// 50 ms delays every request scheduled behind it on that connection. A
// generator timing from the send instant would report one slow request;
// timing from the due instant, the stall reaches the p99.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 200 {
			time.Sleep(50 * time.Millisecond)
		}
	}))
	defer srv.Close()
	client := srv.Client()
	do := func(ctx context.Context, _, _ int) Outcome {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		if err != nil {
			return Outcome{}
		}
		resp, err := client.Do(req)
		if err != nil {
			return Outcome{}
		}
		resp.Body.Close()
		return Outcome{OK: true}
	}
	// 2000 req/s on one sender for 1 s: the 50 ms stall backs up ~100
	// requests, 5% of the phase — well past the p99.
	ph := Open(context.Background(), 1, 2000, time.Second, do)
	if len(ph.Samples) != ph.Offered || ph.Offered != 2000 {
		t.Fatalf("issued %d of %d offered requests", len(ph.Samples), ph.Offered)
	}
	lat := make([]float64, len(ph.Samples))
	var backlogged int
	for i, s := range ph.Samples {
		if !s.OK {
			t.Fatal("request failed")
		}
		lat[i] = float64(s.LatNs) / 1e6
		if s.BacklogNs > int64(5*time.Millisecond) {
			backlogged++
		}
	}
	p99, ok := stat.Percentile(stat.Sorted(lat), 0.99)
	if !ok || p99 < 25 {
		t.Errorf("open-loop p99 = %.2f ms (supported=%v); the 50 ms stall must show in it", p99, ok)
	}
	if p50 := stat.Median(lat); p50 > 10 {
		t.Errorf("open-loop p50 = %.2f ms; the stall should not reach the median", p50)
	}
	if backlogged < 40 {
		t.Errorf("%d requests waited >5 ms for their sender; want the ~100 queued behind the stall", backlogged)
	}
}

func TestClosedLoopWaitsForReplies(t *testing.T) {
	var inflight, maxInflight atomic.Int64
	do := func(context.Context, int, int) Outcome {
		if v := inflight.Add(1); v > maxInflight.Load() {
			maxInflight.Store(v)
		}
		time.Sleep(time.Millisecond)
		inflight.Add(-1)
		return Outcome{OK: true}
	}
	ph := Closed(context.Background(), 2, 100*time.Millisecond, do)
	if maxInflight.Load() > 2 {
		t.Errorf("%d requests in flight with 2 callers", maxInflight.Load())
	}
	if len(ph.Samples) < 20 || len(ph.Samples) > 200 {
		t.Errorf("closed loop completed %d requests in 100 ms at >=1 ms each", len(ph.Samples))
	}
}
