package serve

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"lowlat/internal/backend"
	"lowlat/internal/store"
)

// TestBackoffSchedule pins the deterministic delay sequence: exponential
// from Base, capped at Max, jitter drawn from the seeded source — two
// equal policies produce identical schedules.
func TestBackoffSchedule(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: 450 * time.Millisecond, Jitter: 0.5, Seed: 7}
	a1 := rand.New(rand.NewSource(7))
	a2 := rand.New(rand.NewSource(7))
	for n := 1; n <= 6; n++ {
		d1 := b.Delay(n, a1)
		d2 := b.Delay(n, a2)
		if d1 != d2 {
			t.Fatalf("retry %d: delay %v vs %v from equal seeds", n, d1, d2)
		}
		// The undithered delay for retry n is min(Max, Base·2^(n-1));
		// jitter only ever shrinks it, by at most half.
		full := b.Base << (n - 1)
		if full > b.Max {
			full = b.Max
		}
		if d1 > full || d1 < full/2 {
			t.Fatalf("retry %d: delay %v outside (%v/2, %v]", n, d1, full, full)
		}
	}
}

// TestBackoffRetries429 pins the Do contract: 429s retry up to Attempts
// with recorded (not slept) delays, success stops the loop, and
// non-retryable errors surface immediately.
func TestBackoffRetries429(t *testing.T) {
	var slept []time.Duration
	b := Backoff{
		Attempts: 4,
		Base:     10 * time.Millisecond,
		Seed:     1,
		Sleep: func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	overloaded := &StatusError{Code: http.StatusTooManyRequests, Message: "busy"}

	// Succeeds on the third attempt: two sleeps, nil error.
	calls := 0
	err := b.Do(context.Background(), RetryableStatus, nil, func() error {
		calls++
		if calls < 3 {
			return overloaded
		}
		return nil
	})
	if err != nil || calls != 3 || len(slept) != 2 {
		t.Fatalf("Do = %v after %d calls, %d sleeps; want success on 3rd call", err, calls, len(slept))
	}

	// Never succeeds: Attempts calls, the last 429 surfaces.
	calls, slept = 0, nil
	err = b.Do(context.Background(), RetryableStatus, nil, func() error { calls++; return overloaded })
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 429 || calls != 4 || len(slept) != 3 {
		t.Fatalf("exhausted Do = %v after %d calls, %d sleeps; want the 429 after 4 attempts", err, calls, len(slept))
	}

	// A non-retryable error is terminal on the first call.
	calls = 0
	boom := &StatusError{Code: http.StatusBadRequest, Message: "bad"}
	err = b.Do(context.Background(), RetryableStatus, nil, func() error { calls++; return boom })
	if !errors.As(err, &se) || se.Code != 400 || calls != 1 {
		t.Fatalf("non-retryable Do = %v after %d calls, want immediate 400", err, calls)
	}
}

// TestBackoffHonorsContext pins cancellation: a context that dies during
// the wait stops the loop, and the error carries both the cancellation
// and the last 429.
func TestBackoffHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := Backoff{
		Attempts: 5,
		Base:     time.Millisecond,
		Seed:     1,
		Sleep: func(ctx context.Context, _ time.Duration) error {
			cancel()
			return ctx.Err()
		},
	}
	overloaded := &StatusError{Code: http.StatusTooManyRequests, Message: "busy"}
	calls := 0
	err := b.Do(ctx, RetryableStatus, nil, func() error { calls++; return overloaded })
	if calls != 1 {
		t.Fatalf("%d calls after cancellation, want 1", calls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 429 {
		t.Fatalf("err = %v, want the last 429 preserved in the chain", err)
	}
}

// TestRemoteBackoffOn429 drives a Remote against a server that answers
// 429 twice before serving, and pins that the backend absorbs the
// backpressure invisibly: one successful Place, two recorded retries.
func TestRemoteBackoffOn429(t *testing.T) {
	st := openStore(t)
	inner, _ := newTestServer(t, backend.NewLocal(st, backend.LocalOptions{Workers: 1}), Options{})
	var rejected atomic.Int64
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/place" && rejected.Add(1) <= 2 {
			writeError(w, errf(http.StatusTooManyRequests, "synthetic backpressure"))
			return
		}
		inner.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(gate.Close)

	var slept []time.Duration
	remote := NewRemote(NewClient(gate.URL), RemoteOptions{
		Retry: Backoff{
			Attempts: 4,
			Base:     5 * time.Millisecond,
			Seed:     3,
			Sleep:    func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil },
		},
	})
	res, src, err := remote.PlaceSourced(context.Background(), store.CellSpec{Net: "star-6", Seed: 1, Scheme: "sp", Locality: 1})
	if err != nil {
		t.Fatal(err)
	}
	if src != backend.SourceComputed {
		t.Fatalf("source %q, want computed", src)
	}
	if len(slept) != 2 {
		t.Fatalf("%d backoff sleeps, want 2 (one per 429)", len(slept))
	}
	if res.Meta.Net != "star-6" {
		t.Fatalf("result %+v", res)
	}
	if s := remote.Stats(); s.Retried != 2 {
		t.Fatalf("stats.Retried = %d, want 2", s.Retried)
	}
}

// TestRemoteClassifiesErrors pins the error taxonomy cluster routing
// depends on: a daemon application error passes through as a
// StatusError, a dead daemon wraps backend.ErrUnavailable.
func TestRemoteClassifiesErrors(t *testing.T) {
	st := openStore(t)
	_, c := newTestServer(t, backend.NewLocal(st, backend.LocalOptions{Workers: 1}), Options{})
	remote := NewRemote(c, RemoteOptions{})

	// Application error: bad spec → 400 StatusError, not unavailable.
	_, err := remote.Place(context.Background(), store.CellSpec{Net: "star-6", Seed: 1, Scheme: "frob", Locality: 1})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("bad-scheme err = %v, want 400 StatusError", err)
	}
	if errors.Is(err, backend.ErrUnavailable) {
		t.Fatal("application error misclassified as unavailable")
	}

	// Dead daemon: transport failure → ErrUnavailable.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	gone := NewRemote(NewClient(dead.URL), RemoteOptions{Timeout: 2 * time.Second})
	_, err = gone.Place(context.Background(), store.CellSpec{Net: "star-6", Seed: 1, Scheme: "sp", Locality: 1})
	if !errors.Is(err, backend.ErrUnavailable) {
		t.Fatalf("dead-daemon err = %v, want ErrUnavailable", err)
	}
	if err := gone.Probe(context.Background()); !errors.Is(err, backend.ErrUnavailable) {
		t.Fatalf("dead-daemon probe = %v, want ErrUnavailable", err)
	}

	// Live daemon probes clean.
	if err := remote.Probe(context.Background()); err != nil {
		t.Fatalf("live probe: %v", err)
	}
}
