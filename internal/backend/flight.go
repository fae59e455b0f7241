package backend

import (
	"context"
	"errors"
	"sync"

	"lowlat/internal/store"
)

// errLeaderPanicked is what the followers of a flight receive when its
// leader panicked instead of returning; the HTTP layer renders it as 500.
var errLeaderPanicked = errors.New("request leader panicked; see server log")

// outcome is what one place flight resolves to: the result and where it
// came from ("store", "computed", "predicted").
type outcome struct {
	source Source
	result store.Result
}

// flight is one in-progress dispatch shared by every caller that asked
// for the same key while it ran.
type flight struct {
	done chan struct{}
	val  outcome
	err  error
}

// flightGroup coalesces duplicate work: for each key, at most one fn runs
// at a time, and callers that arrive while it runs wait for its result
// instead of starting their own. This is the property the daemon's
// acceptance test pins — N concurrent requests for one missing cell, one
// engine invocation.
//
// Unlike a memoizing cache, a finished flight is forgotten immediately;
// permanence is the store's and the LRU's job.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight // guarded by mu
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// do runs fn once per key across concurrent callers. The follower hook
// runs (outside the lock) for each caller that joined an existing flight
// rather than leading its own; followers stop waiting when their own ctx
// dies, but the flight itself runs on — the leader owns it.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (outcome, error), follower func()) (outcome, error) {
	g.mu.Lock()
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		if follower != nil {
			follower()
		}
		select {
		case <-f.done:
			return f.val, f.err
		case <-ctx.Done():
			return outcome{}, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	// The flight must resolve even if fn panics (net/http recovers a
	// handler's goroutine and engine.Stream a sweep worker's, but nothing
	// would recover the followers): convert the panic into an error for
	// them, release the key so the next caller retries, and let the
	// panic keep propagating.
	completed := false
	defer func() {
		if !completed {
			f.err = errLeaderPanicked
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = fn()
	completed = true
	return f.val, f.err
}
