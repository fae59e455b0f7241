package backend

import (
	"context"
	"testing"
)

// TestFlightPanicReleasesKey pins the daemon-survival property: a panic
// in a flight leader resolves the flight with an error for its followers
// and frees the key, so the next request for it runs fresh instead of
// joining a flight that will never finish.
func TestFlightPanicReleasesKey(t *testing.T) {
	g := newFlightGroup()
	follower := make(chan error, 1)
	started := make(chan struct{})
	joined := make(chan struct{})
	go func() {
		<-started
		_, err := g.do(context.Background(), "k", func() (outcome, error) {
			t.Error("follower became a leader while the panicking flight ran")
			return outcome{}, nil
		}, func() { close(joined) })
		follower <- err
	}()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate")
			}
		}()
		g.do(context.Background(), "k", func() (outcome, error) {
			close(started)
			<-joined // the follower is on this flight before it blows up
			panic("solver exploded")
		}, nil)
	}()

	if err := <-follower; err == nil {
		t.Fatal("follower of a panicked flight got a nil error")
	}
	// The key is free again: a fresh do() runs its own fn.
	ran := false
	if _, err := g.do(context.Background(), "k", func() (outcome, error) {
		ran = true
		return outcome{}, nil
	}, nil); err != nil || !ran {
		t.Fatalf("post-panic flight: ran=%v err=%v", ran, err)
	}
}
