package loadgen

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// Outcome is what one request reports back to the driver.
type Outcome struct {
	// OK is false for a failed, refused, wrong or timed-out request.
	OK bool
	// Class is the request's traffic class (0 when the workload has one).
	Class int
	// Source is a workload-defined code for where the answer came from.
	Source int
	// Why says what was wrong with a request that is not OK.
	Why string
}

// Sample is one request as the generator saw it.
type Sample struct {
	Outcome
	// DoneNs is when the reply arrived, since the phase started.
	DoneNs int64
	// LatNs is the request's latency: from send in a closed loop, from
	// the due instant in an open loop.
	LatNs int64
	// LagNs is the generator's own lateness, open loop only: actual send
	// minus max(due, the instant the sender became free).
	LagNs int64
	// BacklogNs is how long a due request waited for its sender to come
	// back from the previous reply, open loop only. It is the system's
	// doing, and it is inside LatNs.
	BacklogNs int64
}

// Do issues request seq of one caller and reports its outcome. Callers
// run concurrently; seq counts from 0 per caller.
type Do func(ctx context.Context, caller, seq int) Outcome

// Phase is the record of one driven phase.
type Phase struct {
	Samples []Sample
	// Wall is the phase's wall time, first send to last reply.
	Wall time.Duration
	// Offered is the open-loop schedule's request count (0 closed loop).
	Offered int
}

// Closed drives a closed loop: callers goroutines each issue their next
// request only after the previous one completed, for d. A slow system
// therefore receives less load — the shape of `lowlat sweep -addr`.
func Closed(ctx context.Context, callers int, d time.Duration, do Do) Phase {
	per := make([][]Sample, callers)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; ctx.Err() == nil && time.Now().Before(deadline); seq++ {
				t0 := time.Now()
				out := do(ctx, c, seq)
				done := time.Now()
				per[c] = append(per[c], Sample{Outcome: out, DoneNs: done.Sub(start).Nanoseconds(), LatNs: done.Sub(t0).Nanoseconds()})
			}
		}(c)
	}
	wg.Wait()
	return Phase{Samples: flatten(per), Wall: time.Since(start)}
}

// spinWindow is how close to the due instant a sender stops sleeping and
// starts yielding in a loop. Timers on the VM this was sized on tick at
// about a millisecond: a 5 ms sleep overshoots by 0.23 ms at the median
// and up to 1 ms, a 100 us sleep takes 1.1 ms. At thousands of requests
// per second that is several service times, so the last stretch is spun.
const spinWindow = 1200 * time.Microsecond

// Open drives an open loop at a fixed rate for d: request i is due at
// start + i/rate regardless of how the system is doing, sender i mod
// senders issues it, and its latency counts from the due instant. Each
// sender has one request outstanding at a time (one connection), so a
// stall delays that sender's later requests — and the delay is charged
// to them as backlog, inside their latency.
func Open(ctx context.Context, senders int, rate float64, d time.Duration, do Do) Phase {
	total := int(rate * d.Seconds())
	period := time.Duration(float64(time.Second) / rate)
	per := make([][]Sample, senders)
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			seq := 0
			for i := s; i < total && ctx.Err() == nil; i, seq = i+senders, seq+1 {
				due := start.Add(time.Duration(i) * period)
				free := time.Now()
				waitUntil(due)
				sent := time.Now()
				out := do(ctx, s, seq)
				done := time.Now()
				ready := due
				if free.After(due) {
					ready = free
				}
				per[s] = append(per[s], Sample{
					Outcome:   out,
					DoneNs:    done.Sub(start).Nanoseconds(),
					LatNs:     done.Sub(due).Nanoseconds(),
					LagNs:     sent.Sub(ready).Nanoseconds(),
					BacklogNs: ready.Sub(due).Nanoseconds(),
				})
			}
		}(s)
	}
	wg.Wait()
	return Phase{Samples: flatten(per), Wall: time.Since(start), Offered: total}
}

// waitUntil sleeps to within spinWindow of due, then yields until it.
func waitUntil(due time.Time) {
	for {
		left := time.Until(due)
		if left <= 0 {
			return
		}
		if left > spinWindow {
			time.Sleep(left - spinWindow)
			continue
		}
		runtime.Gosched()
	}
}

func flatten(per [][]Sample) []Sample {
	var n int
	for _, p := range per {
		n += len(p)
	}
	out := make([]Sample, 0, n)
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}
