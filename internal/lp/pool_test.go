package lp

import (
	"math/rand"
	"sync"
	"testing"
)

// TestPooledSolves fences the pool behind Solve against its one failure:
// a buffer that a later solve overwrites while something still points
// into it. Eight goroutines solve the same few dozen distinct LPs, small
// and large, through Solve, each in its own order, and every outcome must
// equal bit for bit a sequential solve in a fresh workspace. Each
// goroutine keeps every Solution and checks the one from solve k again
// after solves k+1 to k+20, and all of them at the end.
func TestPooledSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var probs []*Problem
	for i := 0; i < 32; i++ {
		probs = append(probs, randomLP(rng))
	}
	for i := 0; i < 8; i++ {
		probs = append(probs, growingLP(int64(100+i), 10+6*i, 6+4*i))
	}
	type outcome struct {
		sol *Solution
		err error
	}
	want := make([]outcome, len(probs))
	for i, p := range probs {
		want[i].sol, want[i].err = p.SolveIn(new(Workspace))
	}

	const window = 20
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			order := rand.New(rand.NewSource(int64(g))).Perm(len(probs))
			kept := make([]outcome, len(order))
			check := func(k int, when string) {
				i, w := order[k], want[order[k]]
				if err := sameSolution(w.sol, w.err, kept[k].sol, kept[k].err); err != nil {
					t.Errorf("goroutine %d, solve %d (LP %d) %s: %v", g, k, i, when, err)
				}
			}
			for k, i := range order {
				kept[k].sol, kept[k].err = probs[i].Solve()
				check(k, "as returned")
				if k >= window {
					check(k-window, "20 solves later")
				}
			}
			for k := range order {
				check(k, "at the end")
			}
		}(g)
	}
	wg.Wait()
}
