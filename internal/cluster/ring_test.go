package cluster

import (
	"fmt"
	"testing"
)

// owner returns the replica index owning key: the point at or clockwise
// of its hash, independently of seq's walk.
func (r *ring) owner(key string) int {
	return r.points[r.successor(hash64(key))].replica
}

// testKeys returns n deterministic key strings shaped like the real ring
// inputs (cell-spec strings and cell-key strings are both short ASCII).
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("net-%d|%d|sp|0|0.77|1", i%97, i)
	}
	return keys
}

func labels(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://replica-%d:8080", i)
	}
	return out
}

// TestRingDeterminism pins that ownership is a pure function of (labels,
// vnodes, key): two independently built rings route every key
// identically, and rebuilding with a different vnode count is allowed to
// differ (it is a different configuration).
func TestRingDeterminism(t *testing.T) {
	keys := testKeys(2000)
	a := newRing(labels(5), 64)
	b := newRing(labels(5), 64)
	for _, k := range keys {
		if a.owner(k) != b.owner(k) {
			t.Fatalf("key %q: owner %d vs %d across identical rings", k, a.owner(k), b.owner(k))
		}
	}
	// seq starts at the owner and covers every replica exactly once.
	for _, k := range keys[:50] {
		seq := a.seq(k)
		if len(seq) != 5 || seq[0] != a.owner(k) {
			t.Fatalf("key %q: seq %v (owner %d)", k, seq, a.owner(k))
		}
		seen := make(map[int]bool)
		for _, r := range seq {
			if seen[r] {
				t.Fatalf("key %q: replica %d twice in seq %v", k, r, seq)
			}
			seen[r] = true
		}
	}
}

// TestRingBalance checks the key split across 2..8 replicas with a
// chi-square-style bound: with 64 vnodes per replica the per-replica
// share must stay near uniform. The keys and labels are fixed, so the
// bound is a regression pin, not a statistical gamble.
func TestRingBalance(t *testing.T) {
	keys := testKeys(20000)
	for n := 2; n <= 8; n++ {
		r := newRing(labels(n), 64)
		counts := make([]int, n)
		for _, k := range keys {
			counts[r.owner(k)]++
		}
		expected := float64(len(keys)) / float64(n)
		chi2 := 0.0
		for i, c := range counts {
			d := float64(c) - expected
			chi2 += d * d / expected
			// Every replica within ±40% of fair share: consistent hashing
			// with 64 vnodes concentrates much tighter than this in
			// practice; the loose bound keeps the pin robust to future
			// hash tweaks while still catching a broken ring (one replica
			// owning ~everything blows through it immediately).
			if ratio := float64(c) / expected; ratio < 0.6 || ratio > 1.4 {
				t.Errorf("%d replicas: replica %d owns %d keys (%.2fx fair share %v)", n, i, c, ratio, counts)
			}
		}
		// Chi-square against a uniform split: a healthy 64-vnode ring
		// lands orders of magnitude below this.
		if limit := expected * float64(n) * 0.05; chi2 > limit {
			t.Errorf("%d replicas: chi2 %.1f > %.1f (counts %v)", n, chi2, limit, counts)
		}
	}
}

// TestRingMinimalMovement pins the consistent-hashing contract: adding a
// replica only moves keys onto the new replica (never between old ones),
// removing one only moves its own keys, and the moved fraction is near
// 1/n.
func TestRingMinimalMovement(t *testing.T) {
	keys := testKeys(20000)
	before := newRing(labels(4), 64)
	grownLabels := append(labels(4), "http://replica-new:8080")
	after := newRing(grownLabels, 64)

	moved := 0
	for _, k := range keys {
		ob, oa := before.owner(k), after.owner(k)
		if ob != oa {
			if oa != 4 {
				t.Fatalf("key %q moved from replica %d to old replica %d when adding a 5th", k, ob, oa)
			}
			moved++
		}
	}
	frac := float64(moved) / float64(len(keys))
	// Ideal movement is 1/5 of the keyspace; allow vnode-level slack.
	if frac < 0.10 || frac > 0.32 {
		t.Errorf("adding 5th replica moved %.1f%% of keys, want ~20%%", 100*frac)
	}

	// Removal is the mirror image: only the removed replica's keys move.
	shrunk := newRing(labels(3), 64) // drop replica-3 from the 4-ring
	for _, k := range keys {
		ob := before.owner(k)
		os := shrunk.owner(k)
		if ob != 3 && os != ob {
			t.Fatalf("key %q moved from surviving replica %d to %d when removing replica 3", k, ob, os)
		}
	}
}
