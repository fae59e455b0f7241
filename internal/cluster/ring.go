package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring over replica indices. Each replica
// contributes vnodes points, hashed from "<label>#<vnode>"; a key is
// owned by the replica of the first point clockwise from the key's hash.
// Virtual nodes smooth the load split (a handful of raw points would
// carve the 64-bit circle into wildly unequal arcs), and the
// label-derived point set makes ownership a pure function of (labels,
// vnodes, key) — every client of the same cluster config routes every
// key identically, with no coordination.
//
// Adding or removing one replica moves only the keys whose owning arcs
// it gains or loses — about 1/n of the keyspace — which is the property
// that makes growing a landscape-serving cluster cheap: the ROADMAP's
// content-addressed cell table redistributes incrementally instead of
// reshuffling wholesale.
type ring struct {
	points []ringPoint // sorted by hash
	n      int         // replica count
}

type ringPoint struct {
	hash    uint64
	replica int
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer. Raw FNV of near-identical strings
// ("replica-0#17", "replica-0#18", ...) lands clustered on the circle —
// measured up to 1.8x fair share at 64 vnodes — because FNV's avalanche
// is weak in the high bits that ring ordering sorts by. The finalizer
// spreads each point uniformly, which the balance test pins.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// newRing builds the ring for n replicas named by labels (len(labels) ==
// n), with vnodes points per replica.
func newRing(labels []string, vnodes int) *ring {
	r := &ring{n: len(labels)}
	r.points = make([]ringPoint, 0, len(labels)*vnodes)
	for i, label := range labels {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hash64(fmt.Sprintf("%s#%d", label, v)),
				replica: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		pa, pb := r.points[a], r.points[b]
		if pa.hash != pb.hash {
			return pa.hash < pb.hash
		}
		// Hash ties (astronomically rare) break by replica index so the
		// ring is still a pure function of its inputs.
		return pa.replica < pb.replica
	})
	return r
}

// successor finds the first point at or clockwise of h.
func (r *ring) successor(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap
	}
	return i
}

// owners returns the key's first r distinct replicas in ring order —
// the replication set: under R-way ownership a cell is written to every
// one of them, so losing any R-1 of them still leaves a copy. r is
// clamped to the replica count.
func (r *ring) owners(key string, count int) []int {
	if count > r.n {
		count = r.n
	}
	return r.seq(key)[:count]
}

// seq returns every replica exactly once, in ring order starting at the
// key's owner — the failover order: when the owner is down its keys
// belong to the next distinct replica clockwise.
func (r *ring) seq(key string) []int {
	out := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	start := r.successor(hash64(key))
	for i := 0; len(out) < r.n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			out = append(out, p.replica)
		}
	}
	return out
}
