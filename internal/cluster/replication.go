package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"lowlat/internal/backend"
	"lowlat/internal/obs"
	"lowlat/internal/store"
)

// This file is the replication machinery behind Options.Replicas > 1:
// the last-write-wins order every convergence path folds by, the
// hinted-handoff queue that carries writes across a replica's downtime,
// and the anti-entropy Heal sweep that copies orphaned cells back onto
// the owners missing them. cluster.go routes; this file heals.

// lww picks the deterministic last-write-wins winner between two copies
// of one cell. The store carries no write timestamps — cells are
// content-addressed and rewrites are rare — so "last" is defined as the
// greater canonical wire encoding (store.MarshalResult bytes, compared
// lexicographically). The order is total and fixed: every replica,
// read-repair, query merge and heal folds any set of copies to the same
// winner in any order, which is the property that makes the cluster
// converge instead of ping-ponging repairs.
func lww(a, b store.Result) store.Result {
	if a == b {
		return a
	}
	ab, aerr := store.MarshalResult(a)
	bb, berr := store.MarshalResult(b)
	if aerr != nil || berr != nil {
		// Unmarshalable results cannot come from the wire or a store; fold
		// arbitrarily-but-deterministically toward a.
		return a
	}
	if bytes.Compare(bb, ab) > 0 {
		return b
	}
	return a
}

// queueHint records a write bound for a down replica: FIFO, deduplicated
// by content key in place (a newer copy of a queued cell replaces it,
// folded by lww, without losing its drain position), bounded by
// HandoffLimit with oldest-first drop. Dropped hints are not lost data —
// the serving replica holds the cell — they are lost *delivery*, which
// the next Heal sweep repeats.
func (c *Backend) queueHint(i int, r store.Result) {
	if r.Key == (store.CellKey{}) {
		return
	}
	c.hmu[i].Lock()
	defer c.hmu[i].Unlock()
	for j := range c.hints[i] {
		if c.hints[i][j].Key == r.Key {
			c.hints[i][j] = lww(c.hints[i][j], r)
			return
		}
	}
	if len(c.hints[i]) >= c.opts.HandoffLimit {
		c.hints[i] = c.hints[i][1:]
		c.hintsDropped.Add(1)
		c.journal.Record(obs.EventHintDropped, c.labels[i], "handoff queue full; oldest hint shed")
	}
	c.hints[i] = append(c.hints[i], r)
	c.hintsQueued.Add(1)
	c.journal.Record(obs.EventHintQueued, c.labels[i], "key "+r.Key.String())
}

// drainHints delivers replica i's queued hints in FIFO order — called on
// every down→up transition, before the replica sees new traffic. If the
// replica fails again mid-drain the undelivered tail re-queues at the
// front (order preserved) and the replica is re-marked down.
func (c *Backend) drainHints(i int) {
	c.hmu[i].Lock()
	pending := c.hints[i]
	c.hints[i] = nil
	c.hmu[i].Unlock()
	if len(pending) == 0 {
		return
	}
	delivered := 0
	defer func() {
		if delivered > 0 {
			c.journal.Record(obs.EventHintDrained, c.labels[i],
				fmt.Sprintf("%d of %d queued hints delivered", delivered, len(pending)))
		}
	}()
	for n, r := range pending {
		if err := c.putTo(i, r); err != nil {
			if c.writeFailed(i, err, "hint drain failed") {
				c.hmu[i].Lock()
				c.hints[i] = append(pending[n:], c.hints[i]...)
				c.hmu[i].Unlock()
				return
			}
			// A structural refusal (read-only replica): drop the hint.
			c.hintsDropped.Add(1)
			continue
		}
		c.hintsDrained.Add(1)
		delivered++
	}
}

// hintsPending gauges the total queued hints across replicas.
func (c *Backend) hintsPending() int {
	n := 0
	for i := range c.hints {
		c.hmu[i].Lock()
		n += len(c.hints[i])
		c.hmu[i].Unlock()
	}
	return n
}

// HealReport summarizes one anti-entropy sweep.
type HealReport struct {
	// Skipped is true when the digest gate fired: every replica's key
	// digest matched the last completed sweep and no hints were pending,
	// so the sweep exchanged no key lists and copied nothing.
	Skipped bool `json:"skipped,omitempty"`
	// Replicas is how many replicas answered the key exchange.
	Replicas int `json:"replicas"`
	// Keys is the size of the union key set across answering replicas.
	Keys int `json:"keys"`
	// Healed counts cells copied onto owners that were missing them.
	Healed int `json:"healed"`
	// Drained counts hinted writes delivered by this sweep's pre-drain.
	Drained int `json:"drained"`
	// Failed counts copy attempts that errored (target down mid-sweep,
	// read-only target); the next sweep retries them.
	Failed int `json:"failed"`
}

// Heal runs one anti-entropy sweep: drain pending hints, exchange every
// healthy replica's key inventory, and copy each cell to the owners in
// its replication set that are missing it (fetched from any replica that
// holds it). Only *missing* cells are healed — divergent copies converge
// through read-repair on the next Lookup, so a sweep never rewrites data
// a replica already has. Cheap when idle: per-replica key digests are
// compared first, and an unchanged cluster with no pending hints skips
// the key exchange entirely. One sweep runs at a time; concurrent calls
// serialize.
func (c *Backend) Heal(ctx context.Context) (HealReport, error) {
	c.healMu.Lock()
	defer c.healMu.Unlock()
	c.healSweeps.Add(1)
	t0 := time.Now()
	defer func() { c.obs.Observe(ctx, obs.StageHeal, time.Since(t0)) }()

	var rep HealReport
	drainedBefore := c.hintsDrained.Load()
	for i := range c.replicas {
		if c.healthy(i) {
			c.drainHints(i)
		}
	}
	rep.Drained = int(c.hintsDrained.Load() - drainedBefore)

	// Digest gate: ask each healthy replica for its key-set digest; if
	// every one matches the last completed sweep and nothing is queued,
	// the key inventories cannot have changed and the sweep is a no-op.
	digests := make([]store.Digest, len(c.replicas))
	dOK := make([]bool, len(c.replicas))
	for i, r := range c.replicas {
		if !c.healthy(i) {
			continue
		}
		kd, ok := r.(backend.KeyDigester)
		if !ok {
			continue
		}
		d, _, err := kd.KeyDigest(ctx)
		if err != nil {
			if errors.Is(err, backend.ErrUnavailable) {
				c.markDown(i, "key digest fetch failed")
			}
			continue
		}
		digests[i], dOK[i] = d, true
	}
	if c.healedOnce && rep.Drained == 0 && c.hintsPending() == 0 {
		same := true
		for i := range digests {
			if !dOK[i] || digests[i] != c.lastDigests[i] {
				same = false
				break
			}
		}
		if same {
			rep.Skipped = true
			return rep, nil
		}
	}

	// Key exchange: who holds what. holders preserves replica index order
	// so the fetch below is deterministic.
	inv := make([]map[store.CellKey]bool, len(c.replicas))
	union := make(map[store.CellKey][]int)
	for i, r := range c.replicas {
		if !c.healthy(i) {
			continue
		}
		kl, ok := r.(backend.KeyLister)
		if !ok {
			continue
		}
		keys, err := kl.Keys(ctx)
		if err != nil {
			if errors.Is(err, backend.ErrUnavailable) {
				c.markDown(i, "key list fetch failed")
			}
			continue
		}
		rep.Replicas++
		inv[i] = make(map[store.CellKey]bool, len(keys))
		for _, k := range keys {
			inv[i][k] = true
			union[k] = append(union[k], i)
		}
	}
	rep.Keys = len(union)
	if rep.Replicas < 2 {
		// Nothing to reconcile against; don't record digests so the next
		// sweep (maybe with more replicas up) runs in full.
		return rep, ctx.Err()
	}

	defer func() {
		c.journal.Record(obs.EventHealSweep, "",
			fmt.Sprintf("healed %d of %d keys across %d replicas (drained %d, failed %d)",
				rep.Healed, rep.Keys, rep.Replicas, rep.Drained, rep.Failed))
	}()
	// Copy in canonical key order, the order every inventory lists, so
	// the cells land on a replica (and in its shard file) in the same
	// order on every run.
	type entry struct {
		id string
		k  store.CellKey
	}
	order := make([]entry, 0, len(union))
	for k := range union {
		order = append(order, entry{k.String(), k})
	}
	sort.Slice(order, func(a, b int) bool { return order[a].id < order[b].id })
	for _, e := range order {
		k, holders := e.k, union[e.k]
		for _, o := range c.ring.owners(e.id, c.r) {
			if inv[o] == nil || inv[o][k] {
				continue // owner down/unlistable, or already holds it
			}
			res, ok := c.fetchFrom(holders, k)
			if !ok {
				rep.Failed++
				continue
			}
			if c.send(o, res, "heal copy failed") != nil {
				rep.Failed++
				continue
			}
			inv[o][k] = true
			rep.Healed++
			c.healed.Add(1)
		}
		if err := ctx.Err(); err != nil {
			return rep, err
		}
	}

	if rep.Failed == 0 {
		// Record the post-sweep inventories so an idle cluster gates the
		// next sweep on digests alone. A sweep that healed cells changed
		// them, so recompute from what we know locally.
		for i := range c.replicas {
			if inv[i] == nil {
				dOK[i] = false
				continue
			}
			keys := make([]store.CellKey, 0, len(inv[i]))
			for k := range inv[i] {
				keys = append(keys, k)
			}
			digests[i], dOK[i] = store.DigestKeys(keys), true
		}
		allOK := true
		for i := range dOK {
			if !dOK[i] {
				allOK = false
				break
			}
		}
		if allOK {
			c.lastDigests = digests
			c.healedOnce = true
		}
	}
	return rep, nil
}

// fetchFrom reads one cell from the first healthy holder, folding any
// divergent extra copies by lww so the healed value matches what
// read-repair would converge to.
func (c *Backend) fetchFrom(holders []int, k store.CellKey) (store.Result, bool) {
	var winner store.Result
	found := false
	for _, h := range holders {
		res, ok := c.replicas[h].Lookup(k)
		if !ok {
			continue
		}
		if !found {
			winner, found = res, true
		} else {
			winner = lww(winner, res)
		}
	}
	return winner, found
}

// sweepLoop runs Heal every AntiEntropyInterval until Close.
func (c *Backend) sweepLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.opts.AntiEntropyInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
			_, _ = c.Heal(ctx)
			cancel()
		}
	}
}
