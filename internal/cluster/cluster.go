// Package cluster shards the placement landscape across N backends with
// consistent hashing on the content key — the ROADMAP's "fronting several
// lowlatd replicas with consistent hashing" step made concrete. A
// cluster.Backend implements the same placement-backend interface it
// fronts, so everything composes: a sweep can farm its missing cells out
// to a cluster, a lowlatd can serve a cluster of other lowlatds, and a
// cluster member can itself be a cluster.
//
// Routing is deterministic: a Place request hashes its normalized spec,
// a Lookup hashes its content key, and the ring maps the hash to the
// key's owner set — so repeated requests for one cell always land on the
// same stores, caches stay hot, and the daemon-side singleflight still
// collapses concurrent duplicates cluster-wide. When a replica is marked
// down (a dispatch failed with backend.ErrUnavailable, or Probe said so)
// its keys reroute to the ring successor until Probe marks it back up;
// Query fans out to every healthy replica and merges in store order.
//
// With Options.Replicas R > 1 the ring runs replicated and self-healing:
// every cell is owned by its key's first R distinct ring successors.
// Writes (a computed Place, an explicit Put) land on all R owners;
// writes bound for a down owner queue as hinted handoff and drain in
// order when the owner rejoins. Lookup consults every healthy owner,
// answers the deterministic last-write-wins winner (a total order over
// the cells' canonical bytes, so every replica converges on the same
// copy), and read-repairs owners that missed or diverged. A Heal sweep —
// on demand, or in the background every AntiEntropyInterval — exchanges
// per-replica key digests and copies orphaned cells back onto the owners
// that are missing them, which is what makes a killed-and-rejoined
// replica's store converge without recomputing anything. The default
// R = 1 keeps the original single-owner behavior bit for bit.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lowlat/internal/backend"
	"lowlat/internal/obs"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// Options tunes a cluster backend.
type Options struct {
	// Labels name the replicas for ring placement (default: a replica's
	// BaseURL when it has one, else "replica-<i>"). Ownership is a pure
	// function of (labels, vnodes, key): clusters sharing labels route
	// identically, and stable labels keep ownership stable across
	// restarts.
	Labels []string
	// ReprobeInterval is how long a down mark sticks before the next
	// request touching that replica re-probes it (default 5s). A
	// restarted replica rejoins the ring within one interval without any
	// operator action; the re-probe is synchronous but happens at most
	// once per interval per replica, bounded by probeTimeout.
	ReprobeInterval time.Duration
	// Replicas is the ownership factor R: every cell is written to its
	// key's first R distinct ring successors, Lookup reads from the
	// healthy owners with read-repair, and losing any R-1 owners loses no
	// cell. Default 1 — the original single-owner ring, unchanged. Values
	// above the replica count are clamped to it.
	Replicas int
	// HandoffLimit bounds each replica's hinted-handoff queue in entries
	// (default 1024). Writes bound for a down replica queue here and
	// drain in order when it rejoins; beyond the limit the oldest hint is
	// dropped (and counted) — the anti-entropy sweep heals whatever the
	// queue could not carry.
	HandoffLimit int
	// AntiEntropyInterval, when positive, runs a background Heal sweep at
	// that period: per-replica key digests are exchanged, and owners
	// missing cells (a replica that rejoined after losing its hints, a
	// store seeded before replication) receive copies. Close stops the
	// sweeper. Zero disables it; Heal can always be called explicitly.
	AntiEntropyInterval time.Duration
	// Journal, when set, receives a structured event at every state
	// transition the cluster detects: replica down/up, reroutes, hint
	// queue/drain/drop, read-repairs and heal sweeps. A daemon shares
	// one journal between its cluster backend and its HTTP server so
	// /v1/events tells the whole story in one sequence. Nil journals no
	// events.
	Journal *obs.Journal
	// Windows, when set, is the window geometry the cluster's own stage
	// histograms roll on (zero value: obs defaults). Tests shrink it so
	// storm scenarios rotate in milliseconds.
	Windows obs.WindowConfig
}

const (
	// vnodes is the virtual-node count per replica. More vnodes flatten
	// the key distribution at the cost of a bigger ring. It is a
	// constant because ownership is a pure function of (labels, vnodes,
	// key): every client of a cluster must agree on it to route every
	// key identically.
	vnodes = 64
	// probeTimeout bounds each health probe.
	probeTimeout = 2 * time.Second
	// queryTimeout bounds each replica's share of a Query fan-out.
	queryTimeout = 30 * time.Second
)

func (o Options) withDefaults() Options {
	if o.ReprobeInterval <= 0 {
		o.ReprobeInterval = 5 * time.Second
	}
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.HandoffLimit <= 0 {
		o.HandoffLimit = 1024
	}
	return o
}

// Backend fronts N placement backends behind one consistent-hash ring.
// Create with New; all methods are safe for concurrent use.
type Backend struct {
	replicas []backend.Backend
	labels   []string
	ring     *ring
	opts     Options
	r        int // resolved ownership factor (Replicas clamped to len)
	down     []atomic.Bool
	// lastProbe is the unix-nano time each replica was last probed,
	// rate-limiting the automatic re-probe of down replicas.
	lastProbe []atomic.Int64

	// hints is the per-replica hinted-handoff queue: writes bound for a
	// down replica wait here (FIFO, key-deduplicated, bounded by
	// HandoffLimit) and drain when the replica rejoins.
	hmu   []sync.Mutex
	hints [][]store.Result

	// heal state: one sweep at a time, with the per-replica key digests
	// of the last completed sweep so an unchanged cluster skips the full
	// key exchange.
	healMu      sync.Mutex
	lastDigests []store.Digest
	healedOnce  bool

	// sweeper lifecycle (AntiEntropyInterval > 0 only).
	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup

	rerouted     atomic.Int64
	errs         atomic.Int64
	replicated   atomic.Int64
	readRepairs  atomic.Int64
	hintsQueued  atomic.Int64
	hintsDrained atomic.Int64
	hintsDropped atomic.Int64
	healed       atomic.Int64
	healSweeps   atomic.Int64
	obs          *obs.Registry
	journal      *obs.Journal
}

// labeled is implemented by backends that carry a natural stable name
// (serve.Remote's BaseURL).
type labeled interface {
	BaseURL() string
}

// New builds a cluster over the given replicas.
func New(replicas []backend.Backend, opts Options) (*Backend, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("cluster: no replicas")
	}
	opts = opts.withDefaults()
	labels := opts.Labels
	if labels == nil {
		labels = make([]string, len(replicas))
		for i, r := range replicas {
			if l, ok := r.(labeled); ok {
				labels[i] = l.BaseURL()
			} else {
				labels[i] = fmt.Sprintf("replica-%d", i)
			}
		}
	}
	if len(labels) != len(replicas) {
		return nil, fmt.Errorf("cluster: %d labels for %d replicas", len(labels), len(replicas))
	}
	seen := make(map[string]bool, len(labels))
	for _, l := range labels {
		if seen[l] {
			return nil, fmt.Errorf("cluster: duplicate replica label %q", l)
		}
		seen[l] = true
	}
	r := opts.Replicas
	if r > len(replicas) {
		r = len(replicas)
	}
	c := &Backend{
		replicas:  replicas,
		labels:    labels,
		ring:      newRing(labels, vnodes),
		opts:      opts,
		r:         r,
		down:      make([]atomic.Bool, len(replicas)),
		lastProbe: make([]atomic.Int64, len(replicas)),
		hmu:       make([]sync.Mutex, len(replicas)),
		hints:     make([][]store.Result, len(replicas)),
		stop:      make(chan struct{}),
		obs:       obs.NewRegistryWindows(opts.Windows),
		journal:   opts.Journal,
	}
	if opts.AntiEntropyInterval > 0 {
		c.wg.Add(1)
		go c.sweepLoop()
	}
	return c, nil
}

// Close stops the background anti-entropy sweeper, if one is running.
// The replicas themselves are not closed. Safe to call multiple times.
func (c *Backend) Close() error {
	c.stopped.Do(func() { close(c.stop) })
	c.wg.Wait()
	return nil
}

// ReplicaFactor reports the resolved ownership factor R.
func (c *Backend) ReplicaFactor() int { return c.r }

// Owners reports the key's full replication set: its first R distinct
// replicas in ring order (health marks ignored); the first is the key's
// owner.
func (c *Backend) Owners(key string) []int { return c.ring.owners(key, c.r) }

// Labels returns the replica labels in index order.
func (c *Backend) Labels() []string { return append([]string(nil), c.labels...) }

// MarkDown flags replica i as unhealthy: its keys reroute to ring
// successors until MarkUp or a successful Probe.
func (c *Backend) MarkDown(i int) { c.markDown(i, "operator mark") }

// MarkUp clears replica i's health mark and delivers any hinted-handoff
// writes that queued while it was down.
func (c *Backend) MarkUp(i int) { c.markUp(i) }

// markDown is the one up→down transition: set the mark and, when this
// call actually flipped it (the CAS filters the stampede of requests
// that all notice a dead replica at once), journal the event. Every
// detection path — failed probe, failed write, failed drain — funnels
// through here.
func (c *Backend) markDown(i int, why string) {
	if c.down[i].CompareAndSwap(false, true) {
		c.journal.Record(obs.EventReplicaDown, c.labels[i], why)
	}
}

// markUp is the one down→up transition: clear the mark (journaling the
// recovery when the mark was actually set), then drain the replica's
// hint queue in order. Every recovery path — operator MarkUp, a passing
// Probe, the automatic re-probe — funnels through here, so a rejoining
// replica always receives the writes it missed before it receives new
// traffic.
func (c *Backend) markUp(i int) {
	if c.down[i].CompareAndSwap(true, false) {
		c.journal.Record(obs.EventReplicaUp, c.labels[i], "")
	}
	c.drainHints(i)
}

// Down reports replica i's health mark.
func (c *Backend) Down(i int) bool { return c.down[i].Load() }

// healthy reports whether replica i should receive traffic. A replica
// marked down stays skipped until its ReprobeInterval elapses; then the
// first request to touch it re-probes (bounded by probeTimeout, at most
// one prober at a time via the timestamp CAS) and marks it back up on
// success — the automatic recovery path after a replica restart, with
// no operator in the loop.
func (c *Backend) healthy(i int) bool {
	if !c.down[i].Load() {
		return true
	}
	now := time.Now().UnixNano()
	last := c.lastProbe[i].Load()
	if now-last < int64(c.opts.ReprobeInterval) || !c.lastProbe[i].CompareAndSwap(last, now) {
		return false
	}
	p, ok := c.replicas[i].(backend.Prober)
	if !ok {
		// Non-probeable replicas are in-process; a down mark on one can
		// only have come from MarkDown, and expires by re-probe time.
		c.markUp(i)
		return true
	}
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	if p.Probe(ctx) != nil {
		return false
	}
	c.markUp(i)
	return true
}

// Probe health-checks every replica that can be probed and updates the
// marks: a failing probe marks down, a passing one marks back up — the
// forced version of the automatic re-probe, for operators and tests
// that don't want to wait out ReprobeInterval. Replicas that implement
// no Prober are assumed healthy. It returns the number of replicas
// marked down afterwards.
func (c *Backend) Probe(ctx context.Context) int {
	down := 0
	for i, r := range c.replicas {
		p, ok := r.(backend.Prober)
		if !ok {
			c.markUp(i)
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		err := p.Probe(pctx)
		cancel()
		if err != nil {
			c.markDown(i, "probe failed: "+err.Error())
			down++
			continue
		}
		c.markUp(i)
	}
	return down
}

// Lookup resolves a content key, asking the key's ring owner first and
// then the remaining healthy replicas in ring order. The walk is what
// keeps by-key reads correct whatever partitioned the data: stores
// seeded by independent sweeps, cells that landed on their *spec*-hash
// owner via Place, or cells a failover recomputed on a successor — in
// every case the hit is at worst a short fan-out away, and when the
// cluster's stores were sharded by content key the owner answers in one
// round trip. A replica that is down (marked, or simply unreachable —
// its lookup reads as a miss) contributes nothing and costs no failure.
func (c *Backend) Lookup(k store.CellKey) (store.Result, bool) {
	seq := c.ring.seq(k.String())
	if c.r <= 1 {
		for _, i := range seq {
			if !c.healthy(i) {
				continue
			}
			if res, ok := c.replicas[i].Lookup(k); ok {
				return res, true
			}
		}
		return store.Result{}, false
	}

	// R-owner read: consult every healthy owner, fold the copies into the
	// deterministic last-write-wins winner, and answer that. Owners that
	// answered a miss (or a diverged copy) while healthy are stale —
	// read-repair writes the winner back so the next read finds R copies.
	owners := seq[:c.r]
	copies := make(map[int]store.Result, c.r)
	var winner store.Result
	found := false
	for _, i := range owners {
		if !c.healthy(i) {
			continue
		}
		res, ok := c.replicas[i].Lookup(k)
		if !ok {
			copies[i] = store.Result{} // healthy miss: repair candidate
			continue
		}
		copies[i] = res
		if !found {
			winner, found = res, true
		} else {
			winner = lww(winner, res)
		}
	}
	if !found {
		// No owner holds it: fall back to the rest of the ring — cells can
		// live off their owner set after failover writes or a ring resize —
		// and promote a find back onto the healthy owners.
		for _, i := range seq[c.r:] {
			if !c.healthy(i) {
				continue
			}
			if res, ok := c.replicas[i].Lookup(k); ok {
				winner, found = res, true
				break
			}
		}
		if !found {
			return store.Result{}, false
		}
	}
	for i, res := range copies {
		if res != winner {
			c.repair(i, winner)
		}
	}
	return winner, true
}

// repair writes the winning copy of a cell back to a stale owner — the
// read-repair half of self-healing. An unreachable owner is marked down
// and the write queues as a hint instead.
func (c *Backend) repair(i int, res store.Result) {
	if c.send(i, res, "read-repair write failed") != nil {
		return
	}
	c.readRepairs.Add(1)
	c.journal.Record(obs.EventReadRepair, c.labels[i], "key "+res.Key.String())
}

// Place routes a spec to its owning replica; a replica that fails with
// backend.ErrUnavailable is marked down and the request reroutes to the
// ring successor, so a mid-flight replica kill costs zero failed
// requests. Application-level failures (bad spec, overload after the
// remote's own retries, a solver error) surface unchanged — rerouting a
// 400 would just fail twice. Under R > 1 the answer is then replicated
// to the spec's remaining owners (hinting the down ones), so the cell is
// R-way durable before the next failure.
func (c *Backend) Place(ctx context.Context, spec store.CellSpec) (store.Result, error) {
	res, _, err := c.PlaceSourced(ctx, spec)
	return res, err
}

// PlaceSourced is Place with the serving replica's provenance.
func (c *Backend) PlaceSourced(ctx context.Context, spec store.CellSpec) (store.Result, backend.Source, error) {
	spec = spec.Normalized()
	seq := c.ring.seq(spec.String())
	owner := seq[0]
	var lastErr error
	for _, i := range seq {
		if !c.healthy(i) {
			continue
		}
		res, src, err := backend.PlaceSourced(ctx, c.replicas[i], spec)
		if err != nil {
			if errors.Is(err, backend.ErrUnavailable) {
				c.markDown(i, "place failed")
				lastErr = err
				continue
			}
			c.errs.Add(1)
			return store.Result{}, "", err
		}
		if i != owner {
			c.rerouted.Add(1)
			c.journal.Record(obs.EventReroute, c.labels[i],
				fmt.Sprintf("placement rerouted off down owner %s", c.labels[owner]))
		}
		if c.r > 1 && res.Key != (store.CellKey{}) {
			// Replicate to the owners of the *content key* — the set
			// Lookup, Put and Heal route by — not the spec-string owner
			// that served the placement (it keeps its local copy either
			// way, and staying the spec owner is what keeps its memo,
			// LRU and singleflight hot).
			c.replicate(c.ring.owners(res.Key.String(), c.r), i, res)
		}
		return res, src, nil
	}
	c.errs.Add(1)
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: %w: all %d replicas marked down", backend.ErrUnavailable, len(c.replicas))
	}
	return store.Result{}, "", lastErr
}

// Put writes an already-computed result to every owner of its key —
// the write half of the backend seam under replication, and what lets a
// cluster itself stand in as one replica of a bigger cluster. Down
// owners are hinted; Put succeeds when at least one owner persisted the
// cell (hints alone are in-memory and not durable, so they don't count).
func (c *Backend) Put(r store.Result) error {
	if r.Key == (store.CellKey{}) {
		return fmt.Errorf("cluster: put: result has no cell key")
	}
	owners := c.ring.owners(r.Key.String(), c.r)
	stored := 0
	var lastErr error
	for _, i := range owners {
		if !c.healthy(i) {
			c.queueHint(i, r)
			continue
		}
		if err := c.send(i, r, "replication write failed"); err != nil {
			lastErr = err
			continue
		}
		c.replicated.Add(1)
		stored++
	}
	if stored == 0 {
		if lastErr == nil {
			lastErr = fmt.Errorf("cluster: %w: no owner reachable", backend.ErrUnavailable)
		}
		return fmt.Errorf("cluster: put %s: %w", r.Key, lastErr)
	}
	return nil
}

// replicate copies a freshly served Place answer to the spec's remaining
// owners: the serving replica already persisted it, every other owner
// gets a Put (or a hint, when down). Predicted answers carry no content
// key and are estimates, not cells — they never replicate.
func (c *Backend) replicate(owners []int, served int, res store.Result) {
	if res.Key == (store.CellKey{}) {
		return
	}
	for _, i := range owners {
		if i == served {
			continue
		}
		if c.down[i].Load() {
			c.queueHint(i, res)
			continue
		}
		if c.send(i, res, "put failed") != nil {
			continue
		}
		c.replicated.Add(1)
	}
}

// send is the one replica write rule every cross-replica copy follows
// (Put, Place's replication, read-repair, Heal's copy): put r on replica
// i; an unreachable replica is marked down for reason and the write
// queues as a hint. A non-nil return means the write did not land.
func (c *Backend) send(i int, r store.Result, reason string) error {
	err := c.putTo(i, r)
	if err != nil && c.writeFailed(i, err, reason) {
		c.queueHint(i, r)
	}
	return err
}

// writeFailed classifies a failed write to replica i: an unreachable
// replica (backend.ErrUnavailable) is marked down for reason and true is
// returned, so the write can wait for it; any other refusal can never
// succeed on retry and counts as an error.
func (c *Backend) writeFailed(i int, err error, reason string) bool {
	if errors.Is(err, backend.ErrUnavailable) {
		c.markDown(i, reason)
		return true
	}
	c.errs.Add(1)
	return false
}

// putTo persists one result on replica i through its Putter extension,
// recording the copy under the replicate stage (hint drains and heal
// copies included — every cross-replica write is a replication write).
func (c *Backend) putTo(i int, r store.Result) error {
	p, ok := c.replicas[i].(backend.Putter)
	if !ok {
		return fmt.Errorf("cluster: replica %s accepts no writes", c.labels[i])
	}
	t0 := time.Now()
	err := p.Put(r)
	c.obs.Observe(context.Background(), obs.StageReplicate, time.Since(t0))
	return err
}

// Query fans the filter out to every healthy replica concurrently and
// merges the answers: deduplicated by content key (replicas may overlap
// after a failover) and sorted in store order, so a cluster's answer is
// byte-identical to a single store holding the union. A replica that
// fails its share is marked down and contributes nothing; callers that
// need to distinguish "empty" from "nobody answered" use QueryContext.
func (c *Backend) Query(f sweep.Filter) []store.Result {
	res, _ := c.QueryContext(context.Background(), f)
	return res
}

// QueryContext is the error-aware Query: it returns an error only when
// no replica delivered an answer at all — a cluster that is entirely
// unreachable must not read as an empty landscape. Partial answers (one
// replica down, the rest merged) succeed, which is the availability the
// ring is for; the Stats Down gauge says when that is happening.
func (c *Backend) QueryContext(ctx context.Context, f sweep.Filter) ([]store.Result, error) {
	type part struct {
		asked   bool
		results []store.Result
		err     error
	}
	parts := make([]part, len(c.replicas))
	var wg sync.WaitGroup
	for i, r := range c.replicas {
		if !c.healthy(i) {
			continue
		}
		parts[i].asked = true
		wg.Add(1)
		go func(i int, r backend.Backend) {
			defer wg.Done()
			if q, ok := r.(backend.ContextQuerier); ok {
				qctx, cancel := context.WithTimeout(ctx, queryTimeout)
				defer cancel()
				res, err := q.QueryContext(qctx, f)
				parts[i].results, parts[i].err = res, err
				return
			}
			parts[i].results = r.Query(f)
		}(i, r)
	}
	wg.Wait()

	merged := make(map[store.CellKey]store.Result)
	answered := 0
	var errs []error
	for i, p := range parts {
		if !p.asked {
			continue
		}
		if p.err != nil {
			c.errs.Add(1)
			errs = append(errs, fmt.Errorf("%s: %w", c.labels[i], p.err))
			if errors.Is(p.err, backend.ErrUnavailable) {
				c.markDown(i, "query fan-out failed")
			}
			continue
		}
		answered++
		for _, r := range p.results {
			// Duplicate keys fold by the same last-write-wins order the
			// read path repairs toward. Content-addressed records make
			// duplicates identical in practice, but replicas *can* diverge
			// on the mutable tail (Meta annotations from a re-solve), and
			// "first replica in index order wins" would then make the
			// merged answer depend on which replicas were healthy — LWW
			// keeps it a pure function of the union of copies.
			if prev, ok := merged[r.Key]; ok {
				merged[r.Key] = lww(prev, r)
			} else {
				merged[r.Key] = r
			}
		}
	}
	if answered == 0 {
		if len(errs) == 0 {
			return nil, fmt.Errorf("cluster: %w: all %d replicas marked down", backend.ErrUnavailable, len(c.replicas))
		}
		return nil, fmt.Errorf("cluster: no replica answered: %w", errors.Join(errs...))
	}
	out := make([]store.Result, 0, len(merged))
	for _, r := range merged {
		out = append(out, r)
	}
	store.SortResults(out)
	return out, nil
}

// Stats aggregates the cluster's own routing counters with every
// replica's snapshot (kept individually under Replicas). StoreCells sums
// the replicas' gauges — an upper bound when stores overlap after
// failovers. Remote snapshots are fetched concurrently, so the call
// costs one slow replica, not the sum of them.
func (c *Backend) Stats() backend.Stats {
	out := backend.Stats{
		Backend:   "cluster",
		Rerouted:  c.rerouted.Load(),
		Errors:    c.errs.Load(),
		Telemetry: c.obs.Snapshot(),
	}
	if c.r > 1 {
		out.ReplicaFactor = c.r
		out.Replicated = c.replicated.Load()
		out.ReadRepairs = c.readRepairs.Load()
		out.HintsQueued = c.hintsQueued.Load()
		out.HintsDrained = c.hintsDrained.Load()
		out.HintsDropped = c.hintsDropped.Load()
		out.HintsPending = c.hintsPending()
		out.Healed = c.healed.Load()
		out.HealSweeps = c.healSweeps.Load()
	}
	snaps := make([]backend.Stats, len(c.replicas))
	var wg sync.WaitGroup
	for i, r := range c.replicas {
		wg.Add(1)
		go func(i int, r backend.Backend) {
			defer wg.Done()
			snaps[i] = r.Stats()
		}(i, r)
	}
	wg.Wait()
	// Telemetry rolls up the same way counters do: the cluster's own
	// stages (replicate, heal) merge with every replica's — exact bucket
	// sums, so the top-level p50/p90/p99 are true cluster-wide quantiles.
	// Each replica's unmerged snapshot stays visible under Replicas.
	for i, rs := range snaps {
		out.StoreCells += rs.StoreCells
		out.MemoEntries += rs.MemoEntries
		out.StoreHits += rs.StoreHits
		out.MemoHits += rs.MemoHits
		out.Computed += rs.Computed
		out.Rejected += rs.Rejected
		out.InFlight += rs.InFlight
		out.Retried += rs.Retried
		if c.down[i].Load() {
			out.Down++
		}
		out.Telemetry.Merge(rs.Telemetry)
		out.Replicas = append(out.Replicas, rs)
	}
	return out
}

// DownReplicas names the replicas currently marked down — the cheap
// health probe /v1/health leans on (no Stats fan-out, no network). Nil
// when every replica is healthy.
func (c *Backend) DownReplicas() []string {
	var out []string
	for i := range c.down {
		if c.down[i].Load() {
			out = append(out, c.labels[i])
		}
	}
	return out
}

// Events serves the cluster's view of the event journal: its own
// journal (exact since-cursor semantics) folded with every replica's
// retained events, each tagged with the replica's label as Origin.
// Cursor semantics across origins are approximate — `since` is applied
// per origin journal — so the fold is a convenience view; pollers that
// need exactness follow one origin at a time. Replicas that expose no
// journal (plain stores, down daemons) contribute nothing and cost no
// failure. Returns nil when the cluster has no journal and no replica
// answered.
func (c *Backend) Events(ctx context.Context, since int64, limit int) ([]obs.Event, error) {
	out := append([]obs.Event(nil), c.journal.Since(since, limit)...)
	for i, r := range c.replicas {
		ev, ok := r.(backend.Eventer)
		if !ok || !c.healthy(i) {
			continue
		}
		evs, err := ev.Events(ctx, since, limit)
		if err != nil {
			continue // a replica that cannot answer just contributes nothing
		}
		for _, e := range evs {
			if e.Origin == "" {
				e.Origin = c.labels[i]
			} else {
				e.Origin = c.labels[i] + "/" + e.Origin
			}
			out = append(out, e)
		}
	}
	// Interleave by time so the folded view reads as one story; ties
	// keep origin-local order because each journal is already ascending.
	sort.SliceStable(out, func(a, b int) bool { return out[a].Time.Before(out[b].Time) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// Journal exposes the journal the cluster records transitions into. A
// serving front compares it against its own to tell whether the daemon
// shares one journal across layers (in which case the cluster's Events
// fold already carries the front's entries).
func (c *Backend) Journal() *obs.Journal { return c.journal }
