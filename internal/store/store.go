// Package store is the persistent scenario-result store: an append-only,
// sharded JSONL database of placement outcomes keyed by content-derived
// cell keys (graph fingerprint, traffic-matrix digest, scheme name and
// configuration), beside a calibration memo of matrix digests. It is the
// substrate the resumable sweeps in internal/sweep checkpoint into — a
// sweep killed mid-run reopens the store and recomputes only the cells
// that never landed.
//
// The design favors crash-tolerance over cleverness, the same trade large
// design-space studies (cISP's landscape sweeps, the Besta et al. path
// diversity study) make. The result shards and the memo file are two
// instances of one table mechanism (table.go): records append as single
// JSONL lines under a per-file lock, the index is rebuilt by scanning
// every file at Open, and a line torn by a crash mid-append is skipped
// (and counted) instead of poisoning the file. Compact rewrites each file
// with exactly the indexed records, dropping duplicates and torn tails.
// Locks are taken file lock first, then that table's index lock; no lock
// spans the two tables.
package store

import (
	"errors"
	"fmt"
	"os"

	"lowlat/internal/routing"
)

// ErrReadOnly is returned (wrapped) by mutating methods of a store opened
// with OpenReadOnly.
var ErrReadOnly = errors.New("store is read-only")

// DefaultShards is the shard-file count Open uses. Sharding bounds
// per-file lock contention when the engine's workers checkpoint
// concurrently; reads always scan every shard-*.jsonl present, so a store
// written with one shard count reopens fine under another.
const DefaultShards = 8

// Metrics is the stored outcome of one placement — the scalar summary
// every experiment driver derives from a routing.Placement.
type Metrics struct {
	Congested  float64 `json:"congested"`
	Stretch    float64 `json:"stretch"`
	MaxStretch float64 `json:"max_stretch"`
	MaxUtil    float64 `json:"max_util"`
	Fits       bool    `json:"fits"`
}

// MetricsOf summarizes a placement into its stored form.
func MetricsOf(p *routing.Placement) Metrics {
	return Metrics{
		Congested:  p.CongestedPairFraction(),
		Stretch:    p.LatencyStretch(),
		MaxStretch: p.MaxStretch(),
		MaxUtil:    p.MaxUtilization(),
		Fits:       p.Fits(),
	}
}

// Meta labels a cell for humans and for query/export slicing. It carries
// no identity — CellKey does that — so two runs labeling the same cell
// differently still collide on the same entry (last write wins).
type Meta struct {
	Net      string  `json:"net"`
	Class    string  `json:"class,omitempty"`
	Seed     int64   `json:"seed"`
	TM       int     `json:"tm"`
	Scheme   string  `json:"scheme"`
	Headroom float64 `json:"headroom"`
	Load     float64 `json:"load"`
	Locality float64 `json:"locality"`
}

// Result is one stored cell: key, labels, outcome.
type Result struct {
	Key     CellKey `json:"key"`
	Meta    Meta    `json:"meta"`
	Metrics Metrics `json:"metrics"`
}

// Store is an on-disk result store with an in-memory index. All methods
// are safe for concurrent use within one process; concurrent writers from
// separate processes are not supported (last Open wins on Compact).
type Store struct {
	dir      string
	readonly bool
	cells    *table[CellKey, Result]
	memo     *table[MemoKey, Digest]
}

// Open creates dir if needed, scans every shard for existing results and
// returns a store writing across DefaultShards shard files.
func Open(dir string) (*Store, error) { return OpenSharded(dir, DefaultShards) }

// OpenSharded is Open with an explicit write-shard count (tests use 1 to
// make torn-tail layouts deterministic).
func OpenSharded(dir string, shards int) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return open(dir, shards, false)
}

// OpenReadOnly opens an existing store for reading only: the directory is
// not created, no append handles are opened, and no byte of the store is
// ever written (in particular, a torn tail is skipped but not healed), so
// any number of read-only opens can safely run beside one writing
// process — each sees the consistent prefix of every shard that existed
// at its Open. Put, PutMemo and Compact return errors wrapping
// ErrReadOnly.
func OpenReadOnly(dir string) (*Store, error) {
	fi, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("store: open %s: not a directory", dir)
	}
	return open(dir, DefaultShards, true)
}

// open builds both tables over dir and loads them.
func open(dir string, shards int, readonly bool) (*Store, error) {
	if shards < 1 {
		shards = 1
	}
	s := &Store{
		dir:      dir,
		readonly: readonly,
		cells:    newCellTable(dir, shards),
		memo:     newMemoTable(dir),
	}
	if err := s.cells.load(); err != nil {
		return nil, err
	}
	if err := s.memo.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// newCellTable is the result table: cells spread over shards files by
// key hash, compacted in canonical key-string order.
func newCellTable(dir string, shards int) *table[CellKey, Result] {
	names := make([]string, shards)
	for i := range names {
		names[i] = shardName(i)
	}
	return &table[CellKey, Result]{
		dir: dir, kind: "shard", pattern: "shard-*.jsonl",
		files:  logFiles(dir, names...),
		shard:  func(k CellKey) int { return int(k.hash() % uint64(shards)) },
		encode: func(_ CellKey, r Result) ([]byte, error) { return MarshalResult(r) },
		decode: func(b []byte) (CellKey, Result, error) {
			r, err := UnmarshalResult(b)
			return r.Key, r, err
		},
		less:  func(a, b CellKey) bool { return a.String() < b.String() },
		index: make(map[CellKey]Result),
	}
}

// ReadOnly reports whether the store was opened with OpenReadOnly.
func (s *Store) ReadOnly() bool { return s.readonly }

// shardName returns the shard file name for write shard i.
func shardName(i int) string { return fmt.Sprintf("shard-%03d.jsonl", i) }

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Len reports how many distinct cells are indexed.
func (s *Store) Len() int { return s.cells.len() }

// Skipped reports how many unparseable lines Open tolerated, shards and
// memo together. A non-zero count after a crash is expected (one torn
// tail line); callers surface it so silent corruption never looks like a
// clean open.
func (s *Store) Skipped() int { return s.cells.skips() + s.memo.skips() }

// Get looks a cell up by key.
func (s *Store) Get(k CellKey) (Result, bool) { return s.cells.get(k) }

// Lookup is Get under the placement-backend method name, so a bare
// *Store satisfies the read side of the backend interfaces without an
// adapter.
func (s *Store) Lookup(k CellKey) (Result, bool) { return s.Get(k) }

// Put appends a result to its shard and indexes it. Re-putting a result
// identical to the indexed one is a no-op (no duplicate line); a result
// with the same key but different contents appends and replaces, so the
// newest write wins on the next Open too. A process killed mid-write
// leaves at most one torn tail line, which the next Open skips.
func (s *Store) Put(r Result) error {
	if s.readonly {
		return fmt.Errorf("store: %s: put: %w", s.dir, ErrReadOnly)
	}
	return s.cells.put(r.Key, r)
}

// Results returns every indexed cell sorted by (net, seed, tm, scheme,
// headroom, key) — a total order, so exports are byte-identical however
// the cells were computed or recovered.
func (s *Store) Results() []Result {
	out := s.cells.values()
	SortResults(out)
	return out
}

// Keys returns every indexed cell key sorted by canonical string — the
// per-replica key inventory anti-entropy sweeps exchange. Sorted output
// keeps digest endpoints and heal logs deterministic.
func (s *Store) Keys() []CellKey { return s.cells.keys() }

// Compact rewrites the store as exactly one line per indexed cell and
// memo entry, dropping superseded duplicates and torn tails. Each file is
// written to a temp file and renamed into place, so a crash mid-compact
// leaves either the old or the new file, never a half of each; stale
// shard files outside the configured write-shard set are removed.
func (s *Store) Compact() error {
	if s.readonly {
		return fmt.Errorf("store: %s: compact: %w", s.dir, ErrReadOnly)
	}
	if err := s.cells.compact(); err != nil {
		return err
	}
	return s.memo.compact()
}

// Close releases the append handles. The store must not be used after.
func (s *Store) Close() error {
	return errors.Join(s.cells.close(), s.memo.close())
}
