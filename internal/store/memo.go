package store

import (
	"encoding/json"
	"errors"
	"fmt"

	"lowlat/internal/graph"
)

// MemoKey addresses one calibration memo entry: the matrix digest that a
// seeded gravity-model generation produces for one topology at one
// (load, locality) operating point. Matrix generation is deterministic in
// these four inputs (the seeded-generator determinism tests pin it), so
// the memo lets sweep resume and daemon warm-up derive content-addressed
// cell keys without re-running the calibration LP solves.
type MemoKey struct {
	// Graph is graph.Fingerprint of the topology.
	Graph Digest `json:"graph"`
	// Seed is the traffic-matrix seed.
	Seed int64 `json:"seed"`
	// Load is the target min-cut utilization the matrix was calibrated to.
	Load float64 `json:"load"`
	// Locality is the traffic locality parameter ℓ.
	Locality float64 `json:"locality"`
}

// MemoKeyFor computes the memo key of one (graph, seed, load, locality)
// calibration point.
func MemoKeyFor(g *graph.Graph, seed int64, load, locality float64) MemoKey {
	return MemoKey{
		Graph:    Digest(g.Fingerprint()),
		Seed:     seed,
		Load:     load,
		Locality: locality,
	}
}

// memoRecord is one persisted memo line.
type memoRecord struct {
	Key    MemoKey `json:"key"`
	Matrix Digest  `json:"matrix"`
}

// memoName is the memo file, separate from the shard files so the shard
// pattern (and tools iterating result lines) never see memo records.
const memoName = "memo.jsonl"

// newMemoTable is the calibration memo table: one file, compacted in
// (graph, seed, load, locality) order.
func newMemoTable(dir string) *table[MemoKey, Digest] {
	return &table[MemoKey, Digest]{
		dir: dir, kind: "memo", pattern: memoName,
		files: logFiles(dir, memoName),
		shard: func(MemoKey) int { return 0 },
		encode: func(k MemoKey, d Digest) ([]byte, error) {
			b, err := json.Marshal(memoRecord{Key: k, Matrix: d})
			if err != nil {
				return nil, fmt.Errorf("store: %w", err)
			}
			return b, nil
		},
		decode: func(b []byte) (MemoKey, Digest, error) {
			var r memoRecord
			if err := json.Unmarshal(b, &r); err != nil {
				return MemoKey{}, 0, err
			}
			if r.Key == (MemoKey{}) {
				return MemoKey{}, 0, errors.New("memo record has no key")
			}
			return r.Key, r.Matrix, nil
		},
		less: func(a, b MemoKey) bool {
			if a.Graph != b.Graph {
				return a.Graph < b.Graph
			}
			if a.Seed != b.Seed {
				return a.Seed < b.Seed
			}
			if a.Load != b.Load {
				return a.Load < b.Load
			}
			return a.Locality < b.Locality
		},
		index: make(map[MemoKey]Digest),
	}
}

// Memo looks up the memoized matrix digest for one calibration point.
func (s *Store) Memo(k MemoKey) (Digest, bool) { return s.memo.get(k) }

// MemoLen reports how many calibration points are memoized.
func (s *Store) MemoLen() int { return s.memo.len() }

// PutMemo appends a calibration memo entry and indexes it. Like Put, an
// entry identical to the indexed one is a no-op and the newest write wins
// on the next Open.
func (s *Store) PutMemo(k MemoKey, matrix Digest) error {
	if s.readonly {
		return fmt.Errorf("store: %s: put memo: %w", s.dir, ErrReadOnly)
	}
	return s.memo.put(k, matrix)
}
