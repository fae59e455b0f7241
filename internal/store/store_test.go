package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"lowlat/internal/engine"
	"lowlat/internal/routing"
	"lowlat/internal/tmgen"
	"lowlat/internal/topo"
)

// testCell builds a real (graph, matrix, scheme) cell so keys exercise the
// actual fingerprint and serialization paths.
func testCell(t *testing.T, seed int64, scheme routing.Scheme) Result {
	t.Helper()
	g := topo.Ring("ring-8", 8, 1400, topo.Cap10G)
	res, err := tmgen.Generate(g, tmgen.Config{Seed: seed, TargetMaxUtil: 0.6})
	if err != nil {
		t.Fatalf("tmgen: %v", err)
	}
	p, err := scheme.Place(g, res.Matrix)
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	return Result{
		Key: KeyFor(g, res.Matrix, scheme),
		Meta: Meta{
			Net: "ring-8", Class: "ring", Seed: seed,
			Scheme: scheme.Name(), Headroom: routing.Headroom(scheme),
			Load: 0.6, Locality: 1,
		},
		Metrics: MetricsOf(p),
	}
}

func TestRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := testCell(t, 1, routing.SP{})
	r2 := testCell(t, 2, routing.MinMax{})
	for _, r := range []Result{r1, r2} {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := s.Get(r1.Key); !ok || got != r1 {
		t.Fatalf("Get(r1) = %+v, %v; want stored result", got, ok)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen rebuilds the index from the shards.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 || s2.Skipped() != 0 {
		t.Fatalf("reopen: Len=%d Skipped=%d, want 2, 0", s2.Len(), s2.Skipped())
	}
	if got, ok := s2.Get(r2.Key); !ok || got != r2 {
		t.Fatalf("reopened Get(r2) = %+v, %v", got, ok)
	}
}

func TestKeysSeparateCells(t *testing.T) {
	g := topo.Ring("ring-8", 8, 1400, topo.Cap10G)
	res, err := tmgen.Generate(g, tmgen.Config{Seed: 1, TargetMaxUtil: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Matrix
	base := KeyFor(g, m, routing.LatencyOpt{})

	if k := KeyFor(g, m, routing.LatencyOpt{}); k != base {
		t.Fatalf("same cell produced different keys: %v vs %v", k, base)
	}
	// Headroom is invisible to LatencyOpt's Name at 0 vs >0 boundary but
	// must still separate keys via the config digest.
	if k := KeyFor(g, m, routing.LatencyOpt{Headroom: 0.11}); k == base {
		t.Fatal("headroom change did not change the key")
	}
	if k := KeyFor(g, m, routing.SP{}); k == base {
		t.Fatal("scheme change did not change the key")
	}
	res2, err := tmgen.Generate(g, tmgen.Config{Seed: 2, TargetMaxUtil: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if k := KeyFor(g, res2.Matrix, routing.LatencyOpt{}); k == base {
		t.Fatal("matrix change did not change the key")
	}
	g2 := topo.Ring("ring-10", 10, 1400, topo.Cap10G)
	res3, err := tmgen.Generate(g2, tmgen.Config{Seed: 1, TargetMaxUtil: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if k := KeyFor(g2, res3.Matrix, routing.LatencyOpt{}); k.Graph == base.Graph {
		t.Fatal("graph change did not change the graph digest")
	}
}

func TestDigestJSONRoundTrip(t *testing.T) {
	d := Digest(0xdeadbeef01020304)
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"deadbeef01020304"` {
		t.Fatalf("marshal = %s", b)
	}
	var back Digest
	if err := json.Unmarshal(b, &back); err != nil || back != d {
		t.Fatalf("unmarshal = %v, %v", back, err)
	}
	if err := json.Unmarshal([]byte(`123`), &back); err == nil {
		t.Fatal("numeric digest should be rejected")
	}
}

// TestTruncatedTailTolerated pins the crash-recovery contract: a store
// whose last line was torn by a kill keeps every complete record, reports
// exactly one skipped line, and accepts new appends.
func TestTruncatedTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	r1 := testCell(t, 1, routing.SP{})
	r2 := testCell(t, 2, routing.MinMax{})
	if err := s.Put(r1); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(r2); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Tear the final line mid-record, as a kill -9 mid-append would.
	shard := filepath.Join(dir, shardName(0))
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shard, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 1 || s2.Skipped() != 1 {
		t.Fatalf("after tear: Len=%d Skipped=%d, want 1, 1", s2.Len(), s2.Skipped())
	}
	if _, ok := s2.Get(r1.Key); !ok {
		t.Fatal("intact first record lost")
	}
	if _, ok := s2.Get(r2.Key); ok {
		t.Fatal("torn record should be gone")
	}
	// The store keeps accepting appends after recovery.
	if err := s2.Put(r2); err != nil {
		t.Fatal(err)
	}
	s3, err := OpenSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 2 {
		t.Fatalf("after re-put: Len=%d, want 2", s3.Len())
	}
	// The torn fragment still sits mid-file until compaction.
	if s3.Skipped() != 1 {
		t.Fatalf("Skipped=%d, want 1 until Compact", s3.Skipped())
	}
}

func TestPutIdempotentAndLastWins(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := testCell(t, 1, routing.SP{})
	for i := 0; i < 3; i++ {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if n := countLines(t, filepath.Join(dir, shardName(0))); n != 1 {
		t.Fatalf("identical re-puts appended: %d lines, want 1", n)
	}

	changed := r
	changed.Metrics.Stretch = 9.99
	if err := s.Put(changed); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(r.Key); got.Metrics.Stretch != 9.99 {
		t.Fatalf("index kept old record: %+v", got)
	}
	s2, err := OpenSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, _ := s2.Get(r.Key); got.Metrics.Stretch != 9.99 {
		t.Fatalf("reopen kept old record: %+v", got)
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := testCell(t, 1, routing.SP{})
	if err := s.Put(r); err != nil {
		t.Fatal(err)
	}
	changed := r
	changed.Metrics.MaxUtil = 0.123
	if err := s.Put(changed); err != nil {
		t.Fatal(err)
	}
	other := testCell(t, 3, routing.MinMax{})
	if err := s.Put(other); err != nil {
		t.Fatal(err)
	}
	// A stray shard from an older, wider layout must be folded in.
	stray, err := json.Marshal(testCell(t, 4, routing.SP{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard-777.jsonl"), append(stray, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := OpenSharded(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 3 {
		t.Fatalf("pre-compact Len=%d, want 3", s2.Len())
	}
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-777.jsonl")); !os.IsNotExist(err) {
		t.Fatal("stale shard survived compaction")
	}
	total := 0
	for i := 0; i < 2; i++ {
		total += countLines(t, filepath.Join(dir, shardName(i)))
	}
	if total != 3 {
		t.Fatalf("compacted store has %d lines, want 3", total)
	}
	// Compaction kept the newest record and the store still works.
	if got, _ := s2.Get(r.Key); got.Metrics.MaxUtil != 0.123 {
		t.Fatalf("compaction resurrected an old record: %+v", got)
	}
	s3, err := OpenSharded(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 3 || s3.Skipped() != 0 {
		t.Fatalf("post-compact reopen: Len=%d Skipped=%d, want 3, 0", s3.Len(), s3.Skipped())
	}
}

// TestConcurrentPuts checkpoints from many goroutines at once, the way the
// sweep orchestrator's workers do, interleaving memo writes, reads and
// compactions; run with -race this doubles as the locking test.
func TestConcurrentPuts(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := testCell(t, 1, routing.SP{})
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	_, err = engine.Map(context.Background(), 8, items,
		func(_ context.Context, _ int, i int) (struct{}, error) {
			r := base
			r.Key.Matrix = Digest(uint64(i) + 1)
			r.Meta.TM = i
			if err := s.Put(r); err != nil {
				return struct{}{}, err
			}
			if err := s.PutMemo(MemoKey{Graph: r.Key.Graph, Seed: int64(i)}, r.Key.Matrix); err != nil {
				return struct{}{}, err
			}
			if got, ok := s.Get(r.Key); !ok || got != r {
				return struct{}{}, fmt.Errorf("cell %d: Get after Put = %v", i, ok)
			}
			if i%16 == 0 {
				return struct{}{}, s.Compact()
			}
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 64 || s.MemoLen() != 64 {
		t.Fatalf("Len=%d MemoLen=%d, want 64, 64", s.Len(), s.MemoLen())
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 64 || s2.MemoLen() != 64 || s2.Skipped() != 0 {
		t.Fatalf("reopen: Len=%d MemoLen=%d Skipped=%d, want 64, 64, 0", s2.Len(), s2.MemoLen(), s2.Skipped())
	}
}

func TestResultsDeterministicOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var want []string
	for _, seed := range []int64{3, 1, 2} {
		for _, scheme := range []routing.Scheme{routing.MinMax{}, routing.SP{}} {
			r := testCell(t, seed, scheme)
			if err := s.Put(r); err != nil {
				t.Fatal(err)
			}
			want = append(want, fmt.Sprintf("%d/%s", seed, scheme.Name()))
		}
	}
	res := s.Results()
	if len(res) != len(want) {
		t.Fatalf("Results len=%d, want %d", len(res), len(want))
	}
	var got []string
	for _, r := range res {
		got = append(got, fmt.Sprintf("%d/%s", r.Meta.Seed, r.Meta.Scheme))
	}
	wantOrder := "1/minmax 1/sp 2/minmax 2/sp 3/minmax 3/sp"
	if strings.Join(got, " ") != wantOrder {
		t.Fatalf("Results order = %v, want %s", got, wantOrder)
	}
}

// TestMemoRoundTrip pins the calibration memo contract: entries persist
// across reopens, identical re-puts don't append, a torn memo tail is
// skipped without losing intact entries, and Compact dedupes the file.
func TestMemoRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := topo.Ring("ring-8", 8, 1400, topo.Cap10G)
	k1 := MemoKeyFor(g, 1, 0.6, 1)
	k2 := MemoKeyFor(g, 2, 0.6, 1)
	if k1 == k2 {
		t.Fatal("seed change did not change the memo key")
	}
	if _, ok := s.Memo(k1); ok {
		t.Fatal("empty store reported a memo hit")
	}
	for i := 0; i < 3; i++ {
		if err := s.PutMemo(k1, Digest(0xaaaa)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutMemo(k2, Digest(0xbbbb)); err != nil {
		t.Fatal(err)
	}
	// Supersede k1: newest write wins in memory and on reopen.
	if err := s.PutMemo(k1, Digest(0xcccc)); err != nil {
		t.Fatal(err)
	}
	if n := countLines(t, filepath.Join(dir, memoName)); n != 3 {
		t.Fatalf("memo file has %d lines, want 3 (idempotent re-puts)", n)
	}
	s.Close()

	s2, err := OpenSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := s2.Memo(k1); !ok || d != Digest(0xcccc) {
		t.Fatalf("reopened memo k1 = %v, %v; want cccc", d, ok)
	}
	if s2.MemoLen() != 2 {
		t.Fatalf("MemoLen = %d, want 2", s2.MemoLen())
	}
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := countLines(t, filepath.Join(dir, memoName)); n != 2 {
		t.Fatalf("compacted memo has %d lines, want 2", n)
	}
	s2.Close()

	// Tear the memo tail as a kill -9 mid-append would: the intact entry
	// survives, the torn one is counted skipped, and appends still work.
	path := filepath.Join(dir, memoName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := OpenSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.MemoLen() != 1 || s3.Skipped() != 1 {
		t.Fatalf("after tear: MemoLen=%d Skipped=%d, want 1, 1", s3.MemoLen(), s3.Skipped())
	}
	if err := s3.PutMemo(k2, Digest(0xbbbb)); err != nil {
		t.Fatal(err)
	}
	s4, err := OpenSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s4.Close()
	if s4.MemoLen() != 2 {
		t.Fatalf("post-heal MemoLen=%d, want 2", s4.MemoLen())
	}
}

// TestOpenReadOnly pins the reader-side contract: an existing store opens
// without writing a byte (even with a torn tail), every mutation reports
// ErrReadOnly, and a missing directory is an error instead of a silently
// created empty store.
func TestOpenReadOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := testCell(t, 1, routing.SP{})
	if err := s.Put(r); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testCell(t, 2, routing.MinMax{})); err != nil {
		t.Fatal(err)
	}
	g := topo.Ring("ring-8", 8, 1400, topo.Cap10G)
	if err := s.PutMemo(MemoKeyFor(g, 1, 0.6, 1), Digest(1)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Tear the tail: a read-only open must tolerate it WITHOUT healing.
	shard := filepath.Join(dir, shardName(0))
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-9]
	if err := os.WriteFile(shard, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if !ro.ReadOnly() {
		t.Fatal("ReadOnly() = false")
	}
	if ro.Len() != 1 || ro.Skipped() != 1 || ro.MemoLen() != 1 {
		t.Fatalf("read-only open: Len=%d Skipped=%d MemoLen=%d, want 1, 1, 1",
			ro.Len(), ro.Skipped(), ro.MemoLen())
	}
	if _, ok := ro.Get(r.Key); !ok {
		t.Fatal("intact record missing from read-only open")
	}
	if err := ro.Put(r); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Put on read-only store: %v, want ErrReadOnly", err)
	}
	if err := ro.PutMemo(MemoKeyFor(g, 9, 0.6, 1), Digest(9)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("PutMemo on read-only store: %v, want ErrReadOnly", err)
	}
	if err := ro.Compact(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Compact on read-only store: %v, want ErrReadOnly", err)
	}
	// No byte of the store changed: the torn tail was not healed.
	after, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, torn) {
		t.Fatalf("read-only open modified the shard (%d -> %d bytes)", len(torn), len(after))
	}

	if _, err := OpenReadOnly(filepath.Join(dir, "no-such-store")); err == nil {
		t.Fatal("OpenReadOnly on a missing directory succeeded")
	}
}

// TestOpenNamesUnreadableShard pins the diagnosability fix: a shard that
// cannot be read fails Open with the shard path in the error, so a daemon
// refusing to start names the bad file.
func TestOpenNamesUnreadableShard(t *testing.T) {
	dir := t.TempDir()
	// A directory named like a shard defeats the line scanner for any
	// user, root included (a chmod-000 file would be readable to root).
	bad := filepath.Join(dir, "shard-000.jsonl")
	if err := os.Mkdir(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, open := range []func() (*Store, error){
		func() (*Store, error) { return Open(dir) },
		func() (*Store, error) { return OpenReadOnly(dir) },
	} {
		_, err := open()
		if err == nil {
			t.Fatal("Open over an unreadable shard succeeded")
		}
		if !strings.Contains(err.Error(), bad) {
			t.Fatalf("error %q does not name the shard path %q", err, bad)
		}
	}
}

func TestParseCellKey(t *testing.T) {
	r := testCell(t, 1, routing.LatencyOpt{Headroom: 0.11})
	s := r.Key.String()
	back, err := ParseCellKey(s)
	if err != nil {
		t.Fatal(err)
	}
	if back != r.Key {
		t.Fatalf("ParseCellKey(%q) = %+v, want %+v", s, back, r.Key)
	}
	for _, bad := range []string{
		"", "latopt", "g1234-m1234-c1234-sp",
		"m0000000000000000-g0000000000000000-c0000000000000000-sp",
		"g0000000000000000-m0000000000000000-c0000000000000000-",
		"gzzzzzzzzzzzzzzzz-m0000000000000000-c0000000000000000-sp",
	} {
		if _, err := ParseCellKey(bad); err == nil {
			t.Errorf("ParseCellKey(%q) accepted", bad)
		}
	}
}

func countLines(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0
		}
		t.Fatal(err)
	}
	return strings.Count(string(data), "\n")
}

// TestMetricsOfDoesNoPathWork: a scheme-built placement carries its
// shortest-path baseline, so summarizing it runs no Dijkstra. One
// ShortestPathTree costs a few allocations and the old MetricsOf ran two
// per aggregate — 480 here; what remains is a handful of per-link slices.
func TestMetricsOfDoesNoPathWork(t *testing.T) {
	g := topo.Ring("ring-16", 16, 1400, topo.Cap10G)
	res, err := tmgen.Generate(g, tmgen.Config{Seed: 1})
	if err != nil {
		t.Fatalf("tmgen: %v", err)
	}
	if res.Matrix.Len() != 240 {
		t.Fatalf("ring-16 matrix has %d aggregates, want 240", res.Matrix.Len())
	}
	for _, scheme := range []routing.Scheme{routing.SP{}, routing.B4{}, routing.MinMax{}, routing.LatencyOpt{}} {
		p, err := scheme.Place(g, res.Matrix)
		if err != nil {
			t.Fatalf("%s: %v", scheme.Name(), err)
		}
		if allocs := testing.AllocsPerRun(10, func() { MetricsOf(p) }); allocs >= 64 {
			t.Errorf("%s: MetricsOf allocates %.0f times per call, want < 64", scheme.Name(), allocs)
		}
	}
}

// fileHashes maps every file name in dir to the hex SHA-256 of its bytes.
func fileHashes(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(ents))
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fmt.Sprintf("%x", sha256.Sum256(data))
	}
	return out
}

func checkHashes(t *testing.T, when string, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d files, want %d", when, len(got), len(want))
	}
	for n, h := range want {
		if got[n] != h {
			t.Errorf("%s: %s sha256 = %s, want %s", when, n, got[n], h)
		}
	}
}

// TestStoreFilesPinned fixes the bytes both tables write — appends,
// supersessions, a healed torn tail and a compaction — so the on-disk
// format cannot drift under a refactor of the persistence code.
func TestStoreFilesPinned(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	cells := []Result{
		testCell(t, 1, routing.SP{}),
		testCell(t, 2, routing.SP{}),
		testCell(t, 1, routing.MinMax{}),
		testCell(t, 2, routing.MinMax{}),
	}
	for _, r := range cells {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	relabeled := cells[2]
	relabeled.Meta.Class = "relabeled"
	if err := s.Put(relabeled); err != nil {
		t.Fatal(err)
	}
	g := topo.Ring("ring-8", 8, 1400, topo.Cap10G)
	k1, k2 := MemoKeyFor(g, 1, 0.6, 1), MemoKeyFor(g, 2, 0.6, 1)
	for _, e := range []struct {
		k MemoKey
		d Digest
	}{{k1, 0xaaaa}, {k2, 0xbbbb}, {k1, 0xcccc}} {
		if err := s.PutMemo(e.k, e.d); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the shard holding the relabeled cell mid-record.
	shard := filepath.Join(dir, shardName(int(relabeled.Key.hash()%2)))
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shard, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSharded(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 4 || s2.Skipped() != 1 || s2.MemoLen() != 2 {
		t.Fatalf("reopen: Len=%d Skipped=%d MemoLen=%d, want 4, 1, 2", s2.Len(), s2.Skipped(), s2.MemoLen())
	}
	if got, _ := s2.Get(relabeled.Key); got != cells[2] {
		t.Fatalf("torn supersession should fall back to the first write, got %+v", got.Meta)
	}
	// Re-putting it appends to the torn shard, which heals the tail first.
	if err := s2.Put(relabeled); err != nil {
		t.Fatal(err)
	}
	checkHashes(t, "before compact", fileHashes(t, dir), map[string]string{
		"memo.jsonl":      "5f3bee009c96b76077aed15cf82d65df451b974da60cdd1231711bb7519dd2f9",
		"shard-000.jsonl": "1f3845d3aff96b1d9a3cabd208a50ff3c7b0024c283323f268b228c2a77f3d39",
		"shard-001.jsonl": "1a16782b07e1f14d1e28273e236ef59e9fb80c7a72916e5a2cf12685f0fed1ef",
	})
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	checkHashes(t, "after compact", fileHashes(t, dir), map[string]string{
		"memo.jsonl":      "fa417409f04c2418ecfd56b8cbe7a32ef58d9959e6f82467f1de2e64900582bf",
		"shard-000.jsonl": "1f3845d3aff96b1d9a3cabd208a50ff3c7b0024c283323f268b228c2a77f3d39",
		"shard-001.jsonl": "8ee849ddc6f785d81472625ce0776745761810af7633ff108b74bb4637529d67",
	})
}

// TestPutIndexMatchesDisk races two puts of different values for one key
// and checks that the index answers what the next Open loads: the append
// order and the index order must be the same order.
func TestPutIndexMatchesDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 5000
	keys := make([]CellKey, trials)
	for i := range keys {
		keys[i] = CellKey{Graph: Digest(i + 1), Matrix: 1, Scheme: "sp"}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for v := 1; v <= 4; v++ {
			r := Result{Key: keys[i], Meta: Meta{Net: "probe", Seed: int64(v)}}
			mk := MemoKey{Graph: keys[i].Graph, Seed: 1}
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := s.Put(r); err != nil {
					t.Error(err)
				}
				if err := s.PutMemo(mk, Digest(r.Meta.Seed)); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
	}
	s.Close()
	s2, err := OpenSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	bad := 0
	for _, k := range keys {
		mem, _ := s.Get(k)
		disk, _ := s2.Get(k)
		mk := MemoKey{Graph: k.Graph, Seed: 1}
		memMemo, _ := s.Memo(mk)
		diskMemo, _ := s2.Memo(mk)
		if mem != disk || memMemo != diskMemo {
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d keys: Get answers a value the reopened store does not", bad, trials)
	}
}

// TestDirWithGlobMetacharacters: a store directory is a path, never a
// pattern. "run[1]" must reopen with its cells, and a store at "a*" must
// neither load nor delete the shards of its sibling "ab".
func TestDirWithGlobMetacharacters(t *testing.T) {
	root := t.TempDir()
	put := func(dir string, r Result) {
		t.Helper()
		s, err := OpenSharded(dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	bracket := filepath.Join(root, "run[1]")
	put(bracket, testCell(t, 1, routing.SP{}))
	s, err := Open(bracket)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("%s reopened with %d cells, want 1", bracket, s.Len())
	}
	s.Close()

	sibling, star := filepath.Join(root, "ab"), filepath.Join(root, "a*")
	put(sibling, testCell(t, 2, routing.SP{}))
	put(star, testCell(t, 3, routing.SP{}))
	s, err = OpenSharded(star, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 1 {
		t.Errorf("%s opened with %d cells, want 1", star, s.Len())
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(sibling, shardName(0))); err != nil {
		t.Fatalf("compacting %s removed its sibling's shard: %v", star, err)
	}
}
