package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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
// sweep orchestrator's workers do; run with -race this doubles as the
// locking test.
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
			return struct{}{}, s.Put(r)
		})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 64 {
		t.Fatalf("Len=%d, want 64", s.Len())
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 64 || s2.Skipped() != 0 {
		t.Fatalf("reopen: Len=%d Skipped=%d, want 64, 0", s2.Len(), s2.Skipped())
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
