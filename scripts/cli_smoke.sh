#!/usr/bin/env sh
# CLI smoke test: build lowlat once and run the topology -> score ->
# traffic -> closed-loop pipeline on the real binary, checking every
# exit code, resume a store-backed figure run and a store-backed sweep
# across a compaction, then require exit 2 (usage error) for a malformed
# flag and for a non-positive count. `make cli-smoke` runs this locally;
# CI's short job runs it after the unit suites.
set -eu

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
bin="$tmp/lowlat"
go build -o "$bin" ./cmd/lowlat

fail() { echo "cli-smoke: FAIL: $1"; exit 1; }

# expect <code> <args...>: run lowlat with args, require exit <code>;
# stdout lands in $tmp/out, stderr in $tmp/err.
expect() {
    want=$1
    shift
    code=0
    "$bin" "$@" > "$tmp/out" 2> "$tmp/err" || code=$?
    if [ "$code" -ne "$want" ]; then
        cat "$tmp/err"
        fail "lowlat $* exited $code, want $want"
    fi
    echo "cli-smoke: lowlat $* -> exit $code"
}

expect 0 topo -net gts-like -to graphml -o "$tmp/g.graphml"
[ -s "$tmp/g.graphml" ] || fail "topo -o wrote no file"
grep -q '^wrote ' "$tmp/out" || fail "topo -o printed no confirmation"

expect 0 llpd -file "$tmp/g.graphml"
grep -q '^LLPD = ' "$tmp/out" || fail "llpd printed no LLPD line"

expect 0 tm -file "$tmp/g.graphml" -count 2 -out "$tmp"
[ -s "$tmp/g-tm0.txt" ] || fail "tm -out wrote no first matrix"
[ -s "$tmp/g-tm1.txt" ] || fail "tm -out wrote no second matrix"

expect 0 sim -net star-6 -minutes 1
grep -q '^worst queue ' "$tmp/out" || fail "sim printed no summary"

# exp -store resumes: the second run recalls every cell the first one
# checkpointed, prints the same tables and appends nothing.
shard_lines() { cat "$tmp"/exp/shard-*.jsonl 2>/dev/null | wc -l; }
expect 0 exp -name fig16 -tms 1 -max-networks 6 -max-nodes 12 -store "$tmp/exp"
cp "$tmp/out" "$tmp/exp1.out"
stored=$(shard_lines)
[ "$stored" -gt 0 ] || fail "exp -store checkpointed no cells"
expect 0 exp -name fig16 -tms 1 -max-networks 6 -max-nodes 12 -store "$tmp/exp"
cmp -s "$tmp/exp1.out" "$tmp/out" || fail "exp -store rerun printed different tables"
[ "$(shard_lines)" -eq "$stored" ] || fail "exp -store rerun placed cells again"

# sweep -store resumes across a compaction: the second run reuses every
# cell and derives every key from the calibration memo, compaction leaves
# the exported slice byte-identical, and a third run still reuses all.
grid="nets=star-6,ring-8;seeds=1,2;schemes=sp,minmax"
expect 0 sweep -store "$tmp/sweep" -grid "$grid"
grep -q ' 8 computed' "$tmp/out" || fail "sweep run 1 did not compute 8 cells"
expect 0 export -store "$tmp/sweep" -format csv
cp "$tmp/out" "$tmp/export1.csv"
expect 0 sweep -store "$tmp/sweep" -grid "$grid" -compact
grep -q '8 reused, 0 computed' "$tmp/out" || fail "sweep run 2 did not reuse every cell"
grep -q '0 matrices generated, 4 memo hits' "$tmp/out" || fail "sweep run 2 regenerated matrices"
expect 0 export -store "$tmp/sweep" -format csv
cmp -s "$tmp/export1.csv" "$tmp/out" || fail "compaction changed the exported cells"
expect 0 sweep -store "$tmp/sweep" -grid "$grid"
grep -q '8 reused, 0 computed' "$tmp/out" || fail "sweep run 3 did not reuse every cell after compaction"
grep -q '0 matrices generated, 4 memo hits' "$tmp/out" || fail "compaction lost calibration memo entries"

expect 2 route -no-such-flag
expect 2 route -tms -1
grep -q 'must be at least 1' "$tmp/err" || fail "route -tms -1 gave no reason"

echo "cli-smoke: OK"
