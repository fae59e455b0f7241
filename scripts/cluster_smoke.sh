#!/usr/bin/env sh
# Cluster smoke test in two acts. Act one (sharding, R=1): seed two
# disjoint result stores through sweeps, boot two lowlatd replicas on
# ephemeral ports, drive `lowlat query -cluster` and a farmed-out
# `lowlat sweep -cluster` against the pair, then kill one replica and
# verify the consistent-hash ring reroutes its keys to the survivor with
# the CLI still answering. Act two (replication, R=2): boot three
# replicas, seed cells through a replicated ring so every cell lands on
# its key's two owners, kill one replica mid-run (zero failed lookups),
# restart it over an EMPTY store, and verify `lowlat heal` rebuilds it —
# a second heal must find nothing left to copy and the export through
# the ring must be byte-identical to the pre-kill export.
# `make cluster-smoke` runs this locally; CI's short job runs it after
# the unit suites.
set -eu

store_a="${1:-.clusterstore}-a"
store_b="${1:-.clusterstore}-b"
store_sweep="${1:-.clusterstore}-sweep"
store_r1="${1:-.clusterstore}-r1"
store_r2="${1:-.clusterstore}-r2"
store_r3="${1:-.clusterstore}-r3"
store_rsweep="${1:-.clusterstore}-rsweep"
log_a="$(mktemp)"
log_b="$(mktemp)"
log_r1="$(mktemp)"
log_r2="$(mktemp)"
log_r3="$(mktemp)"
bindir="$(mktemp -d)"
trap 'rm -f "$log_a" "$log_b" "$log_r1" "$log_r2" "$log_r3"; rm -rf "$bindir"; for p in "${pid_a:-}" "${pid_b:-}" "${pid_r1:-}" "${pid_r2:-}" "${pid_r3:-}"; do [ -z "$p" ] || kill "$p" 2>/dev/null || true; done' EXIT

rm -rf "$store_a" "$store_b" "$store_sweep" "$store_r1" "$store_r2" "$store_r3" "$store_rsweep"
go build -o "$bindir/lowlatd" ./cmd/lowlatd
go build -o "$bindir/lowlat" ./cmd/lowlat

"$bindir/lowlat" sweep -store "$store_a" -grid "nets=star-6;seeds=1;schemes=sp"
"$bindir/lowlat" sweep -store "$store_b" -grid "nets=ring-8;seeds=1;schemes=sp"

"$bindir/lowlatd" -store "$store_a" -addr 127.0.0.1:0 -workers 1 > "$log_a" 2>&1 &
pid_a=$!
"$bindir/lowlatd" -store "$store_b" -addr 127.0.0.1:0 -workers 1 > "$log_b" 2>&1 &
pid_b=$!

wait_addr() { # logfile pid -> base url on stdout
    base=""
    for _ in $(seq 1 100); do
        base="$(sed -n 's/.*\(http:\/\/[0-9.:]*\).*/\1/p' "$1" | head -n 1)"
        [ -n "$base" ] && break
        kill -0 "$2" 2>/dev/null || { echo "lowlatd died:" >&2; cat "$1" >&2; exit 1; }
        sleep 0.1
    done
    [ -n "$base" ] || { echo "lowlatd never printed its address:" >&2; cat "$1" >&2; exit 1; }
    echo "$base"
}
base_a="$(wait_addr "$log_a" "$pid_a")"
base_b="$(wait_addr "$log_b" "$pid_b")"
cluster="$base_a,$base_b"
echo "cluster-smoke: replicas at $cluster"

fail() { echo "cluster-smoke: FAIL: $1"; cat "$log_a" "$log_b"; exit 1; }

# matches PATTERN CMD...: run CMD; true when it exits 0 and its output
# matches the extended regexp PATTERN. The output is captured first: sh
# has no pipefail, so in `CMD | grep -q` CMD's exit status is lost, and a sweep
# that exits 1 after printing " 0 failed" would pass.
matches() {
    pattern="$1"
    shift
    out="$("$@")" || { echo "cluster-smoke: $1 exited $?" >&2; return 1; }
    printf '%s\n' "$out" | grep -Eq -- "$pattern"
}

# lines CMD...: the line count of CMD's output; empty when CMD fails.
lines() { out="$("$@")" && printf '%s\n' "$out" | wc -l; }

# The ring's merged query sees both shards (1 cell each).
matches "2 of 2 stored cells matched" "$bindir/lowlat" query -cluster "$cluster" -scheme sp \
    || fail "cluster query"

# Export through the cluster: CSV header + 2 rows, remote or not.
[ "$(lines "$bindir/lowlat" export -cluster "$cluster" -format csv)" = "3" ] || fail "cluster export"

# A sweep farms its missing placements out through the ring and still
# checkpoints locally (4 cells: 2 nets x 2 seeds, 2 already on replicas).
matches " 0 failed" "$bindir/lowlat" sweep -store "$store_sweep" -cluster "$cluster" \
    -grid "nets=star-6,ring-8;seeds=1,2;schemes=sp" -workers 1 || fail "farmed-out sweep"
matches "4 of 4 stored cells matched" "$bindir/lowlat" query -store "$store_sweep" \
    || fail "local checkpoint after farm-out"

# Kill one replica: the ring must reroute its keys to the survivor and
# the CLI must keep answering with zero failed requests.
kill -TERM "$pid_b"
wait "$pid_b" 2>/dev/null || true
pid_b=""
matches "stored cells matched" "$bindir/lowlat" query -cluster "$cluster" -scheme sp \
    || fail "query after replica kill"
matches " 0 failed" "$bindir/lowlat" sweep -store "$store_sweep" -cluster "$cluster" \
    -grid "nets=star-6,ring-8;seeds=3;schemes=sp" -workers 1 || fail "rerouted sweep after replica kill"

kill -TERM "$pid_a"
wait "$pid_a" || fail "replica A exit status"
grep -q "shut down cleanly" "$log_a" || fail "clean shutdown"
pid_a=""
echo "cluster-smoke: act one (sharding) OK"

# ---- Act two: replication (R=2) over three replicas. ----

rfail() { echo "cluster-smoke: FAIL: $1"; cat "$log_r1" "$log_r2" "$log_r3"; exit 1; }

# digest_count BASE -> the replica's stored-cell count via /v1/digest.
digest_count() {
    curl -fsS "$1/v1/digest" | tr -d ' \t\n' | sed 's/.*"count"://;s/[,}].*//'
}

start_replica() { # storedir logfile addr -> pid via $started_pid, url via $started_url
    "$bindir/lowlatd" -store "$1" -addr "$3" -workers 1 > "$2" 2>&1 &
    started_pid=$!
    started_url="$(wait_addr "$2" "$started_pid")"
}

start_replica "$store_r1" "$log_r1" 127.0.0.1:0; pid_r1=$started_pid; base_r1=$started_url
start_replica "$store_r2" "$log_r2" 127.0.0.1:0; pid_r2=$started_pid; base_r2=$started_url
start_replica "$store_r3" "$log_r3" 127.0.0.1:0; pid_r3=$started_pid; base_r3=$started_url
rcluster="$base_r1,$base_r2,$base_r3"
echo "cluster-smoke: R=2 replicas at $rcluster"

# Seed 4 cells through the replicated ring: each cell lands on both of
# its key's ring owners (plus the computing replica's own store when
# that differs), so the three stores hold 8..12 copies between them —
# the exact split depends on the ephemeral-port ring layout.
matches " 0 failed" "$bindir/lowlat" sweep -store "$store_rsweep" -cluster "$rcluster" -replicas 2 \
    -grid "nets=star-6,ring-8;seeds=1,2;schemes=sp" -workers 1 || rfail "replicated seed sweep"
total=$(( $(digest_count "$base_r1") + $(digest_count "$base_r2") + $(digest_count "$base_r3") ))
{ [ "$total" -ge 8 ] && [ "$total" -le 12 ]; } || rfail "expected 8..12 replicated copies across 3 stores, found $total"
"$bindir/lowlat" export -cluster "$rcluster" -replicas 2 -format csv > "$bindir/export_before.csv"
[ "$(wc -l < "$bindir/export_before.csv")" = "5" ] || rfail "replicated export"

# The health plane answers on every replica: a healthy daemon rolls up
# to ok and serves its event journal with a cursor.
matches '"status": "ok"' curl -fsS "$base_r1/v1/health" || rfail "replica health report"
matches '"next_since"' curl -fsS "$base_r1/v1/events?since=0" || rfail "replica events cursor"

# Kill one replica mid-run: every cell still has a live owner, so reads
# through the replicated ring must keep answering with zero failures.
# (The "of N" total counts copies on live replicas and depends on how
# the ephemeral-port ring split ownership; the 4 matched cells do not.)
kill -TERM "$pid_r3"
wait "$pid_r3" 2>/dev/null || true
pid_r3=""
matches "4 of [0-9]* stored cells matched" "$bindir/lowlat" query -cluster "$rcluster" -replicas 2 -scheme sp \
    || rfail "query with a dead replica"
[ "$(lines "$bindir/lowlat" export -cluster "$rcluster" -replicas 2 -format csv)" = "5" ] \
    || rfail "export with a dead replica"

# Restart the dead replica over an EMPTY store — a lost disk — on its
# old address (ownership is a pure function of the cluster URLs), then
# heal: the sweep exchanges key inventories and copies every cell the
# rebuilt replica owns back onto it. A second heal proves convergence
# (nothing left to copy), and the export through the ring must be
# byte-identical to the pre-kill export — zero lost cells.
rm -rf "$store_r3"
start_replica "$store_r3" "$log_r3" "${base_r3#http://}"; pid_r3=$started_pid
[ "$started_url" = "$base_r3" ] || rfail "rebuilt replica came back on $started_url, want $base_r3"
[ "$(digest_count "$base_r3")" = "0" ] || rfail "rebuilt replica should start empty"
matches " 0 failed" "$bindir/lowlat" heal -cluster "$rcluster" -replicas 2 || rfail "heal after rebuild"
total=$(( $(digest_count "$base_r1") + $(digest_count "$base_r2") + $(digest_count "$base_r3") ))
{ [ "$total" -ge 8 ] && [ "$total" -le 12 ]; } || rfail "expected 8..12 copies after heal, found $total"
matches "(0 healed, 0 drained, 0 failed|already converged)" "$bindir/lowlat" heal -cluster "$rcluster" -replicas 2 \
    || rfail "second heal should have nothing to copy"
"$bindir/lowlat" export -cluster "$rcluster" -replicas 2 -format csv > "$bindir/export_after.csv"
cmp -s "$bindir/export_before.csv" "$bindir/export_after.csv" \
    || rfail "export after rebuild+heal differs from the pre-kill export"

for p in "$pid_r1" "$pid_r2" "$pid_r3"; do kill -TERM "$p"; wait "$p" || rfail "replica exit status"; done
grep -q "shut down cleanly" "$log_r3" || rfail "clean replicated shutdown"
pid_r1=""; pid_r2=""; pid_r3=""
echo "cluster-smoke: OK"
