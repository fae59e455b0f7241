#!/usr/bin/env sh
# Serving smoke test: seed a tiny result store through a sweep, boot
# lowlatd on an ephemeral port, and drive the HTTP surface end to end
# with curl — query, a stored place, an on-demand computed place, a
# cached repeat, stats — then shut the daemon down with SIGTERM and
# require a clean exit. A second boot mounts the same store -readonly and
# checks that it serves stored cells but refuses computes and
# replicated writes with 403. `make serve-smoke` runs this locally; CI's
# short job runs it after the unit suites.
set -eu

store="${1:-.servestore}"
log="$(mktemp)"
bindir="$(mktemp -d)"
bin="$bindir/lowlatd"
trap 'rm -f "$log"; rm -rf "$bindir"; [ -z "${pid:-}" ] || kill "$pid" 2>/dev/null || true' EXIT

rm -rf "$store"
go run ./cmd/lowlat sweep -store "$store" -grid "nets=star-6;seeds=1;schemes=sp"
go build -o "$bin" ./cmd/lowlatd

# boot starts lowlatd with the given flags and waits for it to print its
# bound address into $base.
boot() {
    "$bin" -store "$store" -addr 127.0.0.1:0 "$@" > "$log" 2>&1 &
    pid=$!
    base=""
    for _ in $(seq 1 100); do
        base="$(sed -n 's/.*\(http:\/\/[0-9.:]*\).*/\1/p' "$log" | head -n 1)"
        [ -n "$base" ] && break
        kill -0 "$pid" 2>/dev/null || { echo "lowlatd died:"; cat "$log"; exit 1; }
        sleep 0.1
    done
    [ -n "$base" ] || { echo "lowlatd never printed its address:"; cat "$log"; exit 1; }
    echo "serve-smoke: daemon at $base ($*)"
}

boot -workers 1

fail() { echo "serve-smoke: FAIL: $1"; cat "$log"; exit 1; }

# matches PATTERN CMD...: run CMD; true when it exits 0 and its output
# matches the extended regexp PATTERN. The output is captured first: sh
# has no pipefail, so in `CMD | grep -q` CMD's exit status is lost, and grep
# quitting at its first match can cut curl off mid-write.
matches() {
    pattern="$1"
    shift
    out="$("$@")" || { echo "serve-smoke: $1 exited $?" >&2; return 1; }
    printf '%s\n' "$out" | grep -Eq -- "$pattern"
}

curl -fsS "$base/healthz" > /dev/null || fail "healthz"
matches '"count": 1' curl -fsS "$base/v1/query?scheme=sp" || fail "query"

# The swept cell serves from the store; a new scheme computes on demand;
# the repeat is a cache hit.
body='{"net":"star-6","seed":1,"scheme":"minmax"}'
matches '"source": "store"' curl -fsS "$base/v1/place" -d '{"net":"star-6","seed":1,"scheme":"sp"}' \
    || fail "stored place"
matches '"source": "computed"' curl -fsS "$base/v1/place" -d "$body" || fail "computed place"
matches '"source": "cache"' curl -fsS "$base/v1/place" -d "$body" || fail "cached place"
matches '"classes"' curl -fsS "$base/v1/summary" || fail "summary"
matches '"computed": 1' curl -fsS "$base/v1/stats" || fail "stats"

# The observability surface: /v1/stats carries per-stage latency
# quantiles, /metrics speaks Prometheus text format (scalar counters plus
# the stage histograms — the computed place above recorded a solve), and
# /v1/slow answers even when empty.
matches '"stages"' curl -fsS "$base/v1/stats" || fail "stats stages"
metrics="$(curl -fsS "$base/metrics")"
echo "$metrics" | grep -q '^lowlat_place_requests_total 3$' || fail "metrics place counter"
echo "$metrics" | grep -q '^lowlat_computed_total 1$' || fail "metrics computed counter"
echo "$metrics" | grep -q '# TYPE lowlat_stage_latency_seconds histogram' || fail "metrics histogram type"
echo "$metrics" | grep -q 'lowlat_stage_latency_seconds_count{stage="solve"}' || fail "metrics solve histogram"
echo "$metrics" | grep -q 'lowlat_stage_latency_seconds_bucket{stage="http_place",le="+Inf"}' || fail "metrics http histogram"
echo "$metrics" | grep -q '^# HELP lowlat_place_requests_total ' || fail "metrics HELP line"
matches '"total"' curl -fsS "$base/v1/slow" || fail "slow ring"

# The health plane: /v1/health rolls the daemon up to ok (a -slo-less
# daemon has no objectives to burn), /v1/events serves the journal
# cursor, and a second /metrics scrape after more traffic must move the
# counters forward — monotonicity is what makes them rate()-able.
matches '"status": "ok"' curl -fsS "$base/v1/health" || fail "health report"
matches '"next_since"' curl -fsS "$base/v1/events?since=0" || fail "events cursor"
counter() { echo "$1" | sed -n 's/^lowlat_place_requests_total \([0-9]*\)$/\1/p'; }
curl -fsS "$base/v1/place" -d "$body" > /dev/null || fail "place before rescrape"
metrics2="$(curl -fsS "$base/metrics")"
first="$(counter "$metrics")"
second="$(counter "$metrics2")"
[ "$second" -gt "$first" ] || fail "metrics not monotonic: place counter $first -> $second"

kill -TERM "$pid"
wait "$pid" || fail "daemon exit status"
grep -q "shut down cleanly" "$log" || fail "clean shutdown message"
pid=""

# The same store mounted -readonly: the swept cell still serves from the
# store, a never-placed scheme and a replicated write are refused with
# 403, and the stats name the read-only mount.
boot -readonly
status() { curl -s -o /dev/null -w '%{http_code}' "$@"; }
matches '"source": "store"' curl -fsS "$base/v1/place" -d '{"net":"star-6","seed":1,"scheme":"sp"}' \
    || fail "read-only stored place"
[ "$(status "$base/v1/place" -d '{"net":"star-6","seed":1,"scheme":"b4"}')" = 403 ] \
    || fail "read-only compute not refused with 403"
stats="$(curl -fsS "$base/v1/stats")"
echo "$stats" | grep -q '"backend": "store"' || fail "read-only stats backend"
echo "$stats" | grep -q '"read_only": true' || fail "read-only stats flag"
[ "$(status "$base/v1/replicate" -d '{"key":{"graph":"1","matrix":"2","scheme":"sp","config":"3"}}')" = 403 ] \
    || fail "read-only replicate not refused with 403"
kill -TERM "$pid"
wait "$pid" || fail "read-only daemon exit status"
grep -q "shut down cleanly" "$log" || fail "read-only clean shutdown message"
pid=""

# The computed cell persisted: the store now has both.
matches "2 of 2 stored cells matched" go run ./cmd/lowlat query -store "$store" || fail "persisted cell"
echo "serve-smoke: OK"
