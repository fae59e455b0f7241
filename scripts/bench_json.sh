#!/usr/bin/env sh
# Runs the CI benchmark subset (the landscape sweep at one iteration, the
# predictive-vs-exact place pair that tracks the fast path's speedup claim
# and the ladder rungs at fixed iteration counts), each benchmark five
# times (-count 5), and converts the `go test -bench -benchmem` output into
# a flat JSON object mapping benchmark name -> ns/op, with "<name> B/op",
# "<name> allocs/op" and any custom "<name> <unit>" rows beside it, every
# row the median of its five samples (one sample swings several-fold with
# a busy neighbour on a small VM), and a "host" object (CPU model, nproc,
# GOMAXPROCS, go version, commit) saying where it ran, written to $1
# (default BENCH_ci.json). CI
# archives the file on every push so the repository accumulates a perf
# trajectory; `make bench` produces the same file locally, and each PR
# checks in a snapshot as BENCH_pr<N>.json.
set -eu

out="${1:-BENCH_ci.json}"
count=5
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# No pipe into tee: POSIX sh has no pipefail, and the bench exit status
# must fail the job. An iteration is a whole landscape sweep, so one.
go test -run NONE -count "$count" -benchmem -bench 'Landscape' -benchtime 1x ./... > "$tmp"

# The place pair: ExactPlace is a whole miss (matrix calibration and a
# solve, under a millisecond), PredictivePlace an interpolation (about a
# microsecond), so fixed iteration counts that leave one sample's noise
# behind, never 1x.
go test -run NONE -count "$count" -benchmem -bench 'ExactPlace' -benchtime 300x ./internal/backend >> "$tmp"
go test -run NONE -count "$count" -benchmem -bench 'PredictivePlace' -benchtime 20000x ./internal/backend >> "$tmp"

# The histogram/windowed record hot paths are nanoseconds, so
# -benchtime 1x would measure clock noise; give them real iterations in
# a second, cheap run and merge the rows before the JSON conversion. The
# budgets they track: HistogramRecord and WindowedRecord < 100 ns/op
# (the PR8/PR9 Record budgets); WindowRotate is the slow path recorders
# never block on, tracked for trajectory only.
go test -run NONE -count "$count" -benchmem -bench 'HistogramRecord|WindowedRecord' -benchtime 200000x ./internal/obs >> "$tmp"
go test -run NONE -count "$count" -benchmem -bench 'WindowRotate' -benchtime 20000x ./internal/obs >> "$tmp"

# The ladder's matrix rung: one calibrated matrix per place_cold net, on a
# never-used path cache (cold) and on the net's shared one (warm). An
# iteration is tens of milliseconds and the first one pays the page
# faults, so it runs at a fixed 20 iterations, never 1x.
go test -run NONE -count "$count" -benchmem -bench 'GenerateMatrix' -benchtime 20x ./internal/tmgen >> "$tmp"

# The locality rung: the footnote-3 transportation LP alone, assembled and
# solved on a warm path cache (ring-16; tree-2x4, 930 variables by 62
# rows). pivots/op pins the pivot sequence beside the time. An iteration
# is milliseconds, so 40.
go test -run NONE -count "$count" -benchmem -bench 'LocalityLP' -benchtime 40x ./internal/tmgen >> "$tmp"

# The control-cycle rung: one Controller.Optimize (predict, LP,
# multiplexing appraisal) per reopt_loop net on a long-lived controller.
# A cycle is milliseconds and its cost depends on the measurement set, so
# 24 iterations — four passes over the six sets — never 1x.
go test -run NONE -count "$count" -benchmem -bench 'ControlCycle' -benchtime 24x ./internal/core >> "$tmp"

# The re-optimisation rungs: one epoch of a reopt_loop failure timeline
# (fresh runner, so cold path caches, per iteration of two six-epoch
# timelines; ns/op is per epoch) on each of that workload's nets, and the
# assembly alone of one overloaded epoch's path LP. An epoch is tens of
# milliseconds, so 20 iterations (240 epochs); an assembly is tens of
# microseconds, so 2000. These replace the single-sample
# BenchmarkDynamicsTimeline row.
go test -run NONE -count "$count" -benchmem -bench 'DynamicsEpoch' -benchtime 20x ./internal/dynamics >> "$tmp"
go test -run NONE -count "$count" -benchmem -bench 'PathLPBuild' -benchtime 2000x ./internal/routing >> "$tmp"

# The serving rungs: one /v1/place through the whole handler (httptest
# recorder, no socket) answered by the mounted cache tier's LRU
# (cache_hit) or by backend.Local's store-hit path under it (store_hit),
# one Place answered by backend.Cached alone, and one answered by
# backend.Local from its store. Tens of microseconds, about one and a
# few, so fixed iteration counts large enough to leave clock granularity
# behind, never 1x.
go test -run NONE -count "$count" -benchmem -bench 'ServePlace' -benchtime 20000x ./internal/serve >> "$tmp"
go test -run NONE -count "$count" -benchmem -bench 'CachedPlaceHit|LocalStoreHit' -benchtime 200000x ./internal/backend >> "$tmp"
cat "$tmp"

# Where the numbers were taken: ladder figures compare only on one host.
cpu="$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)"
cpu="$(printf '%s' "${cpu:-$(uname -m)}" | sed 's/["\\]/\\&/g')"
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git status --porcelain --untracked-files=no 2>/dev/null)" ]; then
  commit="$commit+dirty"
fi

awk -v cpu="$cpu" -v nproc="$(getconf _NPROCESSORS_ONLN)" \
    -v gover="$(go env GOVERSION)" -v commit="$commit" '
  function row(key, val) {
    if (count++) printf ",\n"
    printf "  \"%s\": %s", key, val
  }
  function sample(key, val) {
    if (!(key in n)) order[keys++] = key
    v[key, n[key]++] = val
  }
  # The median of the samples of key, sorted in place (insertion sort: five).
  function median(key,   i, j, x, k) {
    k = n[key]
    for (i = 1; i < k; i++) {
      x = v[key, i]
      for (j = i - 1; j >= 0 && v[key, j] + 0 > x + 0; j--) v[key, j + 1] = v[key, j]
      v[key, j + 1] = x
    }
    if (k % 2) return v[key, (k - 1) / 2]
    return (v[key, k / 2 - 1] + v[key, k / 2]) / 2
  }
  $1 ~ /^Benchmark/ && $4 == "ns/op" {
    name = $1
    if (match(name, /-[0-9]+$/)) {   # the GOMAXPROCS suffix
      procs = substr(name, RSTART + 1)
      name = substr(name, 1, RSTART - 1)
    }
    sample(name, $3)
    for (i = 5; i < NF; i += 2) sample(name " " $(i + 1), $i)
  }
  BEGIN { printf "{\n" }
  END {
    for (i = 0; i < keys; i++) row(order[i], median(order[i]))
    row("host", sprintf("{\"cpu\": \"%s\", \"nproc\": %d, \"gomaxprocs\": %d, \"go\": \"%s\", \"commit\": \"%s\"}",
      cpu, nproc, procs ? procs : 1, gover, commit))
    printf "\n}\n"
  }
' "$tmp" > "$out"

echo "wrote $out:"
cat "$out"
