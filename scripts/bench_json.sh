#!/usr/bin/env sh
# Runs the CI benchmark subset (the landscape sweep once, the
# predictive-vs-exact place pair that tracks the fast path's speedup claim
# and the ladder rungs at fixed iteration counts) and converts the
# `go test -bench -benchmem` output into a flat JSON object mapping
# benchmark name -> ns/op, with "<name> B/op" and "<name> allocs/op" rows
# beside it and a "host" object (CPU model, nproc, GOMAXPROCS, go version,
# commit) saying where it ran, written to $1 (default BENCH_ci.json). CI
# archives the file on every push so the repository accumulates a perf
# trajectory; `make bench` produces the same file locally, and each PR
# checks in a snapshot as BENCH_pr<N>.json.
set -eu

out="${1:-BENCH_ci.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# No pipe into tee: POSIX sh has no pipefail, and the bench exit status
# must fail the job. An iteration is a whole landscape sweep, so one.
go test -run NONE -benchmem -bench 'Landscape' -benchtime 1x ./... > "$tmp"

# The place pair: ExactPlace is a whole miss (matrix calibration and a
# solve, under a millisecond), PredictivePlace an interpolation (about a
# microsecond), so fixed iteration counts that leave one sample's noise
# behind, never 1x.
go test -run NONE -benchmem -bench 'ExactPlace' -benchtime 300x ./internal/backend >> "$tmp"
go test -run NONE -benchmem -bench 'PredictivePlace' -benchtime 20000x ./internal/backend >> "$tmp"

# The histogram/windowed record hot paths are nanoseconds, so
# -benchtime 1x would measure clock noise; give them real iterations in
# a second, cheap run and merge the rows before the JSON conversion. The
# budgets they track: HistogramRecord and WindowedRecord < 100 ns/op
# (the PR8/PR9 Record budgets); WindowRotate is the slow path recorders
# never block on, tracked for trajectory only.
go test -run NONE -benchmem -bench 'HistogramRecord|WindowedRecord' -benchtime 200000x ./internal/obs >> "$tmp"
go test -run NONE -benchmem -bench 'WindowRotate' -benchtime 20000x ./internal/obs >> "$tmp"

# The ladder's matrix rung: one calibrated matrix per place_cold net, on a
# never-used path cache (cold) and on the net's shared one (warm). An
# iteration is tens of milliseconds and the first one pays the page
# faults, so it runs at a fixed 20 iterations, never 1x.
go test -run NONE -benchmem -bench 'GenerateMatrix' -benchtime 20x ./internal/tmgen >> "$tmp"

# The control-cycle rung: one Controller.Optimize (predict, LP,
# multiplexing appraisal) per reopt_loop net on a long-lived controller.
# A cycle is milliseconds and its cost depends on the measurement set, so
# 24 iterations — four passes over the six sets — never 1x.
go test -run NONE -benchmem -bench 'ControlCycle' -benchtime 24x ./internal/core >> "$tmp"

# The re-optimisation rungs: one epoch of a reopt_loop failure timeline
# (fresh runner, so cold path caches, per iteration of two six-epoch
# timelines; ns/op is per epoch) on each of that workload's nets, and the
# assembly alone of one overloaded epoch's path LP. An epoch is tens of
# milliseconds, so 20 iterations (240 epochs); an assembly is tens of
# microseconds, so 2000. These replace the single-sample
# BenchmarkDynamicsTimeline row.
go test -run NONE -benchmem -bench 'DynamicsEpoch' -benchtime 20x ./internal/dynamics >> "$tmp"
go test -run NONE -benchmem -bench 'PathLPBuild' -benchtime 2000x ./internal/routing >> "$tmp"

# The serving rungs: one /v1/place through the whole handler (httptest
# recorder, no socket) answered by the mounted cache tier's LRU
# (cache_hit) or by backend.Local's store-hit path under it (store_hit),
# and one Place answered by backend.Cached alone. Tens of microseconds
# and about one, so fixed iteration counts large enough to leave clock
# granularity behind, never 1x.
go test -run NONE -benchmem -bench 'ServePlace' -benchtime 20000x ./internal/serve >> "$tmp"
go test -run NONE -benchmem -bench 'CachedPlaceHit' -benchtime 200000x ./internal/backend >> "$tmp"
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
  $1 ~ /^Benchmark/ && $4 == "ns/op" {
    name = $1
    if (match(name, /-[0-9]+$/)) {   # the GOMAXPROCS suffix
      procs = substr(name, RSTART + 1)
      name = substr(name, 1, RSTART - 1)
    }
    row(name, $3)
    for (i = 5; i < NF; i += 2) {
      if ($(i + 1) == "B/op" || $(i + 1) == "allocs/op") row(name " " $(i + 1), $i)
    }
  }
  BEGIN { printf "{\n" }
  END {
    row("host", sprintf("{\"cpu\": \"%s\", \"nproc\": %d, \"gomaxprocs\": %d, \"go\": \"%s\", \"commit\": \"%s\"}",
      cpu, nproc, procs ? procs : 1, gover, commit))
    printf "\n}\n"
  }
' "$tmp" > "$out"

echo "wrote $out:"
cat "$out"
