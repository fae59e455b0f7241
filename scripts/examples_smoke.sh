#!/usr/bin/env sh
# Examples smoke test: build every examples/* program and run each in a
# fresh scratch directory (several create *.store directories in their
# working directory), failing on a non-zero exit or empty stdout. The
# examples are the root package's only callers, so this run is what
# keeps the library facade working. `make examples-smoke` runs this
# locally; CI's short job runs it after the unit suites.
set -eu

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail() { echo "examples-smoke: FAIL: $1"; exit 1; }

for dir in examples/*/; do
    name="$(basename "$dir")"
    go build -o "$tmp/bin/$name" "./examples/$name" || fail "$name does not build"
    mkdir -p "$tmp/run/$name"
    code=0
    (cd "$tmp/run/$name" && "$tmp/bin/$name") > "$tmp/out" 2> "$tmp/err" || code=$?
    if [ "$code" -ne 0 ]; then
        cat "$tmp/err"
        fail "$name exited $code"
    fi
    [ -s "$tmp/out" ] || fail "$name printed nothing on stdout"
    echo "examples-smoke: $name -> exit 0, $(wc -l < "$tmp/out") lines"
done

echo "examples-smoke: OK"
