# Local mirror of the CI pipeline (.github/workflows/ci.yml), with no
# `go generate` step and no network requirement: `make ci` reproduces the
# lint + short-test + bench gates contributors see on a pull request.
# `make race` additionally runs the long race-detector suite (the CI job
# that takes tens of minutes).

GO ?= go

.PHONY: ci vet staticcheck analyze shellcheck govulncheck build short bench race cli-smoke serve-smoke cluster-smoke predict-gate examples-smoke clean

ci: vet staticcheck analyze shellcheck build short cli-smoke serve-smoke cluster-smoke predict-gate examples-smoke bench

# bench/ is its own module, compiled against internal APIs: `go vet
# ./...` at the root never reaches it.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...

# Invariant analyzer suite (internal/analysis: detrange, atomicguard,
# locked, sentinelerr, ctxflow, goexit): TestSuiteSelfGate loads every
# package of the module (bench/ included) and fails on any finding, and
# the `// want` goldens pin each analyzer — see docs/DEVELOPING.md.
analyze:
	$(GO) test -count=1 ./internal/analysis

# shellcheck is optional locally, like staticcheck: skip with a pointer
# when the binary is missing (CI always has it).
shellcheck:
	@if command -v shellcheck >/dev/null 2>&1; then \
		shellcheck scripts/*.sh; \
	else \
		echo "shellcheck not installed; skipping (apt install shellcheck)"; \
	fi

# govulncheck needs the vulnerability database, so it is a standalone
# target (CI runs it in the lint job) rather than part of `make ci`.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# staticcheck is optional locally: skip with a pointer when the binary is
# missing instead of failing the whole gate (CI always installs it).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2024.1.1)"; \
	fi

build:
	$(GO) build ./...

# bench/ is a module of its own, so ./... never reaches its unit tests.
short:
	$(GO) test -short -timeout 20m ./...
	$(GO) test -C bench ./...

# One iteration of the landscape + dynamics benchmarks, archived the same
# way CI archives its BENCH_ci.json artifact.
bench:
	./scripts/bench_json.sh BENCH_ci.json

race:
	$(GO) test -race -timeout 75m ./...

# CLI smoke test: build lowlat once and run topo -> llpd -> tm -> sim on
# the real binary, checking each exit code, resume a figure run and a
# sweep from a store (the sweep across a compaction), plus exit 2 for a
# bad flag and a non-positive count. Leaves nothing behind.
cli-smoke:
	sh ./scripts/cli_smoke.sh

# Serving smoke test: seed a tiny store, boot lowlatd on an ephemeral
# port, curl query/place/stats end to end, and require a clean SIGTERM
# shutdown. The store directory is gitignored; `make clean` removes it.
SERVE_STORE ?= .servestore
serve-smoke:
	sh ./scripts/serve_smoke.sh $(SERVE_STORE)

# Predictive fast-path error gate: sweep a small grid across a load
# line, train interpolation surfaces on alternating load points, and
# fail if the held-out prediction error exceeds the bound pinned in the
# script. The store directory is gitignored; `make clean` removes it.
PREDICT_STORE ?= .predictstore
predict-gate:
	sh ./scripts/predict_gate.sh $(PREDICT_STORE)

# Cluster smoke test, two acts: (1) sharding — seed two disjoint
# stores, boot two lowlatd replicas on ephemeral ports, drive `lowlat
# query/export/sweep -cluster` through the consistent-hash ring, kill
# one replica, and verify rerouted answers; (2) replication — three
# replicas at -replicas 2, kill one mid-run with zero failed lookups,
# rebuild it from an empty store via `lowlat heal`, and verify by
# digest. The store directories are gitignored; `make clean` removes
# them.
CLUSTER_STORE ?= .clusterstore
cluster-smoke:
	sh ./scripts/cluster_smoke.sh $(CLUSTER_STORE)

# Examples smoke test: build every examples/* program — the root
# facade's only callers — and run each in a scratch directory, failing
# on a non-zero exit or empty stdout. Leaves nothing behind.
examples-smoke:
	sh ./scripts/examples_smoke.sh

clean:
	rm -f BENCH_ci.json
	rm -rf bin
	rm -rf $(SERVE_STORE) $(PREDICT_STORE)
	rm -rf $(CLUSTER_STORE)-a $(CLUSTER_STORE)-b $(CLUSTER_STORE)-sweep
	rm -rf $(CLUSTER_STORE)-r1 $(CLUSTER_STORE)-r2 $(CLUSTER_STORE)-r3 $(CLUSTER_STORE)-rsweep
