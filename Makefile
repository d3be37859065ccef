GO ?= go

.PHONY: all build test race lint lint-sarif lint-diff fuzz-smoke bench bench-smoke bench-json bench-ingest bench-ingest-smoke bench-shard bench-shard-smoke bench-album-smoke bench-slo-smoke bench-e2e-smoke ci

# Label for the bench-json artifact (BENCH_<label>.json).
BENCH_LABEL ?= local

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# go vet, then the project-specific suite: rawiri, locksafe, ctxflow,
# errdrop, spanend, the dataflow analyzers bufescape, leasehold and
# localid, the interprocedural analyzers lockorder and goleak, and the
# concurrency-contract analyzers atomicmix, hookreent and statshold
# (thirteen in all). Fails on any vet or lodlint finding; see
# DESIGN.md §7, §11, §12 and §16.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/lodlint ./...

# The lint SARIF document: same findings as `make lint`, as a CI
# artifact for code-scanning viewers. Exit code 1 (findings) still
# produces the report; only hard errors (exit 2) fail the write.
lint-sarif:
	$(GO) run ./cmd/lodlint -sarif ./... > lodlint.sarif || [ $$? -eq 1 ]

# Diff-mode lint for pull requests: the merge-base ref is analyzed in
# a throwaway worktree as the baseline, every finding is still
# printed, but only findings absent from the baseline fail the run —
# analyzer upgrades that surface pre-existing debt do not block
# unrelated PRs. Override LINT_BASE_REF to diff against another ref.
LINT_BASE_REF ?= origin/main
lint-diff:
	$(GO) run ./cmd/lodlint -since "$$(git merge-base $(LINT_BASE_REF) HEAD)" ./...

# Short fuzz run of the N-Quads line parser: exercises the PR-4
# parse/serialize round-trip contract on every push (CI gate).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseNQuadLine -fuzztime=10s ./internal/rdf

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: catches benchmarks that panic or
# assert without paying full measurement time (CI gate).
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Machine-readable experiment results: one JSON document per run,
# suitable for CI artifacts and regression diffing.
bench-json:
	$(GO) run ./cmd/benchreport -json -label $(BENCH_LABEL) > BENCH_$(BENCH_LABEL).json

# The BENCH_4 bulk-ingest measurement: 500k statements through the
# sequential and bulk load paths plus the streaming dump. Run each
# benchmark in its own process so heap state from one leg cannot skew
# the next (see EXPERIMENTS.md).
bench-ingest:
	LODIFY_INGEST_QUADS=500000 $(GO) test -run=NONE -bench='^BenchmarkLoadNQuadsSequential$$' -benchmem -benchtime=3x ./internal/store/
	LODIFY_INGEST_QUADS=500000 $(GO) test -run=NONE -bench='^BenchmarkLoadNQuadsBulk$$' -benchmem -benchtime=3x ./internal/store/
	LODIFY_INGEST_QUADS=500000 $(GO) test -run=NONE -bench='^BenchmarkDumpNQuads$$' -benchmem -benchtime=3x ./internal/store/

# Race-enabled smoke of the same pipeline on a small corpus: exercises
# the chunked reader, worker pool and batch apply under the race
# detector without paying 500k-quad measurement time (CI gate).
bench-ingest-smoke:
	LODIFY_INGEST_QUADS=20000 $(GO) test -race -run=NONE -bench='LoadNQuads|DumpNQuads' -benchtime=1x ./internal/store/

# The shard writer-scaling sweep: the same synthetic dump bulk-loaded
# at 1, 2, 4 and 8 shards with one loader goroutine per shard, under
# concurrent leased readers. GOMAXPROCS is pinned so the sweep measures
# lock contention, not scheduler luck on smaller machines.
bench-shard:
	GOMAXPROCS=8 $(GO) run ./cmd/benchreport -exp shard -ingestQuads 500000 -json -label shard > BENCH_shard.json

# The BENCH_8 artifact: the same sweep at a CI-friendly corpus size.
bench-shard-smoke:
	GOMAXPROCS=4 $(GO) run ./cmd/benchreport -exp shard -ingestQuads 100000 -json -label 8 > BENCH_8.json

# The album smoke: 1k materialized keyword albums read under
# concurrent ingest against per-request evaluation, with maintenance
# lag metered. GOMAXPROCS is pinned for stable numbers on shared CI
# machines. (The committed BENCH_9.json is the PR 9 run of this plus
# the cost-vs-greedy planner leg — the evidence greedy was deleted on —
# and is no longer regenerated.)
bench-album-smoke:
	GOMAXPROCS=4 $(GO) run ./cmd/benchreport -exp album -albums 1000 -json -label album > BENCH_album.json

# The SLO gate (CI): drive a live cmd/lodify binary with the closed-loop
# workload, collect the server's own SLO verdicts and per-operator
# profile totals into BENCH_slo.json + metrics_slo.txt, and fail if any
# objective is unattainable. See DESIGN.md §13.
bench-slo-smoke:
	GO="$(GO)" sh scripts/slo_smoke.sh

# The end-to-end benchmark's own smoke test (bench/ is a nested module,
# so `go test ./...` never reaches it): every workload's first actions
# against an in-process server, plain and traced, with the emitted
# metric names held to BENCHMARK.json.
bench-e2e-smoke:
	$(GO) test -C bench .

ci: build lint race
