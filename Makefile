GO ?= go

.PHONY: all build test race lint lint-sarif lint-diff fuzz-smoke bench bench-smoke bench-json bench-e2e-smoke ci

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

# The paper's tables (E1-E10 + infer) as one JSON document per run, a
# CI artifact. Performance numbers come from `go run -C bench .`, not
# from here (bench/README.md).
bench-json:
	$(GO) run ./cmd/benchreport -json -label $(BENCH_LABEL) > BENCH_$(BENCH_LABEL).json

# The end-to-end benchmark's own smoke test (bench/ is a nested module,
# so `go test ./...` never reaches it): every workload's first actions
# against an in-process server, plain and traced, with the emitted
# metric names held to BENCHMARK.json.
bench-e2e-smoke:
	$(GO) test -C bench .

ci: build lint race
