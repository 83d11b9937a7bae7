# Build/verify entry points for the llm265 reproduction.
#
# `make ci` is the canonical verify step: it builds everything, vets, runs
# the test suite (which includes the exhaustive corruption sweeps and the
# fuzz targets' seed corpora), repeats the suite under the race detector —
# mandatory since the encode/decode engine fans plane chunks out across a
# goroutine worker pool (internal/codec/engine.go) — and finishes with a
# short coverage-guided fuzz pass over the decode entry points.

GO ?= go

# Per-target time budget for the fuzz smoke pass.
FUZZTIME ?= 10s

.PHONY: all build test vet race race-touched cpu-matrix ci bench bench-guard bench-baseline bench-micro bench-parallel fuzz-smoke serve-test proxy-test store-test kv-test train-test

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-detector run over the full tree; catches any data race in the
# parallel engine's worker pools and in the metrics registry.
race:
	$(GO) test -race ./...

# Fast race run over just the concurrency-bearing packages and the kernels
# they call from every worker: the parallel engine, the tensor-stack layer
# that drives it, the obs registry whose handles are hammered from every
# worker, and the intra/dct kernels that now execute inside pooled
# scratch-arena workers (DESIGN.md §11).
race-touched:
	$(GO) test -race ./internal/codec/ ./internal/core/ ./internal/obs/ ./internal/intra/ ./internal/dct/ ./internal/serve/ ./internal/kv/

# The serve harness under the race detector: the integration suite, the
# error-taxonomy table, the deadline/backpressure/drain tests and the
# 64-client soak all run with -race so the admission scheduler, the shared
# worker pool and the shared obs registry are exercised concurrently on
# every CI pass (DESIGN.md §12).
serve-test:
	$(GO) test -race ./internal/serve/

# The fleet harness under the race detector: the consistent-hash equivalence
# matrix, the deterministic fault-injection sweeps ({latency, reset,
# truncation, 500, 503-drain} × {encode, decode}), breaker/prober unit
# tests, and the subprocess soak that SIGKILLs one of three real `llm265
# serve` backends mid-traffic and requires it to rejoin on its own with
# zero corrupt responses (DESIGN.md §14).
proxy-test:
	$(GO) test -race ./internal/proxy/ ./internal/faultinject/

# The content-addressed store under the race detector: pack/fetch round-trip
# and stitch validation, cross-checkpoint dedupe, manifest tamper rejection,
# and the Model LRU (budget bound, hit/miss/eviction accounting) hammered
# from concurrent goroutines (DESIGN.md §15). The packed-inference test in
# internal/llm rides along because it is the end-to-end consumer of the LRU.
store-test:
	$(GO) test -race ./internal/store/ ./internal/llm/

# The KV-cache tier under the race detector: flush-counter and aliasing unit
# tests, the schedule-invariance and aliased-twin property matrices (both
# entropy backends × worker counts), the HTTP handler taxonomy, and the
# full-scale soak — KV_SOAK=1 raises it to ≥2,000 concurrent sessions of
# interleaved append/read/expire churn under a tight byte budget, asserting
# zero corrupt reads, resident≤budget at every sample, 206 windows
# consistent with the eviction log, and a leak-free drain (DESIGN.md §16).
kv-test:
	KV_SOAK=1 $(GO) test -race ./internal/kv/ -timeout 30m

# The concurrent ring-allreduce under the race detector: the determinism
# property matrix (uncompressed concurrent ≡ bit-identical sequential;
# compressed byte-deterministic across worker counts and schedule seeds for
# both entropy backends), the error-feedback and wire-codec unit tests, and
# the chaos soak — TRAIN_SOAK=1 raises the ring to ≥96 workers of randomized
# scheduling with mid-run cancellation, asserting bit-exact reductions,
# context-clean unwinds and a leak-free goroutine drain (DESIGN.md §17).
train-test:
	TRAIN_SOAK=1 $(GO) test -race ./internal/allreduce/ ./internal/train/ -timeout 30m

# CPU-count independence: the golden corpus, the equivalence and
# determinism matrices and the any-worker-count suites rerun at GOMAXPROCS
# 1, 2 and 4, so a scheduling-sensitive result cannot hide behind the core
# count of the machine CI happens to run on.
cpu-matrix:
	$(GO) test -count=1 -cpu 1,2,4 -run 'Golden|Equivalence|Determinis|AnyCount|BitIdentical' ./internal/codec/ ./internal/core/ ./internal/train/ ./internal/allreduce/

ci: build vet test cpu-matrix serve-test proxy-test store-test kv-test train-test race fuzz-smoke bench-guard

# Coverage-guided fuzzing of every decode entry point, FUZZTIME per target.
# Each target is seeded from valid round-trip containers, so the fuzzer
# starts at deep coverage; any input that panics or produces an untyped
# error is minimized and written to testdata/fuzz/ for replay by `go test`.
fuzz-smoke:
	$(GO) test ./internal/codec/ -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzDecodeStack -fuzztime $(FUZZTIME)
	$(GO) test ./internal/entropy/ -run '^$$' -fuzz FuzzEntropy -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzServeRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzKVRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/allreduce/ -run '^$$' -fuzz FuzzAllreduceSegment -fuzztime $(FUZZTIME)

# The instrumented end-to-end benchmark: llm265 bench encodes+decodes a
# deterministic synthetic stack with full metrics and writes a
# BENCH_parallel.json report (throughput, pool utilization, stage and bit
# breakdowns, allocs/op and bytes/op columns, full snapshot). See DESIGN.md
# §10 and §11.
bench:
	$(GO) run ./cmd/llm265 bench -layers 8 -rows 512 -cols 512 -qp 30 -out BENCH_parallel.json

# Benchmark regression guard: rerun the checked-in baseline's exact workload
# and compare. Quality (bits/value, MSE) and allocation bands are always
# enforced; throughput bands are enforced only on multi-core machines (on
# one CPU the wall clock measures the container, not the code — the guard
# prints them as advisory warnings instead). Exit code 6 means regression.
bench-guard:
	$(GO) run ./cmd/llm265 bench -baseline BENCH_baseline.json -out /dev/null

# Regenerate the bench-guard baseline. Run on a quiet machine and commit the
# result; keep the geometry small enough for CI to repeat cheaply.
bench-baseline:
	$(GO) run ./cmd/llm265 bench -layers 4 -rows 256 -cols 256 -qp 30 -workers 4 -serve -proxy -store -kv -train -name baseline -out BENCH_baseline.json

# One pass over every paper-artifact micro-benchmark (testing.B).
bench-micro:
	$(GO) test -bench=. -benchtime=1x

# Serial vs parallel engine throughput on a multi-layer stack.
bench-parallel:
	$(GO) test -bench='(Encode|Decode)Stack(Serial|Parallel)' -benchtime=3x .
