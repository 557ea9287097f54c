GO ?= go

.PHONY: all build test race vet lint bench benchdiff quality quality-baseline prof prof-gate prof-baseline serve-smoke vol-smoke clean

all: build vet test

build:
	$(GO) build ./...
	$(GO) build -o bin/ ./cmd/...

test:
	$(GO) test ./...

# race covers the packages with real concurrency: the obs registry, the
# campaign worker pool, the fault-parallel engine, the sharded cone
# cache (the fsim stress test is the cache's -race proof), the span-tree
# tracer (workers and capture snapshots share one tree), the diagnosis
# service (admission, batcher, concurrent traced clients), the
# profiling collector (phase windows, snapshot rings, /debug/prof polls)
# and the volume pipeline (sharded fingerprint cache, singleflight
# dedupe, parallel ingest workers).
race:
	$(GO) test -race ./internal/obs ./internal/exp ./internal/fsim ./internal/core ./internal/trace ./internal/serve ./internal/prof ./internal/volume

vet:
	$(GO) vet ./...

# lint mirrors the CI lint job: gofmt cleanliness always, staticcheck when
# the binary is on PATH (CI installs it; local runs may not have it).
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "lint: staticcheck not installed, skipped"; fi

# bench proves the observability budgets (BenchmarkDiagnose vs the traced
# and explained variants plus the obs micro-benchmarks) and the serving
# overhead (BenchmarkServeDiagnose vs the same diagnosis via the core
# API), writes the diagnosis results as a machine-readable baseline to
# BENCH_diag.json (the committed copy is what `mdgate bench` compares
# against), and writes a schema-valid quick-suite trace to BENCH_obs.json.
# The -bench pattern is 'Diagnose|VolumeIngest', not 'BenchmarkDiagnose':
# the latter would silently skip BenchmarkServeDiagnose and the volume
# ingest pair. -cpu 1: the default-worker benchmarks run GOMAXPROCS
# workers, so the baseline is recorded (and compared) at one CPU.
bench: build
	$(GO) test -run xxx -bench 'Diagnose|VolumeIngest' -benchmem -cpu 1 ./internal/core ./internal/serve ./internal/volume | tee /tmp/bench_core.txt
	$(GO) test -run xxx -bench 'BenchmarkSpan|BenchmarkCounter|BenchmarkHistogram' -benchmem ./internal/obs
	bin/mdgate bench-parse -o BENCH_diag.json < /tmp/bench_core.txt
	bin/mdexp -quick -seeds 1 -only T1 -trace-out BENCH_obs.json > /dev/null

# benchdiff re-runs the diagnosis benchmarks (core + serving path +
# volume ingest) and compares against the committed BENCH_diag.json
# baseline, warning on >20% ns/op regressions; the speedup gate requires
# dedupe to beat the no-cache baseline by ≥5× on the 90%-repeat stream.
benchdiff: build
	$(GO) test -run xxx -bench 'Diagnose|VolumeIngest' -benchmem -cpu 1 ./internal/core ./internal/serve ./internal/volume | bin/mdgate bench-parse -o /tmp/bench_current.json
	bin/mdgate bench BENCH_diag.json /tmp/bench_current.json
	bin/mdgate speedup /tmp/bench_current.json -base BenchmarkVolumeIngest -target BenchmarkVolumeIngestDeduped -min 5

# QUALITY_CMD is the exact campaign both quality targets run, so the
# committed baseline and the comparison candidate are always like-for-like
# (deterministic seeds; -j 2 exercises the shared cone cache).
QUALITY_CMD = bin/mdexp -quick -seeds 3 -only T3 -j 2 -quality-out

# quality re-runs the quick T3 campaign and gates its quality records
# against the committed QUALITY_baseline.json: accuracy/success drops are
# errors, resolution/latency drift warns (see cmd/mdgate; the 200%
# latency limit is loose because 3-seed campaigns make per-diagnosis
# timing very noisy).
quality: build
	$(QUALITY_CMD) /tmp/quality_current.json > /dev/null
	bin/mdgate quality QUALITY_baseline.json /tmp/quality_current.json

# quality-baseline regenerates the committed baseline after an intentional
# quality change (commit the diff alongside the change that caused it).
quality-baseline: build
	$(QUALITY_CMD) QUALITY_baseline.json > /dev/null

# PROF_CMD is the exact profiled campaign both prof targets run, so the
# committed PROF_baseline.json and the gate candidate are like-for-like
# (deterministic single-seed T3 — the diagnosis campaign, so every phase
# window fires; -j 1 keeps the phases sequential so the per-phase deltas
# tile the run).
PROF_CMD = bin/mdexp -quick -seeds 1 -only T3 -j 1 -prof -prof-out

# prof runs the profiled campaign and prints the per-phase attribution
# report (wall, allocations, contention) from the snapshot stream.
prof: build
	$(PROF_CMD) /tmp/prof_current.jsonl > /dev/null
	bin/mdprof report /tmp/prof_current.jsonl

# prof-gate re-runs the profiled campaign and gates its per-phase
# allocation profile against the committed PROF_baseline.json: >25%
# per-call growth warns, >50% fails (see cmd/mdgate).
prof-gate: build
	$(PROF_CMD) /tmp/prof_current.jsonl > /dev/null
	bin/mdgate prof PROF_baseline.json /tmp/prof_current.jsonl

# prof-baseline regenerates the committed allocation baseline after an
# intentional profile change (commit the diff alongside its cause).
prof-baseline: build
	$(PROF_CMD) /tmp/prof_baseline.jsonl > /dev/null
	bin/mdgate prof-baseline /tmp/prof_baseline.jsonl -o PROF_baseline.json

# serve-smoke boots mdserve, fires a request burst, checks /metrics, and
# requires a clean SIGTERM drain — the end-to-end proof behind the
# handler-level tests in internal/serve.
serve-smoke: build
	sh scripts/serve_smoke.sh

# vol-smoke runs the volume-diagnosis pipeline end to end: a pinned
# synthetic stream (mdgen -datalogs) through mdvol at several worker
# counts and cache states (byte-identical reports and aggregates
# required), then the same stream through a live mdserve /v1/ingest with
# the aggregates diffed via mdgate volume.
vol-smoke: build
	sh scripts/vol_smoke.sh

# determinism-check diffs mddiag reports across worker counts and
# cone-cache states (see scripts/determinism_check.sh): the parallel
# engine's bit-identical-output contract, held end to end.
determinism-check: build
	sh scripts/determinism_check.sh

clean:
	rm -rf bin BENCH_obs.json
