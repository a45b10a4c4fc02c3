# Swift-Sim development targets. `make verify` is the gate every change
# must pass; see .claude/skills/verify/SKILL.md and README.md for the
# golden-fixture workflow.

GO ?= go

.PHONY: verify tier1 lint golden fuzz-smoke distributed-e2e bench bench-quick benchcmp profile update-golden envelopes

# verify = tier-1 + lint + the golden regression corpus + a fuzz smoke of
# the outward-facing decoders + the multi-worker lease-plane scenarios.
# This is the full pre-commit gate.
verify: tier1 lint golden fuzz-smoke distributed-e2e

# tier1 is the repo's baseline check (ROADMAP.md): everything builds,
# vets, and tests green, with the race detector on the concurrent
# packages.
tier1:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./internal/runner/... ./internal/engine/... ./internal/cache/... ./internal/noc/... ./internal/dram/... ./internal/obs/... ./internal/service/... ./internal/sim/... ./internal/snap/... ./cmd/swiftsimd/... ./cmd/swiftsim-worker/...
	$(GO) test -race -run 'TestEpoch|TestSnapshot|TestSample' ./internal/regress/

# lint enforces gofmt and go vet, and additionally runs staticcheck and
# govulncheck when they are installed (they are optional: the build must
# stay dependency-free on machines without them).
lint:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "lint: govulncheck not installed, skipping"; fi

# golden re-checks the committed 60-case fixture corpus only (fast drift
# check without the rest of the suite).
golden:
	$(GO) test -run Golden ./internal/regress/...

# fuzz-smoke runs each fuzz target for 10s — long enough to catch easy
# parser regressions, short enough for every commit.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParseTrace -fuzztime=10s ./internal/trace/
	$(GO) test -fuzz=FuzzLoadConfig -fuzztime=10s ./internal/config/
	$(GO) test -fuzz=FuzzParseSnapshot -fuzztime=10s ./internal/sim/
	$(GO) test -fuzz=FuzzDecodeWireJob -fuzztime=10s ./internal/service/

# distributed-e2e runs the multi-worker lease-plane scenarios — daemon +
# worker loops with fault injection (worker killed mid-job, lease expiry
# and requeue, fencing rejections) — race-on and repeated, as their own
# verify stage.
distributed-e2e:
	$(GO) test -race -count=2 -run 'TestDistributed' ./internal/service/

# update-golden regenerates the golden fixtures after an intended metrics
# change. Review the fixture diff like any other code change.
update-golden:
	$(GO) test -run Golden ./internal/regress/ -update

# bench-quick smoke-runs every benchmark once (compile + no-crash check).
bench-quick:
	$(GO) test -bench . -benchtime 1x ./...

# bench records the perf-gate benchmarks (the ones with a committed
# baseline) with enough repetitions for stable medians. -benchmem adds the
# B/op and allocs/op columns that feed the allocation ceilings below.
# Writes bench.txt.
BENCH_PKGS = . ./internal/engine/
BENCH_FILTER = 'BenchmarkSimulatorThroughput|BenchmarkGoldenCorpus|BenchmarkEngineActiveSet|BenchmarkObsOff|BenchmarkEngineParallel|BenchmarkEngineRelaxed|BenchmarkEngineSampled|BenchmarkEngineShardedTick'
bench:
	$(GO) test -run '^$$' -bench $(BENCH_FILTER) -benchmem -benchtime 2x -count 5 $(BENCH_PKGS) | tee bench.txt

# benchcmp compares a fresh `make bench` run against the committed
# baseline (bench_baseline.txt) and fails if performance regressed below
# 0.9x of it. Regenerate the baseline intentionally with
# `make bench && cp bench.txt bench_baseline.txt`.
#
# Sampled execution must keep its speedup floor on every host: the
# corpus=off/corpus=on pair of BenchmarkEngineSampled runs serial single
# simulations, so unlike the sharding floors below it does not depend on
# core count.
#
# Two gates hold on every host regardless of core count:
#   - threads=2 must never lose to threads=1 (floor 1.0x). The spin-park
#     barrier makes sharding near-free on multi-core hosts, and on a
#     single-core host the engine falls back to the serial tick path, so
#     there is no configuration where turning sharding on should cost.
#   - the sharded steady-state tick allocates nothing: 0 allocs/op ceiling
#     on BenchmarkEngineShardedTick (which forces workers up, so it
#     measures the staged arenas and barrier on any host).
#
# On hosts with >= 4 cores it additionally requires the sharded engine to
# reach the committed intra-simulation speedup floors — exact mode
# (threads=4 at least 2.0x over threads=1, raised from PR5's 1.8x by the
# spin-park barrier) and relaxed-epoch mode (k=8 at least 1.15x over k=1
# at the same thread count); on smaller hosts the floors are unmeasurable
# (the shards serialize on the few cores available), so those gates are
# skipped.
benchcmp: bench
	$(GO) run ./cmd/benchcmp -gate 0.9 bench_baseline.txt bench.txt
	$(GO) run ./cmd/benchcmp -within 'BenchmarkEngineSampled/corpus=off,BenchmarkEngineSampled/corpus=on,3.0' bench_baseline.txt bench.txt
	$(GO) run ./cmd/benchcmp -within 'BenchmarkEngineParallel/threads=1,BenchmarkEngineParallel/threads=2,1.0' bench_baseline.txt bench.txt
	$(GO) run ./cmd/benchcmp -metric allocs/op \
		-max 'BenchmarkEngineShardedTick/shards=2,0' \
		-max 'BenchmarkEngineShardedTick/shards=4,0' \
		bench_baseline.txt bench.txt
	@if [ "$$(nproc)" -ge 4 ]; then \
		$(GO) run ./cmd/benchcmp -within 'BenchmarkEngineParallel/threads=1,BenchmarkEngineParallel/threads=4,2.0' bench_baseline.txt bench.txt; \
		$(GO) run ./cmd/benchcmp -within 'BenchmarkEngineRelaxed/k=1,BenchmarkEngineRelaxed/k=8,1.15' bench_baseline.txt bench.txt; \
	else \
		echo "benchcmp: skipping engine speedup floors (nproc $$(nproc) < 4)"; \
	fi

# profile captures cpu and heap profiles of the two benchmarks that
# bracket the engine's hot path — the golden corpus (end-to-end serial
# mix) and the sharded Detailed simulation — into prof/, with the test
# binaries kept alongside for symbolization:
#   go tool pprof prof/parallel.test prof/parallel.cpu.pprof
# EXPERIMENTS.md documents how the committed numbers were derived from
# these profiles. prof/ is gitignored; profiles are host artifacts.
profile:
	mkdir -p prof
	$(GO) test -run '^$$' -bench BenchmarkGoldenCorpus -benchtime 1x \
		-cpuprofile prof/golden.cpu.pprof -memprofile prof/golden.mem.pprof \
		-o prof/golden.test .
	$(GO) test -run '^$$' -bench BenchmarkEngineParallel -benchtime 1x \
		-cpuprofile prof/parallel.cpu.pprof -memprofile prof/parallel.mem.pprof \
		-o prof/parallel.test .

# envelopes regenerates every committed accuracy envelope — the relaxed-
# epoch drift fixtures and the sampled-execution error fixtures — in one
# pass after an intended accuracy change. Review the fixture diffs like
# golden diffs.
envelopes:
	$(GO) test -run 'TestEpochRelaxedEnvelope|TestSampleEnvelope' ./internal/regress/ -update
