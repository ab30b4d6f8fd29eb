GO ?= go
# FUZZTIME bounds each fuzz target; CI's fast-fail gate overrides it to
# 10s so a fuzz smoke runs on every push without stalling the matrix.
FUZZTIME ?= 30s
BENCH_DATE := $(shell date +%Y-%m-%d)

.PHONY: all build vet test race bench bench-json bench-check bench-store check fmtcheck lint-metrics experiments fuzz serve-smoke fleet-smoke store-smoke perfbench-test perfbench-smoke perfbench-pair clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmtcheck:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# lint-metrics rejects instrument names outside [a-z0-9._] so the
# OpenMetrics exposition (/metrics?format=openmetrics) never needs a
# lossy sanitization. See scripts/metric_lint.sh.
lint-metrics:
	sh scripts/metric_lint.sh

# check is the local all-in-one gate: formatting, metric-name lint,
# vet, build, the plain test suite, the race-enabled test suite, the
# session benchmark's own tests and short runs, and the fleet and store
# smokes. The plain run matters:
# the allocation-regression gates (testing.AllocsPerRun in
# internal/coverage) skip themselves under -race, so only a non-race
# pass enforces the zero-allocs-per-Evaluate promise. CI splits the same
# work across jobs (see .github/workflows/ci.yml): a fmt/vet/fuzz
# fast-fail gate, an {ubuntu, macos} x {oldest Go, stable} build+test
# matrix, a dedicated -race job, serving smokes, and a
# benchmark-regression job.
check: fmtcheck lint-metrics vet build test race perfbench-test perfbench-smoke fleet-smoke store-smoke

bench:
	$(GO) test -bench=. -benchmem .

# bench-json writes the machine-readable benchmark report
# (BENCH_<date>.json) that CI's bench job uploads as an artifact. The
# report records the host's CPU count, sequential cells, and 4-worker
# parallel cells for each algorithm.
bench-json:
	$(GO) run ./cmd/qpbench -exp none -parallelism 4 -metrics-json BENCH_$(BENCH_DATE).json

# bench-check regenerates the report and fails when any sequential
# ns/plan worsened >20% against BASELINE (a checked-in BENCH_*.json).
# CI names its baselines explicitly; refresh one by committing a
# bench-json artifact from a green run. The ns/plan gate is bound to the
# machine that wrote the baseline: on a different host it can fail on
# unchanged code (on one 2-vCPU Xeon VM, 17 of the 20 sequential cells
# ran 1.35-3.53x slower than BENCH_2026-08-07_batch.json, greedy/linear
# included, which never touches coverage). To judge a change on another
# machine, run the parent and the change there and compare the two
# reports instead.
bench-check:
	@test -n "$(BASELINE)" || { echo "usage: make bench-check BASELINE=BENCH_<date>.json"; exit 2; }
	$(GO) run ./cmd/qpbench -exp none -parallelism 4 -metrics-json BENCH_$(BENCH_DATE).json -compare $(BASELINE)

# bench-store writes the cold-vs-warm segment-store report
# (BENCH_<date>_store.json): every algorithm run against the in-memory
# domain, then store-backed cold (empty page cache) and warm (immediate
# re-run), with fault/hit/residency deltas per row. The run exits
# non-zero if any store-backed plan stream diverges from the in-memory
# one. EXPERIMENTS.md's storage entry cites the checked-in report.
bench-store:
	$(GO) run ./cmd/qpbench -exp store -metrics-json BENCH_$(BENCH_DATE)_store.json

# Regenerate the paper's evaluation (Figure 6 a-l, sweeps, ablation, tta,
# soundness, greedy). Takes a minute or two.
experiments:
	$(GO) run ./cmd/qpbench -exp all -sizes 10,20,40,60 | tee results_full.txt

fuzz:
	$(GO) test -fuzz FuzzParseQuery -fuzztime $(FUZZTIME) ./internal/schema
	$(GO) test -fuzz FuzzCanonicalKey -fuzztime $(FUZZTIME) ./internal/schema
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/domfile
	$(GO) test -fuzz FuzzKernels -fuzztime $(FUZZTIME) ./internal/bitset
	$(GO) test -fuzz FuzzPlanKeyOrder -fuzztime $(FUZZTIME) ./internal/planspace
	$(GO) test -fuzz FuzzSegmentDecode -fuzztime $(FUZZTIME) ./internal/store

# serve-smoke boots the qpserved daemon (race-enabled build) on a random
# port, checks the streamed plan order byte-for-byte against qporder,
# replays a concurrent shuffled burst through qpload requiring zero
# errors and session-cache hits, and SIGTERMs the daemon requiring a
# clean drain. See scripts/serve_smoke.sh.
serve-smoke:
	sh scripts/serve_smoke.sh

# fleet-smoke boots three race-enabled qpserved shards behind qprouter,
# proves scatter-gather byte-parity against single-process qporder,
# checks canonical-key session affinity, SIGTERMs a shard under paced
# load requiring zero client-visible errors and a reroute, re-proves
# parity on the 2-shard fleet, and drains everything cleanly. See
# scripts/fleet_smoke.sh.
fleet-smoke:
	sh scripts/fleet_smoke.sh

# store-smoke generates a segment store with qpgen -store, proves
# qpstore verify rejects any single corrupted byte in either file, boots
# a race-enabled qpserved -store over the clean store, proves the
# streamed plan order byte-identical to qporder -store, runs the
# parity-gated cold/warm store experiment, and drains cleanly. See
# scripts/store_smoke.sh.
store-smoke:
	sh scripts/store_smoke.sh

# perfbench-test runs the session benchmark's own tests (perfbench is a
# module of its own, so ./... above does not reach it): every output
# check must reject a corrupted output.
perfbench-test:
	cd perfbench && $(GO) test .

# perfbench-smoke runs each perfbench workload for five seconds and fails
# on any failed session or output check, so every change meets the
# benchmark's independent join and Definition 2.1 brute force.
perfbench-smoke:
	for w in order mediate serve; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 5 --trace 0 || exit 1; \
	done

# perfbench-pair measures a change against a base revision on this
# machine: PAIRS alternating perfbench runs of BASE and the working tree
# on WORKLOAD, one seed per pair, then per-metric medians and
# change/base ratios. Runs last BENCHMARK.json's run_seconds; SEED0
# overrides the first seed (101). See scripts/perfbench_pair.sh.
perfbench-pair:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" -a -n "$(PAIRS)" || { echo "usage: make perfbench-pair BASE=<ref> WORKLOAD=order|mediate|serve PAIRS=<n>"; exit 2; }
	bash scripts/perfbench_pair.sh $(BASE) $(WORKLOAD) $(PAIRS)

clean:
	rm -rf internal/schema/testdata internal/domfile/testdata
