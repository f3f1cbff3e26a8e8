# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

.PHONY: all build test race race-short race-churn chaos cluster-chaos soak dst check bench bench-smoke flight-smoke serve-smoke figures stress examples cover clean

# Allowed fractional ns/op increase for the flight-recorder overhead guard
# (bench-smoke compares the noflight and armed runs against the reference).
FLIGHT_TOL ?= 0.5

# Allowed fractional ns/op increase for the allocation-gate benchmarks.
# Generous on purpose: BENCH_alloc.json's committed reference guards the
# allocs/op column (exact, -alloctol 0); its ns/op only has to stay within
# shouting distance so a grossly broken build still trips the gate — and
# BenchmarkAllocWire's ns/op is loopback round trips, which differ between
# hosts by more than a pool transfer does.
ALLOC_NS_TOL ?= 3.0

# Coverage floor for `make cover` (total statement coverage, percent).
# Raise it when coverage rises; never lower it to make a failure go away.
COVER_FLOOR ?= 72.0

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

race:
	$(GO) test ./... -race

# Short race pass: the per-package -short subsets under the race detector —
# quick enough for a pre-commit hook, still covers every concurrent path.
race-short:
	$(GO) test ./... -race -short

# Membership churn under the race detector: salsa-stress retires and
# re-adds consumers mid-round (-churn) while asserting zero lost and zero
# duplicated tasks; ~30s of elastic-membership hammering.
race-churn:
	$(GO) run -race ./cmd/salsa-stress -rounds 12 -tasks 30000 -churn 300 -stall 0.15

# Scripted fault matrix under the race detector: salsa-chaos arms a seeded
# failpoint schedule per scenario (delays, chunk-pool exhaustion, consumers
# crashed mid-steal/mid-consume) and verifies zero-duplicate / budgeted-loss
# accounting. Seeded and bounded (~1 min wall-clock); a failing round prints
# a replayable FAIL line with its seed and schedule.
chaos:
	$(GO) run -race ./cmd/salsa-chaos -rounds 2 -tasks 10000

# Cluster fault matrix under the race detector: two real TCP shards behind
# seeded netchaos proxies (delays, resets, blackholes, drips on the
# producer, worker and handoff paths), producer failover, a mid-round
# quiesce handoff, and exactly-once ledger accounting. A failing scenario
# prints a replayable FAIL line and leaves a flight dump plus the FAIL
# line itself (flight-cluster-<scenario>-r<i>.bin/.txt) in results/.
cluster-chaos:
	@mkdir -p results
	$(GO) run -race ./cmd/salsa-chaos -cluster -rounds 1 -flight-dir results

# Traffic-scenario soak matrix under the race detector: salsa-loadgen
# replays seeded open-loop arrival processes (Poisson bursts, diurnal
# ramps, thundering herds, Zipf hotspots, heavy-tailed sizes, priority
# floods) through the admission layer against the real pool and executor.
# Every scenario ends in an exactly-once ledger verdict plus a
# p50/p99/p999 + shed/admit report; a FAIL line prints the scenario seed
# and a replay invocation that rebuilds the byte-identical schedule.
# Results land in results/soak.csv, flight dumps on FAIL in results/.
soak:
	@mkdir -p results
	$(GO) run -race ./cmd/salsa-loadgen -csv results/soak.csv -flight-dir results

# Deterministic interleaving explorer over the real pool code: seeded
# random walk plus PCT priority schedules across the whole scenario matrix
# (internal/dst). Bounded to a few seconds; a failure prints the seed, the
# minimized schedule, and a ready-to-paste -replay line.
dst:
	$(GO) run ./cmd/salsa-dst -schedules 150 -seed 1
	$(GO) run ./cmd/salsa-dst -strategy pct -schedules 100 -seed 1

# The full local gate: build + vet + tests + short race pass + membership
# churn under race + scripted chaos matrix under race + cluster fault
# matrix under race + traffic soak matrix under race + deterministic
# schedule exploration + coverage floor + flight round-trip + distributed
# service smoke + bench smoke.
check: build test race-short race-churn chaos cluster-chaos soak dst cover flight-smoke serve-smoke bench-smoke

bench:
	$(GO) test -bench=. -benchmem ./...

# Quick regression gate for the batched API: the Fig 1.4(a) baseline plus
# the batch-size sweep at a fixed task count, recorded as JSON so runs can
# be diffed (BENCH_batch.json is the committed reference). The count is
# chosen so fixed startup costs are amortized (at 100x the numbers are
# noise) while the whole gate stays under a few seconds.
#
# The reference then guards the flight recorder's cost: the same benchmarks
# rerun with the recorder compiled out (salsa_noflight) and with it armed
# (SALSA_FLIGHT_BENCH=1, every hot-path event recorded) must both stay
# within FLIGHT_TOL of the freshly recorded baseline.
#
# The allocation gate runs last: BenchmarkAlloc (steady-state Put/Get
# bursts) and BenchmarkAllocWire (the same burst through a loopback shard:
# Produce 64 x 32 B, GetBatch(64)) with -benchmem against the *committed*
# BENCH_alloc.json — allocs/op must not grow at all (-alloctol 0) — and
# only then is the reference refreshed. A hot path that starts allocating
# fails here before the regression ships. Both benchmarks are serial (the
# wire one blocks on its round trips), so -cpu 1 costs nothing and keeps
# the record names free of the host's GOMAXPROCS suffix — the committed
# reference matches on any machine.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFig14a|BenchmarkBatch' -benchtime 1000000x . > bench_smoke.txt
	$(GO) run ./cmd/benchjson -o BENCH_batch.json < bench_smoke.txt
	$(GO) test -run '^$$' -tags salsa_noflight -bench 'BenchmarkFig14a|BenchmarkBatch' -benchtime 1000000x . > bench_noflight.txt
	$(GO) run ./cmd/benchjson -compare BENCH_batch.json -tol $(FLIGHT_TOL) < bench_noflight.txt > /dev/null
	SALSA_FLIGHT_BENCH=1 $(GO) test -run '^$$' -bench 'BenchmarkFig14a|BenchmarkBatch' -benchtime 1000000x . > bench_armed.txt
	$(GO) run ./cmd/benchjson -compare BENCH_batch.json -tol $(FLIGHT_TOL) < bench_armed.txt > /dev/null
	$(GO) test -run '^$$' -bench '^BenchmarkAlloc(Wire)?$$' -benchmem -benchtime 300000x -cpu 1 . > bench_alloc.txt
	$(GO) run ./cmd/benchjson -compare BENCH_alloc.json -tol $(ALLOC_NS_TOL) -alloctol 0 < bench_alloc.txt > /dev/null
	$(GO) run ./cmd/benchjson -o BENCH_alloc.json < bench_alloc.txt
	@rm -f bench_smoke.txt bench_noflight.txt bench_armed.txt bench_alloc.txt

# Flight-recorder round trip: record a stress round with the recorder
# armed, dump it, and run salsa-doctor over the dump — a healthy round must
# analyze clean (doctor exits 1 on any anomaly).
flight-smoke:
	@mkdir -p results
	$(GO) run ./cmd/salsa-stress -rounds 1 -tasks 5000 -producers 2 -consumers 2 \
		-flight-dir results -flight-always
	$(GO) run ./cmd/salsa-doctor -timeline 5 results/flight-stress-r0.bin

# Distributed-service smoke: boots a real shard server on loopback TCP,
# drives a full exactly-once round through the wire protocol (with a
# mid-stream worker drain/rejoin), and scrapes /metrics over HTTP. On
# failure the shard's flight dump lands in results/flight-serve-smoke-r0.bin
# (salsa-doctor reads it).
serve-smoke:
	@mkdir -p results
	$(GO) run ./cmd/salsa-server -smoke

# Regenerates every figure of the paper's evaluation (§1.6) plus the
# batch-size sweep; writes CSVs to results/ and the human-readable tables
# to results/figures_output.txt (and stdout).
figures:
	@mkdir -p results
	$(GO) run ./cmd/salsa-bench -duration 250ms -threads 16 -csv results all | tee results/figures_output.txt

stress:
	$(GO) run ./cmd/salsa-stress -rounds 20

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/webcrawler
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/numa
	$(GO) run ./examples/mapreduce
	$(GO) run ./examples/metrics

# Coverage gate: per-package and total statement coverage recorded to
# results/coverage.txt, with the total checked against COVER_FLOOR. The
# profile itself goes under results/ too (gitignored) so no scratch file
# lands at the repo root.
cover:
	@mkdir -p results
	$(GO) test ./... -coverprofile=results/cover.out
	$(GO) tool cover -func=results/cover.out > results/coverage.txt
	@tail -1 results/coverage.txt
	@awk -v floor=$(COVER_FLOOR) 'END { \
		pct = $$NF; sub(/%/, "", pct); \
		if (pct + 0 < floor + 0) { \
			printf "coverage %.1f%% is below the floor %.1f%%\n", pct, floor; exit 1 \
		} \
		printf "coverage %.1f%% >= floor %.1f%%\n", pct, floor }' results/coverage.txt

# Removes generated scratch files. Deliberately leaves results/ alone: the
# committed CSVs, coverage.txt, and figures_output.txt live there.
clean:
	rm -f cover.out results/cover.out test_output.txt bench_output.txt bench_smoke.txt
	rm -f bench_noflight.txt bench_armed.txt bench_alloc.txt
	rm -f salsa-dst salsa-bench salsa-stress salsa-chaos salsa-doctor benchjson
	rm -f salsa-server salsa-worker
