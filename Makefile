# Build/verify entry points. `make verify` is the tier-1 gate: a clean
# build, the full test suite, vet, the race detector over the short suite
# (the parallel executor paths are exercised under -race there), and the
# zero-allocation gate on the telemetry hot path.

GO ?= go

.PHONY: all build test vet race alloc-gate chaos crash explain verify bench-all bench-fleet profile

all: verify

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest) execution order, so an
# accidental inter-test dependency fails loudly instead of hiding behind
# file order. The shuffle seed prints on failure for reproduction.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -short ./...

# The allocation gate: testing.AllocsPerRun must report zero heap
# allocations for a warm Manager.Signals decision point, for the warm
# stats kernels and for the engine's per-call Tick (the *ZeroAlloc tests),
# and hold the serving path to its counts (the *Allocs tests): a warm
# ingest-body decode, none for a ledger request of 50 appends and its
# Sync, one per engine-less (serving) loop.New. Run without -race (its instrumentation
# allocates).
alloc-gate:
	$(GO) test -run 'ZeroAlloc|Allocs' -count=1 ./internal/telemetry ./internal/stats ./internal/engine \
		./internal/serve ./internal/ledger ./internal/loop

# The chaos gate: deterministic fault injection end to end — the
# sim-level chaos and actuation suites (parallel/serial bit identity,
# aggressive-plan survival, the cost bounds, throttle-storm reconvergence).
# The faults and actuate packages' unit tests run uncached alongside them.
chaos:
	$(GO) test -count=1 ./internal/faults/... ./internal/actuate/... \
		./internal/sim -run 'Chaos|Actuation'

# The crash gate: kill -9 the real daemon binary mid-load — on a clean
# disk and under random injected EIO — and assert the ack-vs-replay
# invariants with daas-loadgen's ledger verifier. The in-process
# fault-point sweep (every fault kind at a stride of filesystem-op
# indexes, across workload shapes) runs first.
crash:
	$(GO) test -count=1 -run 'TestCrashConsistencySweep' ./internal/serve/
	./scripts/crash_smoke.sh

# Smoke the decision-audit surface end to end: a real daas-sim run under
# telemetry + actuation chaos must print rule explanations sourced from
# the loop.DecisionRecord stream.
explain:
	$(GO) run ./cmd/daas-sim -workload ds2 -trace trace3 -faults 0.1 \
		-actuation-latency 1 -actuation-fail 0.1 -explain -explain-rows 24

verify: build test vet race alloc-gate chaos

# The fleet-scale streaming benchmarks (1k/10k/100k tenants); tenants/sec
# and peak heap land in BENCH_fleet.json.
bench-fleet:
	BENCH_JSON=BENCH_fleet.json $(GO) test -run '^$$' \
		-bench 'BenchmarkFleetStream|BenchmarkFleetCalibrationStream' \
		-benchtime 1x -benchmem .

# Profile the cluster hot path: one 1k-tenant run with per-phase pprof
# labels ("ticks+decide", "apply", "finalize"), CPU and heap profiles
# written to cluster_cpu.pprof / cluster_heap.pprof for `go tool pprof`.
profile:
	$(GO) run ./cmd/daas-profile -tenants 1000 -intervals 12 -workers 8 \
		-labels -cpuprofile cluster_cpu.pprof -memprofile cluster_heap.pprof

# Every benchmark, including the full paper-figure reproductions.
bench-all:
	$(GO) test -bench=. -benchmem .
