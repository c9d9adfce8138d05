# Build/test tiers and the benchmark runner. Plain GNU make, Go stdlib only.

GO ?= go

.PHONY: tier1 tier2 bench bench-mc race vet obs sparse lifecycle batch shard shardcrash fuzz trace perfbench benchcheck

# Tier 1: the build + vet + test gate every change must keep green
# (ROADMAP.md).
tier1: vet obs sparse lifecycle batch shard shardcrash fuzz trace perfbench benchcheck
	$(GO) build ./... && $(GO) test ./...

# Static analysis alone (also the first rung of tier1).
vet:
	$(GO) vet ./...

# Observability rung: the metrics registry / scope / event layer and the
# zero-overhead guards on the instrumented solver hot path.
obs:
	$(GO) test ./internal/obs/ -count=1
	$(GO) test ./internal/spice/ -run 'TestInstrumented|TestSolverPhase|TestDCRescue' -count=1

# Sparse linear core rung: the symbolic-once sparse LU and the stamp-list
# assembly path, under the race detector (the symbolic object is shared
# per-worker state in pooled Monte Carlo). The spice package run includes
# the shared transient prefix tests (TestTransientPrefix*): a sparse
# re-pivot bumps the circuit epoch that invalidates a recorded prefix.
sparse:
	$(GO) test -race ./internal/linalg/ ./internal/spice/ -count=1

# Run-lifecycle rung: context cancellation, per-sample budgets, the hang
# watchdog, and checkpoint/resume — under the race detector and repeated,
# because the watchdog abandons goroutines and the checkpoint is shared
# mutable state.
lifecycle:
	$(GO) test -race -count=2 ./internal/lifecycle/
	$(GO) test -race -count=2 -run 'TestMapCtx|TestBudget|TestWatchdog|TestCheckpoint' ./internal/montecarlo/
	$(GO) test -race -count=2 -run 'TestArmSample|TestArmed' ./internal/spice/
	$(GO) test -race -count=2 -run 'TestRunPooledMCKillAndResume|TestHangSample' ./internal/experiments/

# Batched lockstep engine rung: scalar-vs-batch bit identity (kernel and
# whole-engine), lane eviction, the zero-allocation batched transient, and
# the K-lane Monte Carlo scheduler — under the race detector, because lane
# blocks share the per-worker batch simulator and report aggregation.
batch:
	$(GO) test -race ./internal/vsmodel/ -run 'TestBatch|TestFallbackBatch|TestNativeDerivs' -count=1
	$(GO) test -race ./internal/circuits/ -run 'TestBatch' -count=1
	$(GO) test -race ./internal/montecarlo/ -run 'TestBatch' -count=1

# Sharded-coordinator rung: the coordinator/worker protocol under the race
# detector and repeated — the commit CAS, retry/backoff timers, straggler
# speculation, and worker retirement all race by design — plus the full
# fault-injection matrix (drop/delay/duplicate/corrupt/vanish) and the
# bit-identical-merge and cancellation contracts at the engine and
# experiments layers.
shard:
	$(GO) vet ./internal/shard/ ./cmd/vsshard/
	$(GO) test -race -short -count=2 ./internal/shard/
	$(GO) test -race -count=2 -run 'TestSharded|TestBatchEvictionCancel' ./internal/experiments/
	$(GO) test -race -count=2 -run 'TestOffset|TestBatchMidRunCancel|TestRecordedFailure|TestSyncDir' ./internal/montecarlo/

# Crash-safety rung: the durable dispatch journal (kill-at-50% resume,
# torn-tail recovery, foreign-run rejection), the streaming constant-memory
# merge and its exact order/partition-invariant accumulator, and the
# drain/fatal error taxonomy — under the race detector, because journal
# appends, the streaming fold, and the live-envelope high-water mark all
# sit inside the commit critical section by design. The 1.2M-sample
# memory-bound acceptance run is excluded here (-short) and runs in the
# plain tier1 `go test ./...` pass instead.
shardcrash:
	$(GO) vet ./internal/shard/ ./internal/montecarlo/ ./cmd/vsshard/
	$(GO) test -race -short -count=2 -run 'TestJournal|TestStreaming|TestFaultCoordKill|TestFaultDrain|TestHTTPEndpoint|TestGate|TestStatsCheck' ./internal/shard/
	$(GO) test -race -count=1 -run 'TestStreamSummary' ./internal/montecarlo/
	$(GO) test -race -count=1 -run 'TestShardedRunJournalResume' ./internal/experiments/

# Fuzz rung: ten seconds of coverage-guided inputs against the shard
# journal's recovery (OpenJournal + Replay on arbitrary bytes after a valid
# header), on top of the committed seed corpus in
# internal/shard/testdata/fuzz/FuzzOpenJournal (which plain `go test` also
# replays).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzOpenJournal$$' -fuzztime 10s ./internal/shard

# Distributed-tracing rung: the span/flight-recorder layer under the race
# detector (worker tracers merge into shared worst-K sets), the cross-
# transport trace-stitching and worst-K determinism contracts, the batched
# phase-accounting acceptance, and the zero-alloc guard pinning that a
# tracing-disabled armed transient step allocates nothing.
trace:
	$(GO) test -race -count=2 ./internal/obs/trace/
	$(GO) test -race -count=1 -run 'TestTrace|TestClassifyVerdict' ./internal/montecarlo/ ./internal/shard/
	$(GO) test -race -count=1 -run 'TestBatchedPhaseSelfTimesCoverWall' ./internal/experiments/
	$(GO) test -count=1 -run 'TestTracingDisabledArmedStepAllocFree|TestScopeForwardsSolverSpans' ./internal/spice/
	$(GO) test -count=1 -run 'TestPrometheusGolden|TestHelpSurvives' ./internal/obs/

# Benchmark-module rung: vet and build the standalone perfbench module, so
# a change to a public name it drives fails here rather than first in the
# benchmark pipeline.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) build ./...

# Benchmark-reference rung: one short mc_units run at the reference seed.
# run.sh exits 1 when a unit's first-round values leave the committed
# reference (perfbench/ref/), so a numerics drift fails here rather than
# first in the benchmark pipeline. Takes a few seconds.
benchcheck:
	bash perfbench/run.sh --workload mc_units --seed 20130318 --seconds 1 --trace 0

# Tier 2: the race detector over the full tree, including the pooled
# parallel Monte Carlo engine.
tier2: vet
	$(GO) test -race ./...

# Race detector over the concurrency-bearing packages: the Monte Carlo
# driver (failure policies, panic recovery, report aggregation, the
# context-aware *Ctx variants with their hang watchdog and checkpoint
# sink), the solver rescue ladder, and the pooled experiment plumbing
# (Table IV included: its cost ledger and its fallback figure runs).
race:
	$(GO) test -race ./internal/montecarlo/ ./internal/spice/ ./internal/obs/ -count=1
	$(GO) test -race ./internal/experiments/ -run 'TestMap|TestPooled|TestFault|TestFail|TestMCRescue|TestRunPooledMC|TestHangSample|TestTable4' -count=1

# Benchmark runner: the paper-figure per-sample benches plus the pooled
# vs rebuild Monte Carlo pairs (the speedup evidence for the pooled engine).
bench:
	$(GO) test -bench=BenchmarkFig5 -benchmem -run xxx .
	$(GO) test -bench=BenchmarkMC -benchmem -run xxx .

# Machine-readable perf record for the MC units; writes BENCH_mc.json.
bench-mc:
	$(GO) run ./cmd/vsbench -n 64 -mode both
