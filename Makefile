# Developer entry points. CI runs the same targets; see
# .github/workflows/ci.yml.

GO ?= go

.PHONY: build test race examples stress soak lint crash crash-replica crash-shards fuzz fuzz-proto server-smoke replica-smoke shard-smoke bench-smoke bench-e2e-smoke bench-snapshot clean all

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# examples runs every program under examples/ to completion; each exits
# non-zero when a step fails. quickstart and durability drive maintenance
# through SQL statements (Maintenance.Exec), which no other target runs.
examples:
	for d in examples/*/; do $(GO) run ./$$d || exit 1; done

# stress runs the multi-goroutine concurrency tests (readers racing
# maintenance, shared sessions, mid-query expiry, buffer-pool hits racing
# evictions, scans at a fixed version racing the writers that
# fold each heap page's version summary: TestStressHeapSummary), compiled
# plans checked against the oracle while batches commit, on pages small
# enough that a session meets clean pages, where the WHERE runs as the typed
# kernel, beside dirty ones (TestCompiledMatchesOracleUnderMaintenance), and
# the oldest-slot watermark tests (a mark readers load while the writer
# raises, marks stale and settles it), under the race detector, with a
# generous timeout so slow CI machines finish the full matrix.
stress:
	$(GO) test -race -timeout 10m -run 'TestStress|TestSessionSharedAcrossGoroutines|TestQueryPathsMatrix|TestPreparedRacesRegistryFlips|TestConcurrentReadersDuringMaintenance|TestAggregateConservationUnderMaintenance|TestCompiledMatchesOracleUnderMaintenance|TestOldestHWMatchesScan|TestOldestHWRecomputesOncePerBatch' -count=2 ./internal/core/ ./internal/storage/

# soak repeats the two differential tests that race readers against
# maintenance with rollbacks, 200 times each on two CPUs and without the race
# detector, so that a wrong answer one run in a few hundred still shows up. A
# session handed a wrong answer by a rolled-back transaction failed them
# about once per 60–400 runs before the rollback raised the expiry floor for
# both checks.
soak:
	$(GO) test -timeout 20m -run 'TestAggregateConservationUnderMaintenance|TestCompiledMatchesOracleUnderMaintenance' -count=200 -cpu 2 ./internal/core/

# lint runs vnlvet, the in-repo analyzer suite: the paper's latch,
# guarded-write, decision-table, metric-registry, and WAL-error invariants,
# plus the serving stack's goroutine-join, wire-deadline, frame-bound,
# message-exhaustiveness, and error-leak contracts (see ARCHITECTURE.md
# "Checked invariants"). All ten analyzers share one `go list` load. On
# findings the diagnostics also land in vnlvet-findings.txt, which CI
# uploads as an artifact.
lint:
	$(GO) run ./cmd/vnlvet -artifact vnlvet-findings.txt ./...

# clean removes the ignored build products a stale copy could mislead with:
# the benchmark's build directory and the last lint run's findings.
clean:
	rm -rf .bench_build vnlvet-findings.txt

# crash runs the exhaustive crash-point sweep: the scripted 2VNL workload
# is crashed before every persisting I/O boundary, recovered, and checked
# against the scan oracle (see internal/crashtest and cmd/vnlcrash). The
# random-fault rounds layer torn/short/failing writes under the same sweep,
# and a last exhausted-retry round must stop the workload on a surfaced fault.
crash:
	$(GO) run ./cmd/vnlcrash -faults 3 -artifact crash-fail-script.txt

# crash-replica sweeps the WAL-shipping follower instead: a fresh replica
# is crashed at every persisting I/O boundary of its catch-up replay,
# power-cut, re-opened, and driven to full differential parity with the
# primary's history (see internal/crashtest ReplicaSweep).
crash-replica:
	$(GO) run ./cmd/vnlcrash -replica
	$(GO) run ./cmd/vnlcrash -replica -seed 2

# crash-shards sweeps the hash-sharded router: the cross-shard workload is
# crashed before every persisting I/O boundary of the two-phase publish
# (prepare record, per-shard WAL commits, flip record), every shard
# recovered, and the reopened epoch must be all-or-nothing (see
# internal/crashtest ShardSweep).
crash-shards:
	$(GO) run ./cmd/vnlcrash -shards 4
	$(GO) run ./cmd/vnlcrash -shards 3 -seed 2

# fuzz runs the WAL decode fuzzer (FuzzWALDecode: raw record payloads and
# whole log-file images) for a bounded session. CI runs the same target as a
# smoke test; override FUZZTIME for longer local sessions.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzWALDecode -fuzztime=$(FUZZTIME) -run '^$$' ./internal/wal/

# fuzz-proto runs the wire-protocol fuzzer (FuzzFrameDecode: framing plus
# every message decoder; malformed input must error, never panic).
fuzz-proto:
	$(GO) test -fuzz=FuzzFrameDecode -fuzztime=$(FUZZTIME) -run '^$$' ./internal/server/

# server-smoke starts a real vnlserver, drives a vnlload burst over the
# wire, snapshots /metrics, and requires a clean SIGTERM drain (exit 0).
server-smoke:
	bash scripts/server_smoke.sh

# replica-smoke runs a live primary/replica pair: the replica joins during
# a paced write burst, is kill -9'd mid-replay, resumes by LSN from its
# local WAL copy, converges to exact COUNT/SUM parity, refuses writes, and
# both servers must drain cleanly on SIGTERM.
replica-smoke:
	bash scripts/replica_smoke.sh

# shard-smoke runs a live durable 4-shard server: vnlload burst with the
# client-side oracle audit, kill -9 mid-flip, restart over the same
# directory with an all-or-nothing epoch check, read-only session burst,
# and a clean SIGTERM drain.
shard-smoke:
	bash scripts/shard_smoke.sh

# bench-smoke runs every benchmark once, just to prove they still execute;
# real measurement runs use cmd/vnlbench.
bench-smoke:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./...

# bench-e2e-smoke vets, tests and smoke-runs the end-to-end benchmark. It is
# a module of its own (benchmark/go.mod), so build, lint and test above never
# compile it: this target is what keeps it building against the internals.
# One-second windows over all four workloads, every oracle check on. Measured
# figures go into BENCH_e2e.json through scripts/bench_record.py.
bench-e2e-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./... && $(GO) run . -smoke

# bench-snapshot runs the tracked benchmark set (reader scaling, maintain
# batch, vnlserver wire latency, replica catch-up, shard scaling) and writes
# machine-readable BENCH_*.json snapshots next to the raw bench output; CI
# uploads them as artifacts.
bench-snapshot:
	bash scripts/bench_snapshot.sh
