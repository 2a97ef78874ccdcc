# Development entry points for the AMF reproduction.

GO ?= go

# Build identification, stamped into every binary's amf_build_info gauge
# (see internal/obs/buildinfo.go). Untagged trees fall back to the
# commit; non-git tarballs to "dev"/"unknown".
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT  ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)
LDFLAGS  = -X github.com/qoslab/amf/internal/obs.buildVersion=$(VERSION) \
           -X github.com/qoslab/amf/internal/obs.buildCommit=$(COMMIT)

.PHONY: all build vet test test-bench race cover bench bench-smoke bench-rank bench-train bench-recovery bench-wal bench-cluster bench-kernels bench-overload test-cluster test-overload test-noasm build-arm64 lint-metrics lint-tunables fuzz fuzz-wire fuzz-select ci experiments experiments-paper examples clean

all: build vet test

# What CI runs (see .github/workflows/ci.yml): full build + vet + tests,
# the metrics-docs lint, plus the race detector over the concurrent
# internals and the observability smoke check.
ci: build vet test test-bench lint-metrics lint-tunables bench-smoke test-cluster test-overload test-noasm build-arm64
	$(GO) test -race ./internal/...
	$(MAKE) fuzz-wire fuzz-select FUZZTIME=10s

# Portable-kernel leg: the SIMD assembly (internal/matrix) ships with a
# pure-Go fallback behind the noasm build tag; this proves the fallback
# (and everything ranking on top of it) still passes, which is what
# non-amd64/arm64 targets actually run.
test-noasm:
	$(GO) test -tags noasm ./internal/matrix/ ./internal/core/

# Cross-compile leg for the NEON kernels: arm64 has no execution
# environment in CI, but the assembly must at least assemble and link.
build-arm64:
	GOOS=linux GOARCH=arm64 $(GO) build ./...

build:
	$(GO) build -ldflags "$(LDFLAGS)" ./...

# Metrics-docs lint: registers every runtime metric family (server with
# all subsystems attached, gateway, federation-derived gauges) and fails
# if any amf_* name is missing from README.md's metrics tables.
lint-metrics:
	$(GO) test -run TestMetricsDocumented ./internal/cluster/

# Tunables-docs lint: registers every control-plane tunable (engine +
# admission gate) and fails if any is missing from README.md's tunables
# table — same pattern as lint-metrics.
lint-tunables:
	$(GO) test -run TestTunablesDocumented ./internal/cluster/

# Overload-control gate: the class-contract stress tests (critical is
# never shed while sheddable is), the epoch-controller convergence
# suite, and the gateway edge-shed tests, all under the race detector.
test-overload:
	$(GO) test -race ./internal/control/
	$(GO) test -race -run 'TestAdmission|TestShedAccountingFold|TestConfigAPI|TestAdaptation' ./internal/server/
	$(GO) test -race -run 'TestGatewayEdgeShed|TestGatewayUnavailable' ./internal/cluster/

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The repository benchmark (bench/) is a module of its own that imports
# internal/core, internal/engine and internal/server, so `go build ./...`
# and `go test ./...` at the root never compile it. This leg does: a
# refactor that breaks the harness fails here, not at measurement time.
test-bench:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem .

# Observability + durability smoke check: vet, the obs package under the
# race detector, the instrumentation-overhead benchmark (instrumented
# predict path must stay within 5% of the uninstrumented one), quick
# passes over the ranking fast path's kernels (DotBatch) and top-K
# selection (scan-speedup-x: the fused scan against the push-every-row
# reference; coalesce-speedup-x: four queries in one pass against four
# passes — both must stay above 1), the incremental view publish (one 64-sample refresh per
# catalog size: ns/op and B/op must not follow the catalog), the
# durable-state layer's hot rows (engine journaling tax, WAL append),
# and the gateway hop on the repository benchmark's candidate shapes
# (rank 200, batch 50: B/op and allocs/op of direct vs gateway must stay
# flat in the candidate count — the wire codec's contract).
bench-smoke: vet
	$(GO) test -race ./internal/obs/
	$(GO) test -run=NONE -bench=BenchmarkPredictPath -benchtime=0.3s ./internal/server/
	$(GO) test -run=NONE -bench=BenchmarkAdmissionGate -benchtime=0.2s ./internal/server/
	$(GO) test -run=NONE -bench='BenchmarkDotBatch/paired/rows=1000$$' -benchtime=0.2s ./internal/matrix/
	$(GO) test -run=NONE -bench='BenchmarkTopK/10k|BenchmarkTopKAllBatch/q4' -benchmem -benchtime=0.2s ./internal/core/
	$(GO) test -run=NONE -bench='BenchmarkRefreshView/services=(5k|20k)/batch=64$$' -benchmem -benchtime=0.2s ./internal/core/
	$(GO) test -run=NONE -bench='BenchmarkTrainThroughput/workers=(1|4)$$' -benchtime=0.2s ./internal/core/
	$(GO) test -run=NONE -bench='BenchmarkObserveJournal/journal=(none|interval)' -benchtime=0.2s ./internal/engine/
	$(GO) test -run=NONE -bench='BenchmarkWALAppend/(off|interval)' -benchtime=0.2s ./internal/store/
	$(GO) test -run=NONE -bench='BenchmarkWALGroupCommit/P=8$$' -benchtime=0.2s ./internal/store/
	$(GO) test -run=NONE -bench='BenchmarkGatewayRank/candidates=200$$|BenchmarkGatewayBatch' -benchmem -benchtime=0.2s ./internal/cluster/

# SIMD kernel comparison (scalar vs AVX2/NEON vs float32, plus the
# blocked multi-query coalescing traversal), archived as machine-
# readable JSON (BENCH_kernels.json). Every comparison is paired-
# interleaved — arms share one timing loop — so the *-speedup-x extras
# are immune to CPU frequency drift between runs.
bench-kernels:
	$(GO) test -run=NONE -bench='BenchmarkDot$$|BenchmarkDotBatch|BenchmarkBlockedScan' -benchmem -benchtime=0.5s ./internal/matrix/ \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -o BENCH_kernels.json

# Full ranking fast-path benchmark, archived as machine-readable JSON
# (BENCH_rank.json) via the benchjson parser. Compare runs across
# commits with: git diff BENCH_rank.json
bench-rank:
	$(GO) test -run=NONE -bench='BenchmarkTopK|BenchmarkPredictBatchView' -benchmem -benchtime=0.5s ./internal/core/ \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -o BENCH_rank.json

# Parallel-training throughput curve (workers = 1/2/4/8 + Hogwild +
# replay), archived as machine-readable JSON (BENCH_train.json). The
# workers=1 row is the exact serial baseline, so sub-benchmark ratios are
# the parallel speedup; on single-core hosts all widths serialize and the
# curve measures fan-out overhead instead.
bench-train:
	$(GO) test -run=NONE -bench='BenchmarkTrainThroughput' -benchmem -benchtime=0.5s ./internal/core/ \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -o BENCH_train.json

# Durable-state layer benchmarks (WAL append per fsync policy, replay,
# checkpoint, full crash-recovery path, and the engine's journaling tax),
# archived as machine-readable JSON (BENCH_recovery.json). The
# journal=interval row must stay within 10% of journal=none.
bench-recovery:
	{ $(GO) test -run=NONE -bench='BenchmarkWALAppend|BenchmarkWALReplay|BenchmarkCheckpoint|BenchmarkRecovery' -benchmem -benchtime=0.5s ./internal/store/ ; \
	  $(GO) test -run=NONE -bench='BenchmarkObserveJournal' -benchmem -benchtime=0.5s ./internal/engine/ ; } \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -o BENCH_recovery.json

# Group-commit write-path benchmark, archived as BENCH_wal.json: P
# concurrent writers each issuing durable appends under fsync=always
# (one fsync per record) vs fsync=group (shared covering fsync) vs
# fsync=interval (bounded-loss floor), paired-interleaved inside one
# timing loop so the group-speedup-x extras are immune to disk and CPU
# drift between arms.
bench-wal:
	$(GO) test -run=NONE -bench='BenchmarkWALGroupCommit' -benchmem -benchtime=0.5s ./internal/store/ \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -o BENCH_wal.json

# Cluster integration gate: the ring/gateway suites (including the
# SIGKILL-the-leader failover test — 1 gateway + 3 replicas in-process,
# promoted follower must serve with zero acked-sample loss) and the
# WAL-shipping replication suite, all under the race detector.
test-cluster:
	$(GO) test -race ./internal/cluster/
	$(GO) test -race -run 'TestFollower|TestPromote|TestReplicate|TestApplyStream|TestClusterStatus|TestSetLeader|TestStartFollower|TestDrainReplication' ./internal/server/

# User-sharded cluster benchmarks, archived as BENCH_cluster.json:
# gateway proxy overhead vs direct serving (the full-catalog ranking
# workload must stay within 15% at p50; see the p50-ns/op extras) and
# steady-state WAL-shipping replication lag (ns/op IS the lag).
bench-cluster:
	$(GO) test -run=NONE -bench='BenchmarkGateway|BenchmarkReplicationLag' -benchmem -benchtime=1s ./internal/cluster/ \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -o BENCH_cluster.json

# Open-loop overload ramp (0.5x/1x/2x/4x of the calibrated sustainable
# rate, 20/40/40 critical/standard/sheddable mix) against an in-process
# server with the SLO admission gate and epoch adaptation enabled,
# archived as BENCH_overload.json: per-class goodput/shed-rate/latency
# and which tunables the controller moved. The acceptance bar: critical
# goodput >= 0.99 at 4x while the sheddable class absorbs the loss.
bench-overload:
	$(GO) run ./cmd/amfbench -mode overload -o BENCH_overload.json

FUZZTIME ?= 30s

fuzz: fuzz-wire fuzz-select
	$(GO) test -run=NONE -fuzz='^FuzzReadTriplets$$' -fuzztime=$(FUZZTIME) ./internal/dataset/
	$(GO) test -run=NONE -fuzz='^FuzzParseLine$$' -fuzztime=$(FUZZTIME) ./internal/qosdb/
	$(GO) test -run=NONE -fuzz='^FuzzDecodeEntry$$' -fuzztime=$(FUZZTIME) ./internal/store/
	$(GO) test -run=NONE -fuzz='^FuzzSegmentScan$$' -fuzztime=$(FUZZTIME) ./internal/store/
	$(GO) test -run=NONE -fuzz='^FuzzDotKernels$$' -fuzztime=$(FUZZTIME) ./internal/matrix/

# The wire codec against encoding/json (internal/server/codec_test.go):
# decoders agree with json.Unmarshal on accept/reject and on every
# field, encoders with json.Marshal on every byte. CI runs this leg at
# FUZZTIME=10s; the seed corpora alone run under plain `go test`.
fuzz-wire:
	for target in FuzzDecodeBatch FuzzDecodeRank FuzzDecodeObserve FuzzAppendString FuzzAppendFloat; do \
		$(GO) test -run=NONE -fuzz="^$$target\$$" -fuzztime=$(FUZZTIME) ./internal/server/ || exit 1; \
	done

# Fused top-k selection against the push-every-row reference
# (internal/core/select_test.go): fuzzer-chosen keys — ties, ±0, ±Inf,
# NaN — must rank identically through every selection entry point. CI
# runs this leg at FUZZTIME=10s.
fuzz-select:
	$(GO) test -run=NONE -fuzz='^FuzzSelect$$' -fuzztime=$(FUZZTIME) ./internal/core/

# Regenerate every table and figure at the default reduced scale.
experiments:
	$(GO) run ./cmd/amfbench -exp all

# The paper's full 142x4500x64 shape (slow; Table I alone takes minutes).
experiments-paper:
	$(GO) run ./cmd/amfbench -exp all -scale paper -rounds 20

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/adaptation
	$(GO) run ./examples/onlineserver
	$(GO) run ./examples/churn
	$(GO) run ./examples/offline
	$(GO) run ./examples/streamingest
	$(GO) run ./examples/operations

clean:
	$(GO) clean ./...
