# Development entry points for the AMF reproduction.

GO ?= go

# Build identification, stamped into every binary's amf_build_info gauge
# (see internal/obs/buildinfo.go). Untagged trees fall back to the
# commit; non-git tarballs to "dev"/"unknown".
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT  ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)
LDFLAGS  = -X github.com/qoslab/amf/internal/obs.buildVersion=$(VERSION) \
           -X github.com/qoslab/amf/internal/obs.buildCommit=$(COMMIT)

.PHONY: all build fmt vet test test-bench race cover bench-smoke test-cluster test-overload test-noasm build-arm64 lint-metrics fuzz fuzz-wire fuzz-select fuzz-kernels fuzz-idtab fuzz-pool fuzz-recycle fuzz-mux fuzz-store ci experiments experiments-paper examples clean

all: build vet test

# The one gate list; .github/workflows/ci.yml runs exactly this. Each
# test runs once per mode: `test` includes the docs lints, and the race
# pass over ./internal/... includes everything test-cluster and
# test-overload select (those targets stay as developer shortcuts); the
# examples leg runs every program under examples/ to completion.
ci: build fmt vet test test-bench bench-smoke test-noasm build-arm64 examples
	$(GO) test -race ./internal/...
	$(MAKE) fuzz-wire fuzz-select fuzz-kernels fuzz-idtab fuzz-pool fuzz-recycle fuzz-mux fuzz-store FUZZTIME=10s

# Portable-kernel leg: the SIMD assembly (internal/matrix) ships with a
# pure-Go fallback behind the noasm build tag; this proves the fallback
# (and everything ranking or transforming on top of it: core, and the
# batch power in transform) still passes, which is what non-amd64/arm64
# targets actually run. The baselines' golden predictions and the
# adaptation simulation's results are recorded for the portable kernel
# too, so their digests are checked here.
test-noasm:
	$(GO) test -tags noasm ./internal/matrix/ ./internal/transform/ ./internal/core/
	$(GO) test -tags noasm -run TestBaselinesGolden ./internal/eval/
	$(GO) test -tags noasm -run TestSimulationGolden ./internal/adapt/

# Cross-compile leg for the NEON kernels: arm64 has no execution
# environment in CI, but the assembly must at least assemble and link.
build-arm64:
	GOOS=linux GOARCH=arm64 $(GO) build ./...

build:
	$(GO) build -ldflags "$(LDFLAGS)" ./...

# Metrics-docs lint: registers every runtime metric family (server with
# all subsystems attached, gateway, federation-derived gauges) and fails
# if any amf_* name is missing from README.md's metrics tables, or a row
# names a family nothing exports.
lint-metrics:
	$(GO) test -run TestMetricsDocumented ./internal/cluster/

# Overload-control gate: the class-contract stress tests (critical is
# never shed while sheddable is), the gateway's own 503 and its relay
# of a backend's shed headers (what a shed client needs to back off),
# all under the race detector.
test-overload:
	$(GO) test -race -run 'TestAdmission' ./internal/server/
	$(GO) test -race -run 'TestGatewayUnavailable|TestGatewayRelaysShedHeaders' ./internal/cluster/

# Formatting leg: the walk covers bench/ too; any printed name fails.
fmt:
	test -z "$$(gofmt -l .)"

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

# Smoke benchmarks for what the repository benchmark (bench/) has no
# probe for: the instrumented predict handler without sockets (the row
# predict_point's server share is read against), concurrent durable
# writers under group commit (group-speedup-x), and the model apply of one
# 64-sample observe at the served shape with the writer's scoring in it
# (ns/sample in the steady state of a fixed ring of batches, one P as in
# bench/; bench/'s core.observe_ns_per_sample times a cold preload), and
# the publish of one in both arms: into fresh pages, as bench/'s
# core.refresh_view_p50_us times it, and into recycled ones, as the
# engine publishes when no reader pins the replaced view — each copied
# page's twin, written only in the rows that changed since;
# and the full-catalog scan of a 10k-service view beside the same scan
# pushing every row (scan-speedup-x) and the candidate path (heap-p50),
# with how many times its kernel returned to Go (handbacks/op, a count
# any host reproduces); and the reads that find a service by id — one
# predict and a 200-candidate rank — on 10k-service views with dense ids,
# 10% holes and sparse ids (ns/op, one P: a shard counts bits in its
# rank words on the first two and searches its ids on sparse ones);
# and a predict and a 50-candidate batch through a gateway over real
# loopback sockets beside the same requests direct, with allocs/op
# (bench/'s hop is in-process); and the registry resolving a rank's 200
# candidates among 10k names (ns/name, a hot-cache figure: the served
# path gains by the table's smaller footprint, which a hot loop hides);
# and each page walk the CPU can run (AVX2, AVX-512) over the same pages
# in one interleaved loop, with the row-major kernels beside them
# (page-<kernel>-ns/row, page-avx512-speedup-x), since bench/ times only
# the one the host dispatches to; and the decode of one 64-sample observe
# body of the served shape (ns/op, MB/s, 0 allocs/op), which bench/'s
# per-layer probes are too noisy to resolve.
# Every other hot row is a bench/ metric under its own name.
bench-smoke:
	$(GO) test -run=NONE -bench=BenchmarkPredictPath -benchtime=0.3s ./internal/server/
	$(GO) test -run=NONE -bench=BenchmarkDecodeObserve -benchmem -benchtime=2000x -cpu=1 ./internal/server/
	$(GO) test -run=NONE -bench='BenchmarkGateway(Predict|Batch)$$' -benchmem -benchtime=0.3s ./internal/cluster/
	$(GO) test -run=NONE -bench=BenchmarkRegistryResolveAll -benchmem -benchtime=0.3s ./internal/registry/
	$(GO) test -run=NONE -bench='BenchmarkWALGroupCommit/P=8$$' -benchtime=0.2s ./internal/store/
	$(GO) test -run=NONE -bench=BenchmarkObserveApply -benchmem -benchtime=2000x -cpu=1 ./internal/core/
	$(GO) test -run=NONE -bench='BenchmarkRefreshView/services=5k/batch=64/' -benchmem -benchtime=2000x -cpu=1 ./internal/core/
	$(GO) test -run=NONE -bench='BenchmarkTopK/10k' -benchtime=300x -cpu=1 ./internal/core/
	$(GO) test -run=NONE -bench=BenchmarkViewLookup -benchmem -benchtime=0.2s -cpu=1 ./internal/core/
	$(GO) test -run=NONE -bench=BenchmarkDotBatch -benchtime=0.3s -cpu=1 ./internal/matrix/

# Cluster integration gate: the ring/gateway suites (including the
# SIGKILL-the-leader failover test — 1 gateway + 3 replicas in-process,
# promoted follower must serve with zero acked-sample loss) and the
# server's follower, promotion and cluster-status suite, all under the
# race detector.
test-cluster:
	$(GO) test -race ./internal/cluster/
	$(GO) test -race -run 'TestFollower|TestPromote|TestClusterStatus|TestSetLeader|TestStartFollower|TestDemote' ./internal/server/

FUZZTIME ?= 30s

fuzz: fuzz-wire fuzz-select fuzz-kernels fuzz-idtab fuzz-pool fuzz-recycle fuzz-mux fuzz-store
	$(GO) test -run=NONE -fuzz='^FuzzReadTriplets$$' -fuzztime=$(FUZZTIME) ./internal/dataset/

# The WAL's readers (internal/store/fuzz_test.go): the record decoder
# over arbitrary payloads (what it accepts re-encodes to the same bytes)
# and the segment scanner over arbitrary segment files (an open that
# succeeds replays cleanly). A follower scans segment files a live leader
# is appending to, so these are the bytes it reads. CI runs this leg at
# FUZZTIME=10s per target.
fuzz-store:
	for target in FuzzDecodeEntry FuzzSegmentScan; do \
		$(GO) test -run=NONE -fuzz="^$$target\$$" -fuzztime=$(FUZZTIME) ./internal/store/ || exit 1; \
	done

# The wire codec against encoding/json (internal/server/codec_test.go):
# decoders agree with json.Unmarshal on accept/reject and on every
# field, encoders with json.Marshal on every byte; and the codec's
# number converter against strconv (internal/ingest/number_test.go):
# over any text it claims the number encoding/json reads and converts it
# to strconv.ParseFloat's bits, or hands it to strconv; and the
# X-Amf-Trace header's parser (internal/obs/trace/trace_test.go): it
# never panics, and what it accepts is what HeaderValue writes for the
# parsed IDs, up to the case of the hex digits; and the strict /metrics
# parser the gateway runs on every replica's page
# (internal/obs/fuzz_test.go): it never panics, nor do Validate and
# HistogramQuantile on what it accepts, and an accepted page federates
# back to one with the same families, types and sample counts (its seeds
# are whole 3-20 KB pages, so minimizing is capped at 200 runs an input:
# the default 60 s would spend the whole FUZZTIME on it). CI runs this leg at
# FUZZTIME=10s per target; the seed corpora alone run under plain
# `go test`.
fuzz-wire:
	for target in FuzzDecodeBatch FuzzDecodeRank FuzzDecodeObserve FuzzAppendString FuzzAppendFloat; do \
		$(GO) test -run=NONE -fuzz="^$$target\$$" -fuzztime=$(FUZZTIME) ./internal/server/ || exit 1; \
	done
	$(GO) test -run=NONE -fuzz='^FuzzParseNumber$$' -fuzztime=$(FUZZTIME) ./internal/ingest/
	$(GO) test -run=NONE -fuzz='^FuzzParseHeader$$' -fuzztime=$(FUZZTIME) ./internal/obs/trace/
	$(GO) test -run=NONE -fuzz='^FuzzParseMetrics$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=200x ./internal/obs/

# Fused top-k selection against the push-every-row reference
# (internal/core/select_test.go): fuzzer-chosen keys — ties, ±0, ±Inf,
# NaN — must rank identically through every selection entry point; and
# the view shard's id → row lookup, rank words and search, against a
# linear scan (internal/core/index_test.go): fuzzer-chosen id sets of
# any ints or of small steps, and probe ids. CI runs this leg at FUZZTIME=10s per target.
fuzz-select:
	for target in FuzzSelect FuzzShardRow; do \
		$(GO) test -run=NONE -fuzz="^$$target\$$" -fuzztime=$(FUZZTIME) ./internal/core/ || exit 1; \
	done

# The dot kernels (internal/matrix/kernels_test.go): assembly against the
# portable loop against the naive sum, both widths, a single-row DotBatch
# against Dot bit for bit, and the page-scan kernel every full-catalog
# rank runs on against its portable loop bit for bit — the page each walk
# stops at, its survivor mask and its scores — over fuzzed page counts,
# ranks, last-page row counts, bounds (NaN, ±Inf, ±0, a key of the shard,
# any value) and directions; and the batch power kernel against math.Pow
# bit for bit over fuzzer-chosen bit patterns and exponents (each lane it
# writes is Pow's, each it leaves untouched). CI runs this leg at
# FUZZTIME=10s per target.
fuzz-kernels:
	for target in FuzzDotKernels FuzzPowKernel; do \
		$(GO) test -run=NONE -fuzz="^$$target\$$" -fuzztime=$(FUZZTIME) ./internal/matrix/ || exit 1; \
	done

# The id table under the replay pool and the model's entity tables
# (internal/idtab/idtab_test.go) against map[int]int32: fuzzer-chosen
# put / overwrite / remove / get scripts over ids that include the free-slot
# marker, ±1<<40 and runs that wrap the slot array; contents agree after
# every step and slot memory follows the entry count. CI runs this leg at
# FUZZTIME=10s.
fuzz-idtab:
	$(GO) test -run=NONE -fuzz='^FuzzTable$$' -fuzztime=$(FUZZTIME) ./internal/idtab/

# The replay pool (internal/stream/replay_test.go) against the map-backed
# reference that takes one sample at a time: fuzzer-chosen scripts of
# batches over a few users and services — runs of several users in one
# batch, a pair repeated inside a batch whether new or already pooled, an
# older arrival of a pooled pair — and of picks, removals of a pair or a
# user, compactions and clock advances; after every step both pools hold
# the same samples at the same positions, and every pick agrees. CI runs
# this leg at FUZZTIME=10s.
fuzz-pool:
	$(GO) test -run=NONE -fuzz='^FuzzPoolBatches$$' -fuzztime=$(FUZZTIME) ./internal/stream/

# Publishing into recycled pages (internal/core/recycle_test.go):
# fuzzer-chosen scripts of observes (known and new pairs), removals,
# replay, refreshes, recycles under an escape watermark and held views run
# on a model that recycles as the engine does and on one that never
# does; after every refresh both views snapshot and rank alike, no
# escaped or held view has changed (its header included), and no spare
# page, twin, spare page slice or spare view header is memory such a
# view can reach. CI runs this leg at FUZZTIME=10s.
fuzz-recycle:
	$(GO) test -run=NONE -fuzz='^FuzzRecycledRefresh$$' -fuzztime=$(FUZZTIME) ./internal/core/

# The router both hops serve through (internal/server/mux_test.go):
# fuzzer-chosen methods, paths and escaped paths must get from
# server.Mux what a plain http.ServeMux holding the same registrations
# answers — status, Allow, Location and handler — for the patterns a
# fully attached server and a gateway register. CI runs this leg at
# FUZZTIME=10s.
fuzz-mux:
	$(GO) test -run=NONE -fuzz='^FuzzMux$$' -fuzztime=$(FUZZTIME) ./internal/server/

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

clean:
	$(GO) clean ./...
