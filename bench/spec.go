package main

// This file is the benchmark's single statement of what it measures: the
// workloads, the end-to-end metrics with their bounds, and the per-layer
// metric names. BENCHMARK.json at the repository root repeats it for the
// driver; TestSpecMatchesBenchmarkJSON holds the two equal.

// benchCommand is how the driver starts a run, from the repository root;
// it appends --workload, --seed, --seconds and --trace.
var benchCommand = []string{"go", "-C", "bench", "run", "github.com/qoslab/amf/bench"}

// runSeconds is the length of the timed window the driver asks for
// (BENCHMARK.json run_seconds). Warm-up adds warmupShare of it in front.
const (
	runSeconds  = 15
	warmupShare = 0.2
)

// adaptReads is R of the adapt_cycle workload: read rounds (batch →
// rank_cand → rank_all) per 16-sample observe. Chosen once on the seed
// code so the observe is 40–60% of the cycle, then frozen: changing it
// redefines the workload and every number measured on it.
const adaptReads = 1

// Sizes of the request shapes the workloads are built from.
const (
	preloadBatch    = 2000 // samples per preload observe
	observeBatch    = 64   // samples per observe_durable op
	adaptObserve    = 16   // samples per adapt_cycle observe
	batchCandidates = 50   // services per batch predict
	rankCandidates  = 200  // services per candidate rank
	rankCandTopK    = 5
	rankAllTopK     = 10
	heldoutPairs    = 5000
	crossCheckUsers = 5
	zipfExponent    = 1.1
	datasetSlices   = 64
	datasetTrueRank = 8
	rtMin, rtMax    = 0.0, 20.0
	setupsPerRun    = 3
	windowParts     = 60   // stretches the timed window is cut into
	minTailOps      = 1000 // ops a stretch needs for ten samples beyond its p99
	preloadSlice    = 0    // dataset time slice the preload observes
	streamSlice     = 1    // the next slice: what the ops observe and are judged against

	// restTicks is how many replay ticks the service is watched at rest
	// after the window, to price what it allocates without a client.
	restTicks = 8
)

// workloadSpec is one workload: its dataset shape, how many requests its
// ring of pre-built ops holds, and the reason it exists.
type workloadSpec struct {
	name     string
	users    int
	services int
	density  float64 // share of the user×service matrix preloaded
	ring     int     // distinct pre-built ops the client cycles through
	writes   bool    // the op stream contains observes
	why      string
}

var workloads = []workloadSpec{
	{
		name: "predict_point", users: 1000, services: 5000, density: 0.05, ring: 1 << 16,
		why: "GET predict, zipf user x uniform service: a 10 ns dot inside a ~9 us request, so gateway proxying and server JSON/registry are nearly all of it; kernel and WAL work must show no change",
	},
	{
		name: "rank_catalog", users: 300, services: 20000, density: 0.02, ring: 1 << 12,
		why: "POST rank topk=10 over the full 20k-service catalog (1.6 MB arena, inside L2): the core/matrix scan plus top-k heap is the largest share; JSON is a 30-byte body and the WAL is idle",
	},
	{
		name: "observe_durable", users: 1000, services: 5000, density: 0.05, ring: 1 << 12, writes: true,
		why: "POST observe, 64 samples for one zipf user under fsync=group: engine writer loop, store group commit and core SGD/RefreshView do the work; read kernels idle; ends with close, reopen, recovery check",
	},
	{
		name: "adapt_cycle", users: 500, services: 10000, density: 0.03, ring: 1 << 11, writes: true,
		why: "one whole adaptation cycle timed as a unit: observe 16, then batch 50, rank 200 candidates, rank all; writes beside reads, so a read gain that costs publish (or the reverse) nets out here",
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec is one reported metric. bound is 0 for per-layer metrics.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd lists the gated metrics; every workload reports every one.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p99_us", "us", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_bytes_per_op", "B", "lower", 0.05},
	{"rss_peak_mb", "MB", "lower", 0.25},
	{"heldout_mre", "ratio", "lower", 0.10},
	{"heldout_npre", "ratio", "lower", 0.25},
}

// opNames are the request kinds the per-op metric families are keyed by.
var opNames = []string{"predict", "batch", "rank_cand", "rank_all", "observe"}

// perOpFamilies are the per-layer families reported once per op. An op a
// workload never issues reports 0 in that workload's traced run.
var perOpFamilies = []metricSpec{
	{"client.p50_us", "us", "lower", 0},
	{"client.wire_p50_us", "us", "lower", 0},
	{"client.wire_residual_us", "us", "lower", 0},
	{"cluster.self_p50_us", "us", "lower", 0},
	{"cluster.allocs_per_op", "count", "lower", 0},
	{"cluster.overhead_pct", "%", "lower", 0},
	{"server.self_p50_us", "us", "lower", 0},
	{"server.allocs_per_op", "count", "lower", 0},
	{"server.alloc_bytes_per_op", "B", "lower", 0},
	{"ledger.unaccounted_pct", "%", "lower", 0},
}

// perLayerSingles are the per-layer metrics that are not keyed by op.
var perLayerSingles = []metricSpec{
	{"client.latency_p999_us", "us", "lower", 0},
	{"client.overhead_ns_per_op", "ns", "lower", 0},
	{"client.trace_overhead_pct", "%", "lower", 0},
	{"client.host_slowdown", "ratio", "lower", 0},
	{"client.gc_cycles", "count", "lower", 0},
	{"client.gc_pause_ms", "ms", "lower", 0},
	{"server.gate_ns_per_req", "ns", "lower", 0},
	{"registry.lookup_ns", "ns", "lower", 0},
	{"engine.queue_wait_p50_us", "us", "lower", 0},
	{"engine.journal_p50_us", "us", "lower", 0},
	{"engine.apply_p50_us", "us", "lower", 0},
	{"engine.publish_p50_us", "us", "lower", 0},
	{"engine.commit_wait_p50_us", "us", "lower", 0},
	{"engine.apply_ns_per_sample", "ns", "lower", 0},
	{"engine.publishes_per_observe", "count", "lower", 0},
	{"engine.idle_cpu_share", "ratio", "lower", 0},
	{"engine.idle_alloc_mb_per_s", "MB/s", "lower", 0},
	{"store.append_p50_us", "us", "lower", 0},
	{"store.wait_durable_p50_us", "us", "lower", 0},
	{"store.fsyncs_per_observe", "count", "lower", 0},
	{"store.wal_bytes_per_sample", "B", "lower", 0},
	{"store.recovery_s", "s", "lower", 0},
	{"store.checkpoint_s", "s", "lower", 0},
	{"store.fsync_disk_p50_us", "us", "lower", 0},
	{"core.predict_ns", "ns", "lower", 0},
	{"core.topk_all_p50_us", "us", "lower", 0},
	{"core.topk_cand_p50_us", "us", "lower", 0},
	{"core.predict_batch_p50_us", "us", "lower", 0},
	{"core.scan_ns_per_service", "ns", "lower", 0},
	{"core.observe_ns_per_sample", "ns", "lower", 0},
	{"core.refresh_view_p50_us", "us", "lower", 0},
	{"core.build_view_ms", "ms", "lower", 0},
	{"matrix.dot_ns", "ns", "lower", 0},
	{"matrix.dotbatch_ns_per_row", "ns", "lower", 0},
	{"matrix.dotbatch32_ns_per_row", "ns", "lower", 0},
	{"matrix.scan_bytes", "B", "lower", 0},
	{"obs.histogram_observe_ns", "ns", "lower", 0},
}

// perLayer returns every per-layer metric in the order it is printed.
func perLayer() []metricSpec {
	out := make([]metricSpec, 0, len(perOpFamilies)*len(opNames)+len(perLayerSingles))
	for _, f := range perOpFamilies {
		for _, op := range opNames {
			out = append(out, metricSpec{f.name + "." + op, f.unit, f.better, 0})
		}
	}
	return append(out, perLayerSingles...)
}
