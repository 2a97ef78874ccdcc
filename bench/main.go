// Command bench is the repository's benchmark: it assembles the whole
// request path (gateway → server → engine → WAL) in one process, drives
// it with one closed-loop client, checks every answer, and prints the
// end-to-end metrics (or, in a traced run, the per-layer ledger). See
// README.md in this directory.
//
//	go -C bench run . --workload predict_point --seed 1 --seconds 15 --trace 0
//	go -C bench run . -selfcheck 10
//	go -C bench run . -compare out/selfcheck-A.json out/selfcheck-B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"

	"github.com/qoslab/amf/internal/matrix"
)

func main() {
	// One scheduler thread: the run-to-run spread of this host comes from
	// waking halted vCPUs, so the benchmark never needs a second one.
	runtime.GOMAXPROCS(1)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		live.removeAll()
		os.Exit(130)
	}()

	code := run(os.Args[1:])
	live.removeAll()
	os.Exit(code)
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload  = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = fs.Int64("seed", 1, "seed the inputs are generated from")
		seconds   = fs.Float64("seconds", runSeconds, "length of the timed window")
		trace     = fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		selfcheck = fs.Int("selfcheck", 0, "run this many seeds per workload and print each metric's spread against its bound")
		compare   = fs.Bool("compare", false, "compare two self-check archives: -compare A.json B.json")
		corrupt   = fs.Bool("corrupt", false, "put a response-corrupting stub in front of the gateway (the run must fail)")
		printSpec = fs.Bool("print-spec", false, "print BENCHMARK.json as spec.go defines it")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *printSpec:
		fmt.Println(string(benchmarkJSON()))
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two archive files")
			return 2
		}
		return compareArchives(fs.Arg(0), fs.Arg(1))
	case *selfcheck > 0:
		return selfCheck(*selfcheck, *seconds)
	}
	w, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	var (
		res *result
		err error
	)
	if *trace != 0 {
		res, err = tracedRun(w, *seed, *seconds)
	} else {
		var stub func(http.Handler) http.Handler
		if *corrupt {
			stub = corrupting
		}
		res, err = timedRun(w, *seed, *seconds, stub)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// header prints the provenance every result is read against.
func header(w workloadSpec, seed int64, dataRoot string) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("bench %s seed=%d commit=%s %s cpu=%q nproc=%d GOMAXPROCS=%d simd=%s data=%s(%s)\n",
		w.name, seed, commit, runtime.Version(), cpuModel(), runtime.NumCPU(),
		runtime.GOMAXPROCS(0), matrix.SIMD(), dataRoot, fsType(dataRoot))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// benchmarkJSON renders spec.go as the BENCHMARK.json the driver reads.
func benchmarkJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{Command: benchCommand, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workload{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, metric{m.name, m.unit, m.better, &m.bound})
	}
	for _, m := range perLayer() {
		doc.PerLayer = append(doc.PerLayer, metric{m.name, m.unit, m.better, nil})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return b
}
