package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/qoslab/amf/internal/stats"
)

// archive is what -selfcheck writes and -compare reads: every end-to-end
// value of every run, by workload and metric, in seed order.
type archive struct {
	When    string                          `json:"when"`
	Host    string                          `json:"host"`
	Seconds float64                         `json:"seconds"`
	Seeds   []int64                         `json:"seeds"`
	Values  map[string]map[string][]float64 `json:"values"` // workload → metric → one value per seed
}

func loadArchive(path string) (*archive, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a archive
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &a, nil
}

// selfCheck runs n seeds of every workload, one after another in this
// process, and prints each end-to-end metric's spread (inter-quartile
// distance over median, as the driver takes it) beside its bound. It
// exits non-zero when a spread is wider than its bound; setup_s is shown
// but, as in the driver's rule, not held to it.
func selfCheck(n int, seconds float64) int {
	if n < 2 {
		fmt.Fprintln(os.Stderr, "bench: -selfcheck needs at least 2 seeds")
		return 2
	}
	a := &archive{
		When: time.Now().UTC().Format(time.RFC3339), Seconds: seconds,
		Host:   fmt.Sprintf("%s nproc=%d %s", cpuModel(), runtime.NumCPU(), runtime.Version()),
		Values: map[string]map[string][]float64{},
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		a.Seeds = append(a.Seeds, seed)
	}
	for _, w := range workloads {
		a.Values[w.name] = map[string][]float64{}
		for _, seed := range a.Seeds {
			freshProcessState()
			res, err := timedRun(w, seed, seconds, nil)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d of %d operations failed\n", w.name, seed, res.Failed, res.Attempted)
				return 1
			}
			for name, v := range res.Metrics {
				a.Values[w.name][name] = append(a.Values[w.name][name], v.Value)
			}
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	path := filepath.Join(outDir, "selfcheck-"+time.Now().UTC().Format("20060102T150405Z")+".json")
	b, _ := json.MarshalIndent(a, "", " ")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	wide := printSpreads(a)
	fmt.Printf("archive: %s\n", path)
	if wide > 0 {
		fmt.Printf("%d metric(s) spread wider than their bound\n", wide)
		return 1
	}
	return 0
}

// printSpreads prints the steadiness table of one archive and returns how
// many gated spreads exceed their bound.
func printSpreads(a *archive) (wide int) {
	fmt.Printf("%-16s %-20s %14s %9s %9s %7s\n", "workload", "metric", "median", "spread", "bound/3", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			v := a.Values[w.name][m.name]
			if len(v) < 2 {
				continue
			}
			sp, note := spread(v), ""
			switch {
			case sp > m.bound && m.name != "setup_s":
				wide++
				note = "  WIDER THAN BOUND"
			case sp > m.bound/3:
				note = "  above bound/3"
			}
			fmt.Printf("%-16s %-20s %14.4f %8.2f%% %8.2f%% %6.0f%%%s\n",
				w.name, m.name, stats.Median(v), 100*sp, 100*m.bound/3, 100*m.bound, note)
		}
	}
	return wide
}

// freshProcessState brings a run inside a long-lived process as close to a
// fresh one as it gets: heap collected and returned, RSS peak reset.
func freshProcessState() {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 clears the peak-RSS counter (VmHWM) of this process.
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// compareArchives prints, per workload and end-to-end metric, both
// medians with their quartiles, the ratio B/A, and a verdict: regressed
// when B's median is worse than A's by more than the bound, unresolved
// when either side's own spread is wider than the bound, else ok.
func compareArchives(pathA, pathB string) int {
	a, err := loadArchive(pathA)
	if err == nil {
		var b *archive
		if b, err = loadArchive(pathB); err == nil {
			return printComparison(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

func printComparison(a, b *archive) int {
	fmt.Printf("A: %s (%s)\nB: %s (%s)\n", a.When, a.Host, b.When, b.Host)
	fmt.Printf("%-16s %-20s %36s %36s %14s %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A", "verdict")
	bad := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			va, vb := a.Values[w.name][m.name], b.Values[w.name][m.name]
			if len(va) < 2 || len(vb) < 2 {
				continue
			}
			verdict := verdictOf(m, va, vb)
			if verdict != "ok" {
				bad++
			}
			a1, _, a3 := quartiles(va)
			b1, _, b3 := quartiles(vb)
			ma, mb := stats.Median(va), stats.Median(vb)
			fmt.Printf("%-16s %-20s %12.4f [%10.4f, %10.4f] %12.4f [%10.4f, %10.4f] %6.3f of %-7.4g %s\n",
				w.name, m.name, ma, a1, a3, mb, b1, b3, mb/ma, ma, verdict)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func verdictOf(m metricSpec, va, vb []float64) string {
	ma, mb := stats.Median(va), stats.Median(vb)
	worse := (mb - ma) / ma
	if m.better == "higher" {
		worse = (ma - mb) / ma
	}
	switch {
	case m.name != "setup_s" && (spread(va) > m.bound || spread(vb) > m.bound):
		return "unresolved"
	case worse > m.bound:
		return "regressed"
	}
	return "ok"
}
