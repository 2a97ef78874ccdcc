// Command amfbench regenerates every table and figure of the paper's
// evaluation section against the synthetic dataset:
//
//	amfbench -exp all                 # everything at the default scale
//	amfbench -exp table1,fig13 -attr RT -scale small -rounds 5
//	amfbench -exp table1 -scale paper # the full 142x4500 shape (slow)
//
// Experiments: stats fig2 fig7 fig8 fig9 table1 fig10 fig11 fig12 fig13
// fig14 weights params slices prequential floor adaptation ablation.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/qoslab/amf/internal/adapt"
	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/eval"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "amfbench:", err)
		os.Exit(1)
	}
}

var allExperiments = []string{
	"stats", "fig2", "fig7", "fig8", "fig9", "table1",
	"fig10", "fig11", "fig12", "fig13", "fig14", "weights", "params", "slices", "prequential", "floor", "adaptation", "ablation",
}

func run(args []string) error {
	fs := flag.NewFlagSet("amfbench", flag.ContinueOnError)
	var (
		expFlag   = fs.String("exp", "all", "comma-separated experiments, or 'all'")
		scaleFlag = fs.String("scale", "small", "dataset scale: tiny, small, or paper")
		attrFlag  = fs.String("attr", "both", "QoS attribute: RT, TP, or both")
		rounds    = fs.Int("rounds", 3, "rounds per configuration (paper uses 20)")
		seed      = fs.Int64("seed", 2014, "master random seed")
		csvDir    = fs.String("csv", "", "directory to also write machine-readable CSV results into")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rounds < 1 {
		return fmt.Errorf("-rounds must be at least 1, got %d", *rounds)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (experiments go in -exp)", fs.Arg(0))
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fmt.Errorf("create csv dir: %w", err)
		}
	}

	ds, err := scaleConfig(*scaleFlag, *seed)
	if err != nil {
		return err
	}
	attrs, err := parseAttrs(*attrFlag)
	if err != nil {
		return err
	}
	exps := strings.Split(*expFlag, ",")
	if *expFlag == "all" {
		exps = allExperiments
	}

	fmt.Printf("dataset: %d users x %d services x %d slices (scale=%s, seed=%d)\n\n",
		ds.Users, ds.Services, ds.Slices, *scaleFlag, *seed)
	for _, exp := range exps {
		exp = strings.TrimSpace(exp)
		if exp == "" {
			continue
		}
		start := time.Now()
		if err := runExperiment(exp, ds, attrs, *rounds, *seed, *csvDir); err != nil {
			return fmt.Errorf("%s: %w", exp, err)
		}
		fmt.Printf("[%s completed in %v]\n\n", exp, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func scaleConfig(scale string, seed int64) (dataset.Config, error) {
	cfg := dataset.DefaultConfig()
	cfg.Seed = seed
	switch scale {
	case "paper":
		// 142 x 4500 x 64 as in the paper (Fig. 6).
	case "small":
		cfg.Users, cfg.Services, cfg.Slices = 100, 1000, 16
	case "tiny":
		cfg.Users, cfg.Services, cfg.Slices = 30, 150, 8
	default:
		return cfg, fmt.Errorf("unknown scale %q (want tiny, small, or paper)", scale)
	}
	return cfg, nil
}

func parseAttrs(s string) ([]dataset.Attribute, error) {
	switch strings.ToUpper(s) {
	case "RT":
		return []dataset.Attribute{dataset.ResponseTime}, nil
	case "TP":
		return []dataset.Attribute{dataset.Throughput}, nil
	case "BOTH":
		return []dataset.Attribute{dataset.ResponseTime, dataset.Throughput}, nil
	default:
		return nil, fmt.Errorf("unknown attribute %q (want RT, TP, or both)", s)
	}
}

func runExperiment(exp string, ds dataset.Config, attrs []dataset.Attribute, rounds int, seed int64, csvDir string) error {
	switch exp {
	case "stats":
		return runStats(ds)
	case "fig2":
		return runFig2(ds)
	case "fig7":
		return runFig7(ds)
	case "fig8":
		return runFig8(ds)
	case "fig9":
		return runFig9(ds)
	case "table1":
		return runTable1(ds, attrs, rounds, seed, csvDir)
	case "fig10":
		return runFig10(ds, attrs, seed)
	case "fig11":
		return runFig11(ds, attrs, rounds, seed, csvDir)
	case "fig12":
		return runFig12(ds, attrs, rounds, seed, csvDir)
	case "fig13":
		return runFig13(ds, attrs, seed, csvDir)
	case "fig14":
		return runFig14(ds, attrs, seed, csvDir)
	case "params":
		return runParams(ds, attrs, rounds, seed, csvDir)
	case "slices":
		return runSlices(ds, attrs, seed)
	case "weights":
		return runWeightsAblation(ds, attrs, seed)
	case "prequential":
		return runPrequential(ds, attrs, seed)
	case "floor":
		return runFloor(ds, attrs, seed)
	case "adaptation":
		return runAdaptation(ds, seed)
	case "ablation":
		return runAblation(ds, attrs, rounds, seed, csvDir)
	default:
		return fmt.Errorf("unknown experiment (known: %s)", strings.Join(allExperiments, " "))
	}
}

// writeCSVFile writes one result's CSV into csvDir (no-op when empty).
func writeCSVFile(csvDir, name string, write func(io.Writer) error) error {
	if csvDir == "" {
		return nil
	}
	path := filepath.Join(csvDir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("(csv written to %s)\n", path)
	return nil
}

func runStats(ds dataset.Config) error {
	g, err := dataset.New(ds)
	if err != nil {
		return err
	}
	fmt.Println("== Data statistics (paper Fig. 6) ==")
	fmt.Print(g.SampleStatistics(4, 20000))
	return nil
}

func runFig2(ds dataset.Config) error {
	g, err := dataset.New(ds)
	if err != nil {
		return err
	}
	fmt.Println("== Fig. 2(a): RT of one user-service pair across time slices ==")
	series := eval.Fig2a(g, 0, 0)
	for t, v := range series {
		fmt.Printf("slice %2d: %6.3f s  %s\n", t, v, bar(v, 10, 40))
	}
	fmt.Println("\n== Fig. 2(b): sorted RT of 100 users invoking one service ==")
	users := eval.Fig2b(g, 1, 0, 100)
	for i, v := range users {
		if i%10 == 0 || i == len(users)-1 {
			fmt.Printf("user rank %3d: %6.3f s  %s\n", i, v, bar(v, 10, 40))
		}
	}
	return nil
}

func bar(v, max float64, width int) string {
	n := int(v / max * float64(width))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

func runFig7(ds dataset.Config) error {
	g, err := dataset.New(ds)
	if err != nil {
		return err
	}
	rt, tp := eval.Fig7(g, 25, 4, 20000)
	fmt.Println("== Fig. 7: raw data distributions (highly skewed) ==")
	fmt.Println("Response time (cut at 10 s):")
	fmt.Print(rt.Render(40))
	fmt.Println("Throughput (cut at 150 kbps):")
	fmt.Print(tp.Render(40))
	return nil
}

func runFig8(ds dataset.Config) error {
	g, err := dataset.New(ds)
	if err != nil {
		return err
	}
	rt, tp, err := eval.Fig8(g, 25, 4, 20000)
	if err != nil {
		return err
	}
	fmt.Println("== Fig. 8: transformed data distributions (Box-Cox + normalize) ==")
	fmt.Println("Response time (alpha = -0.007):")
	fmt.Print(rt.Render(40))
	fmt.Println("Throughput (alpha = -0.05):")
	fmt.Print(tp.Render(40))
	for _, attr := range []dataset.Attribute{dataset.ResponseTime, dataset.Throughput} {
		before, after, err := eval.SkewReduction(g, attr, 20000)
		if err != nil {
			return err
		}
		fmt.Printf("%s |skewness|: %.2f raw -> %.2f transformed\n", attr, before, after)
	}
	return nil
}

func runFig9(ds dataset.Config) error {
	g, err := dataset.New(ds)
	if err != nil {
		return err
	}
	rt, tp, err := eval.Fig9(g, 50)
	if err != nil {
		return err
	}
	fmt.Println("== Fig. 9: sorted normalized singular values (low-rank evidence) ==")
	fmt.Printf("%4s %10s %10s\n", "id", "RT", "TP")
	for i := range rt {
		fmt.Printf("%4d %10.4f %10.4f\n", i+1, rt[i], tp[i])
	}
	return nil
}

// runAblation switches off one AMF design decision per variant at
// density 10%: the relative loss (Eq. 6), the adaptive weights (Eq.
// 16-17) and the tuned Box-Cox α. Full AMF comes last, so the "Improve."
// row reads as AMF against the best ablated variant.
func runAblation(ds dataset.Config, attrs []dataset.Attribute, rounds int, seed int64, csvDir string) error {
	fmt.Println("== Ablations: AMF with one design decision switched off (density 10%) ==")
	off, one := false, 1.0
	approaches := []eval.Approach{
		eval.AMFApproach("abs-loss", eval.AMFOverrides{RelativeLoss: &off}),
		eval.AMFApproach("fixed-w", eval.AMFOverrides{AdaptiveWeights: &off}),
		eval.AMFApproach("AMF(a=1)", eval.AMFOverrides{Alpha: &one}),
		eval.AMFApproach("AMF", eval.AMFOverrides{}),
	}
	for _, attr := range attrs {
		res, err := eval.RunTable1(eval.Table1Options{
			Dataset: ds, Attr: attr, Densities: []float64{0.10}, Rounds: rounds, Seed: seed, Approaches: approaches,
		})
		if err != nil {
			return err
		}
		fmt.Print(res)
		if err := writeCSVFile(csvDir, fmt.Sprintf("ablation_%s.csv", attr), res.WriteCSV); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func runTable1(ds dataset.Config, attrs []dataset.Attribute, rounds int, seed int64, csvDir string) error {
	fmt.Println("== Table I: accuracy comparison ==")
	for _, attr := range attrs {
		res, err := eval.RunTable1(eval.Table1Options{
			Dataset: ds, Attr: attr, Rounds: rounds, Seed: seed,
		})
		if err != nil {
			return err
		}
		fmt.Print(res)
		if err := writeCSVFile(csvDir, fmt.Sprintf("table1_%s.csv", attr), res.WriteCSV); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func runFig10(ds dataset.Config, attrs []dataset.Attribute, seed int64) error {
	fmt.Println("== Fig. 10: distribution of prediction errors (density 10%) ==")
	for _, attr := range attrs {
		res, err := eval.RunFig10(eval.Fig10Options{Dataset: ds, Attr: attr, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Printf("%s: share of errors within +/-0.5:\n", attr)
		for _, name := range res.Order {
			fmt.Printf("  %-6s %.3f\n", name, res.CenterMass(name, 0.5))
		}
	}
	return nil
}

func runFig11(ds dataset.Config, attrs []dataset.Attribute, rounds int, seed int64, csvDir string) error {
	fmt.Println("== Fig. 11: impact of data transformation (MRE) ==")
	for _, attr := range attrs {
		res, err := eval.RunFig11(eval.Fig11Options{Dataset: ds, Attr: attr, Rounds: rounds, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Print(res)
		if err := writeCSVFile(csvDir, fmt.Sprintf("fig11_%s.csv", attr), res.WriteCSV); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func runFig12(ds dataset.Config, attrs []dataset.Attribute, rounds int, seed int64, csvDir string) error {
	fmt.Println("== Fig. 12: impact of matrix density (5%..50%) ==")
	for _, attr := range attrs {
		res, err := eval.RunFig12(eval.Fig12Options{Dataset: ds, Attr: attr, Rounds: rounds, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Print(res)
		if err := writeCSVFile(csvDir, fmt.Sprintf("fig12_%s.csv", attr), res.WriteCSV); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func runFig13(ds dataset.Config, attrs []dataset.Attribute, seed int64, csvDir string) error {
	fmt.Println("== Fig. 13: per-slice convergence time ==")
	slices := ds.Slices
	if slices > 16 {
		slices = 16
	}
	for _, attr := range attrs {
		res, err := eval.RunFig13(eval.Fig13Options{Dataset: ds, Attr: attr, Slices: slices, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Printf("%s (seconds per slice):\n", attr)
		fmt.Printf("%6s %10s %10s %10s %10s\n", "slice", "UIPCC", "PMF", "AMF", "AMF-epochs")
		for t := 0; t < res.Slices; t++ {
			fmt.Printf("%6d %10.3f %10.3f %10.3f %10d\n",
				t, res.Seconds["UIPCC"][t], res.Seconds["PMF"][t], res.Seconds["AMF"][t], res.AMFEpochs[t])
		}
		speedups := res.SpeedupAfterWarmup()
		names := make([]string, 0, len(speedups))
		for name := range speedups {
			names = append(names, name)
		}
		sort.Strings(names) // the same seed prints the same lines
		for _, name := range names {
			fmt.Printf("AMF speedup over %s after warmup: %.1fx\n", name, speedups[name])
		}
		if err := writeCSVFile(csvDir, fmt.Sprintf("fig13_%s.csv", attr), res.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

func runFig14(ds dataset.Config, attrs []dataset.Attribute, seed int64, csvDir string) error {
	fmt.Println("== Fig. 14: scalability under churn (80% existing, 20% joining) ==")
	for _, attr := range attrs {
		res, err := eval.RunFig14(eval.Fig14Options{Dataset: ds, Attr: attr, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Printf("%s:\n%10s %8s %12s %12s\n", attr, "steps", "t(s)", "existingMRE", "newMRE")
		for _, p := range res.Points {
			newMRE := "-"
			if p.AfterJoin {
				newMRE = fmt.Sprintf("%.3f", p.NewMRE)
			}
			fmt.Printf("%10d %8.2f %12.3f %12s\n", p.Steps, p.Seconds, p.ExistingMRE, newMRE)
		}
		first, last, drift := res.NewcomerConvergence()
		fmt.Printf("newcomer MRE %.3f -> %.3f; incumbent drift %.1f%%\n", first, last, drift*100)
		if err := writeCSVFile(csvDir, fmt.Sprintf("fig14_%s.csv", attr), res.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

func runParams(ds dataset.Config, attrs []dataset.Attribute, rounds int, seed int64, csvDir string) error {
	fmt.Println("== Parameter sweeps (supplementary: impact of d, lambda, eta, beta) ==")
	for _, attr := range attrs {
		res, err := eval.RunParamSweep(eval.ParamSweepOptions{Dataset: ds, Attr: attr, Rounds: rounds, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Print(res)
		if err := writeCSVFile(csvDir, fmt.Sprintf("params_%s.csv", attr), res.WriteCSV); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func runSlices(ds dataset.Config, attrs []dataset.Attribute, seed int64) error {
	fmt.Println("== Supplementary: per-slice accuracy across the full trace ==")
	slices := ds.Slices
	if slices > 16 {
		slices = 16
	}
	for _, attr := range attrs {
		res, err := eval.RunSliceSeries(eval.SliceSeriesOptions{
			Dataset: ds, Attr: attr, Slices: slices, Seed: seed,
		})
		if err != nil {
			return err
		}
		fmt.Print(res)
		fmt.Println()
	}
	return nil
}

func runPrequential(ds dataset.Config, attrs []dataset.Attribute, seed int64) error {
	fmt.Println("== Prequential (test-then-train) online accuracy ==")
	slices := ds.Slices
	if slices > 16 {
		slices = 16
	}
	for _, attr := range attrs {
		res, err := eval.RunPrequential(eval.PrequentialOptions{Dataset: ds, Attr: attr, Slices: slices, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Print(res)
		fmt.Println()
	}
	return nil
}

func runWeightsAblation(ds dataset.Config, attrs []dataset.Attribute, seed int64) error {
	fmt.Println("== Adaptive-weights churn ablation (DESIGN.md decision #3) ==")
	for _, attr := range attrs {
		res, err := eval.RunChurnAblation(eval.Fig14Options{Dataset: ds, Attr: attr, Seed: seed})
		if err != nil {
			return err
		}
		a, f := res.Drifts()
		fmt.Printf("%s: incumbent drift after churn: adaptive=%.1f%% fixed=%.1f%%\n", attr, a*100, f*100)
	}
	return nil
}

func runFloor(ds dataset.Config, attrs []dataset.Attribute, seed int64) error {
	fmt.Println("== Noise floor: AMF vs. an oracle that knows every pair's true mean ==")
	for _, attr := range attrs {
		res, err := eval.RunFloor(eval.FloorOptions{Dataset: ds, Attr: attr, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Printf("%s: oracle MRE %.3f NPRE %.3f | AMF MRE %.3f NPRE %.3f | gap %.2fx\n",
			attr, res.Oracle.MRE, res.Oracle.NPRE, res.AMF.MRE, res.AMF.NPRE, res.GapMRE())
	}
	return nil
}

func runAdaptation(ds dataset.Config, seed int64) error {
	fmt.Println("== Runtime service adaptation (framework Sec. III end to end) ==")
	res, err := adapt.RunSimulation(adapt.SimulationOptions{Dataset: ds, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("workflow: %d tasks x %d candidates, SLA %.1f s/task\n",
		len(res.Workflow.Tasks), len(res.Workflow.Tasks[0].Candidates), res.Workflow.Tasks[0].SLA)
	fmt.Printf("%-10s %12s %14s %12s\n", "strategy", "meanLatency", "violationRate", "adaptations")
	for _, s := range res.Strategies {
		fmt.Printf("%-10s %11.3fs %14.3f %12d\n", s.Name, s.MeanLatency, s.ViolationRate, s.Adaptations)
	}
	return nil
}
