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
	"os"
	"slices"
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

// setup is what every experiment reads of the command line.
type setup struct {
	ds     dataset.Config
	attrs  []dataset.Attribute
	rounds int
	seed   int64
}

// replaySlices is how many consecutive slices the multi-slice
// experiments (fig13, slices, prequential) replay: at most 16.
func (s setup) replaySlices() int { return min(s.ds.Slices, 16) }

// experiment is one -exp name: the header printed above its output, and
// the function that prints the rest.
type experiment struct {
	name, header string
	run          func(setup) error
}

// The paper's ablation settings: AMFOverrides takes pointers.
var off, one = false, 1.0

// experiments is every -exp name in the order -exp all runs them.
var experiments = []experiment{
	{"stats", "Data statistics (paper Fig. 6)", withGenerator(runStats)},
	{"fig2", "Fig. 2(a): RT of one user-service pair across time slices", withGenerator(runFig2)},
	{"fig7", "Fig. 7: raw data distributions (highly skewed)", withGenerator(runFig7)},
	{"fig8", "Fig. 8: transformed data distributions (Box-Cox + normalize)", withGenerator(runFig8)},
	{"fig9", "Fig. 9: sorted normalized singular values (low-rank evidence)", withGenerator(runFig9)},
	{"table1", "Table I: accuracy comparison", table(accuracy(nil))},
	{"fig10", "Fig. 10: distribution of prediction errors (density 10%)", eachAttr(runFig10)},
	{"fig11", "Fig. 11: impact of data transformation (MRE)", table(accuracy(nil,
		eval.PMFApproach(),
		eval.AMFApproach("AMF(a=1)", eval.AMFOverrides{Alpha: &one}),
		eval.AMFApproach("AMF", eval.AMFOverrides{}),
	))},
	{"fig12", "Fig. 12: impact of matrix density (5%..50%)", table(accuracy(
		[]float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50},
		eval.AMFApproach("AMF", eval.AMFOverrides{}),
	))},
	{"fig13", "Fig. 13: per-slice convergence time", eachAttr(runFig13)},
	{"fig14", "Fig. 14: scalability under churn (80% existing, 20% joining)", eachAttr(runFig14)},
	{"weights", "Adaptive-weights churn ablation (DESIGN.md decision #3)", eachAttr(runWeightsAblation)},
	{"params", "Parameter sweeps (supplementary: impact of d, lambda, eta, beta)", table(
		func(s setup, attr dataset.Attribute) (fmt.Stringer, error) {
			return eval.RunParamSweep(eval.ParamSweepOptions{Dataset: s.ds, Attr: attr, Rounds: s.rounds, Seed: s.seed})
		})},
	{"slices", "Supplementary: per-slice accuracy across the full trace", table(
		func(s setup, attr dataset.Attribute) (fmt.Stringer, error) {
			return eval.RunSliceSeries(eval.SliceSeriesOptions{Dataset: s.ds, Attr: attr, Slices: s.replaySlices(), Seed: s.seed})
		})},
	{"prequential", "Prequential (test-then-train) online accuracy", table(
		func(s setup, attr dataset.Attribute) (fmt.Stringer, error) {
			return eval.RunPrequential(eval.PrequentialOptions{Dataset: s.ds, Attr: attr, Slices: s.replaySlices(), Seed: s.seed})
		})},
	{"floor", "Noise floor: AMF vs. an oracle that knows every pair's true mean", eachAttr(runFloor)},
	{"adaptation", "Runtime service adaptation (framework Sec. III end to end)", runAdaptation},
	// Each variant switches off one AMF design decision at density 10%:
	// the relative loss (Eq. 6), the adaptive weights (Eq. 16-17) and the
	// tuned Box-Cox α. Full AMF comes last, so the "Improve." row reads as
	// AMF against the best ablated variant.
	{"ablation", "Ablations: AMF with one design decision switched off (density 10%)", table(accuracy(
		[]float64{0.10},
		eval.AMFApproach("abs-loss", eval.AMFOverrides{RelativeLoss: &off}),
		eval.AMFApproach("fixed-w", eval.AMFOverrides{AdaptiveWeights: &off}),
		eval.AMFApproach("AMF(a=1)", eval.AMFOverrides{Alpha: &one}),
		eval.AMFApproach("AMF", eval.AMFOverrides{}),
	))},
}

func run(args []string) error {
	fs := flag.NewFlagSet("amfbench", flag.ContinueOnError)
	var (
		expFlag   = fs.String("exp", "all", "comma-separated experiments, or 'all'")
		scaleFlag = fs.String("scale", "small", "dataset scale: tiny, small, or paper")
		attrFlag  = fs.String("attr", "both", "QoS attribute: RT, TP, or both")
		rounds    = fs.Int("rounds", 3, "rounds per configuration (paper uses 20)")
		seed      = fs.Int64("seed", 2014, "master random seed")
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

	ds, err := scaleConfig(*scaleFlag, *seed)
	if err != nil {
		return err
	}
	attrs, err := parseAttrs(*attrFlag)
	if err != nil {
		return err
	}
	exps, err := selectExperiments(*expFlag)
	if err != nil {
		return err
	}

	s := setup{ds: ds, attrs: attrs, rounds: *rounds, seed: *seed}
	fmt.Printf("dataset: %d users x %d services x %d slices (scale=%s, seed=%d)\n\n",
		ds.Users, ds.Services, ds.Slices, *scaleFlag, *seed)
	for _, e := range exps {
		start := time.Now()
		fmt.Printf("== %s ==\n", e.header)
		if err := e.run(s); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Printf("[%s completed in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// selectExperiments resolves -exp to table rows, every name before any
// runs, so that a typo at the end of a long list costs nothing.
func selectExperiments(list string) ([]experiment, error) {
	if list == "all" {
		return experiments, nil
	}
	var out []experiment
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		i := slices.IndexFunc(experiments, func(e experiment) bool { return e.name == name })
		if i < 0 {
			known := make([]string, len(experiments))
			for j, e := range experiments {
				known[j] = e.name
			}
			return nil, fmt.Errorf("%s: unknown experiment (known: %s)", name, strings.Join(known, " "))
		}
		out = append(out, experiments[i])
	}
	return out, nil
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

// withGenerator runs f on the dataset's generator.
func withGenerator(f func(*dataset.Generator) error) func(setup) error {
	return func(s setup) error {
		g, err := dataset.New(s.ds)
		if err != nil {
			return err
		}
		return f(g)
	}
}

// eachAttr runs f once per -attr value.
func eachAttr(f func(setup, dataset.Attribute) error) func(setup) error {
	return func(s setup) error {
		for _, attr := range s.attrs {
			if err := f(s, attr); err != nil {
				return err
			}
		}
		return nil
	}
}

// table is the loop of every experiment that prints one result per
// attribute as the result renders itself, each followed by a blank line.
func table(f func(setup, dataset.Attribute) (fmt.Stringer, error)) func(setup) error {
	return eachAttr(func(s setup, attr dataset.Attribute) error {
		res, err := f(s, attr)
		if err != nil {
			return err
		}
		fmt.Println(res)
		return nil
	})
}

// accuracy scores the approaches (none: Table I's five) at the densities
// (nil: 10%..50%) with eval.RunTable1.
func accuracy(densities []float64, approaches ...eval.Approach) func(setup, dataset.Attribute) (fmt.Stringer, error) {
	return func(s setup, attr dataset.Attribute) (fmt.Stringer, error) {
		return eval.RunTable1(eval.Table1Options{
			Dataset: s.ds, Attr: attr, Densities: densities, Rounds: s.rounds, Seed: s.seed, Approaches: approaches,
		})
	}
}

func runStats(g *dataset.Generator) error {
	fmt.Print(g.SampleStatistics(4, 20000))
	return nil
}

func runFig2(g *dataset.Generator) error {
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

func runFig7(g *dataset.Generator) error {
	rt, tp := eval.Fig7(g, 25, 4, 20000)
	fmt.Println("Response time (cut at 10 s):")
	fmt.Print(rt.Render(40))
	fmt.Println("Throughput (cut at 150 kbps):")
	fmt.Print(tp.Render(40))
	return nil
}

func runFig8(g *dataset.Generator) error {
	rt, tp, err := eval.Fig8(g, 25, 4, 20000)
	if err != nil {
		return err
	}
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

func runFig9(g *dataset.Generator) error {
	rt, tp, err := eval.Fig9(g, 50)
	if err != nil {
		return err
	}
	fmt.Printf("%4s %10s %10s\n", "id", "RT", "TP")
	for i := range rt {
		fmt.Printf("%4d %10.4f %10.4f\n", i+1, rt[i], tp[i])
	}
	return nil
}

func runFig10(s setup, attr dataset.Attribute) error {
	res, err := eval.RunFig10(eval.Fig10Options{Dataset: s.ds, Attr: attr, Seed: s.seed})
	if err != nil {
		return err
	}
	fmt.Printf("%s: share of errors within +/-0.5:\n", attr)
	for _, name := range res.Order {
		fmt.Printf("  %-6s %.3f\n", name, res.CenterMass(name, 0.5))
	}
	return nil
}

func runFig13(s setup, attr dataset.Attribute) error {
	res, err := eval.RunFig13(eval.Fig13Options{Dataset: s.ds, Attr: attr, Slices: s.replaySlices(), Seed: s.seed})
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
	return nil
}

func runFig14(s setup, attr dataset.Attribute) error {
	res, err := eval.RunFig14(eval.Fig14Options{Dataset: s.ds, Attr: attr, Seed: s.seed})
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
	return nil
}

func runWeightsAblation(s setup, attr dataset.Attribute) error {
	res, err := eval.RunChurnAblation(eval.Fig14Options{Dataset: s.ds, Attr: attr, Seed: s.seed})
	if err != nil {
		return err
	}
	a, f := res.Drifts()
	fmt.Printf("%s: incumbent drift after churn: adaptive=%.1f%% fixed=%.1f%%\n", attr, a*100, f*100)
	return nil
}

func runFloor(s setup, attr dataset.Attribute) error {
	res, err := eval.RunFloor(eval.FloorOptions{Dataset: s.ds, Attr: attr, Seed: s.seed})
	if err != nil {
		return err
	}
	fmt.Printf("%s: oracle MRE %.3f NPRE %.3f | AMF MRE %.3f NPRE %.3f | gap %.2fx\n",
		attr, res.Oracle.MRE, res.Oracle.NPRE, res.AMF.MRE, res.AMF.NPRE, res.GapMRE())
	return nil
}

func runAdaptation(s setup) error {
	res, err := adapt.RunSimulation(s.ds, s.seed)
	if err != nil {
		return err
	}
	fmt.Printf("workflow: %d tasks x %d candidates, SLA %.1f s/task\n",
		len(res.Workflow), len(res.Workflow[0]), adapt.SLA)
	fmt.Printf("%-10s %12s %14s %12s\n", "strategy", "meanLatency", "violationRate", "adaptations")
	for _, st := range res.Strategies {
		fmt.Printf("%-10s %11.3fs %14.3f %12d\n", st.Name, st.MeanLatency, st.ViolationRate, st.Adaptations)
	}
	return nil
}
