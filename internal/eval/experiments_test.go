package eval

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/stream"
)

// tinyDataset keeps the experiment tests fast while preserving structure.
func tinyDataset() dataset.Config {
	return dataset.Config{Users: 25, Services: 80, Slices: 4, Interval: 15 * time.Minute, Rank: 5, Seed: 2014}
}

func TestRunTable1ShapeAndOrdering(t *testing.T) {
	res, err := RunTable1(Table1Options{
		Dataset:   tinyDataset(),
		Attr:      dataset.ResponseTime,
		Densities: []float64{0.2, 0.4},
		Rounds:    2,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Cells); got != 2*5 {
		t.Fatalf("cells = %d, want 10", got)
	}
	if names := res.Approaches(); len(names) != 5 || names[4] != "AMF" {
		t.Fatalf("approaches = %v", names)
	}
	if ds := res.Densities(); len(ds) != 2 || ds[0] != 0.2 {
		t.Fatalf("densities = %v", ds)
	}
	// The paper's headline: AMF beats every baseline on MRE and NPRE.
	for _, d := range res.Densities() {
		amf := res.Row("AMF", d)
		for _, name := range []string{"UPCC", "IPCC", "UIPCC", "PMF"} {
			c := res.Row(name, d)
			if c == nil || amf == nil {
				t.Fatalf("missing row %s@%g", name, d)
			}
			if amf.Metrics.MRE >= c.Metrics.MRE {
				t.Errorf("density %.0f%%: AMF MRE %.3f not better than %s %.3f",
					d*100, amf.Metrics.MRE, name, c.Metrics.MRE)
			}
			if amf.Metrics.NPRE >= c.Metrics.NPRE {
				t.Errorf("density %.0f%%: AMF NPRE %.3f not better than %s %.3f",
					d*100, amf.Metrics.NPRE, name, c.Metrics.NPRE)
			}
		}
	}
	text := res.String()
	for _, want := range []string{"UPCC", "AMF", "Improve.", "density=20%"} {
		if !strings.Contains(text, want) {
			t.Errorf("table rendering missing %q", want)
		}
	}
}

func TestRunTable1RejectsBadDataset(t *testing.T) {
	bad := tinyDataset()
	bad.Users = 0
	if _, err := RunTable1(Table1Options{Dataset: bad, Attr: dataset.ResponseTime}); err == nil {
		t.Fatal("expected dataset validation error")
	}
}

func TestAccuracyImprovesWithDensity(t *testing.T) {
	// Fig. 12's shape: AMF error decreases as the matrix densifies.
	res, err := RunTable1(Table1Options{
		Dataset:    tinyDataset(),
		Attr:       dataset.ResponseTime,
		Densities:  []float64{0.05, 0.5},
		Rounds:     3,
		Seed:       3,
		Approaches: []Approach{AMFApproach("AMF", AMFOverrides{})},
	})
	if err != nil {
		t.Fatal(err)
	}
	sparse := res.Row("AMF", 0.05)
	denseC := res.Row("AMF", 0.5)
	if sparse == nil || denseC == nil {
		t.Fatal("missing cells")
	}
	if denseC.Metrics.MRE >= sparse.Metrics.MRE {
		t.Errorf("MRE should fall with density: 5%%=%.3f 50%%=%.3f",
			sparse.Metrics.MRE, denseC.Metrics.MRE)
	}
}

func TestRunFig11TransformationHelps(t *testing.T) {
	// Fig. 11's shape: AMF <= AMF(α=1) <= PMF on MRE (allowing slack on
	// the middle inequality at tiny scale, but the ends must hold).
	one := 1.0
	res, err := RunTable1(Table1Options{
		Dataset:   tinyDataset(),
		Attr:      dataset.ResponseTime,
		Densities: []float64{0.3},
		Rounds:    3,
		Seed:      5,
		Approaches: []Approach{
			PMFApproach(),
			AMFApproach("AMF(a=1)", AMFOverrides{Alpha: &one}),
			AMFApproach("AMF", AMFOverrides{}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	pmf := res.Row("PMF", 0.3)
	linear := res.Row("AMF(a=1)", 0.3)
	amf := res.Row("AMF", 0.3)
	if pmf == nil || linear == nil || amf == nil {
		t.Fatal("missing rows")
	}
	if amf.Metrics.MRE >= pmf.Metrics.MRE {
		t.Errorf("AMF MRE %.3f should beat PMF %.3f", amf.Metrics.MRE, pmf.Metrics.MRE)
	}
	if amf.Metrics.MRE > linear.Metrics.MRE*1.05 {
		t.Errorf("tuned alpha %.3f should not lose to alpha=1 %.3f", amf.Metrics.MRE, linear.Metrics.MRE)
	}
}

func TestRunFig10AMFDensestAroundZero(t *testing.T) {
	res, err := RunFig10(Fig10Options{
		Dataset: tinyDataset(),
		Attr:    dataset.ResponseTime,
		Density: 0.2,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 3 {
		t.Fatalf("order = %v", res.Order)
	}
	amf := res.CenterMass("AMF", 0.5)
	uipcc := res.CenterMass("UIPCC", 0.5)
	pmf := res.CenterMass("PMF", 0.5)
	if amf <= uipcc || amf <= pmf {
		t.Errorf("AMF center mass %.3f should exceed UIPCC %.3f and PMF %.3f", amf, uipcc, pmf)
	}
	if res.CenterMass("nope", 1) != 0 {
		t.Error("unknown approach should have zero center mass")
	}
}

func TestRunFig13AMFFasterAfterWarmup(t *testing.T) {
	res, err := RunFig13(Fig13Options{
		Dataset: tinyDataset(),
		Attr:    dataset.ResponseTime,
		Slices:  3,
		Seed:    11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range res.Order {
		if len(res.Seconds[name]) != 3 {
			t.Fatalf("%s has %d slice timings, want 3", name, len(res.Seconds[name]))
		}
	}
	// The paper's qualitative claim: after slice 0, AMF converges almost
	// immediately because it carries its factors across slices. The full
	// wall-clock comparison against UIPCC/PMF only bites at realistic
	// scale and is exercised by cmd/amfbench and the benchmarks; at this
	// tiny scale we assert the structural warm-start collapse instead.
	if len(res.AMFEpochs) != 3 {
		t.Fatalf("AMF epochs = %v", res.AMFEpochs)
	}
	cold := res.AMFEpochs[0]
	for t2 := 1; t2 < len(res.AMFEpochs); t2++ {
		if res.AMFEpochs[t2] > cold {
			t.Errorf("warm slice %d needed %d epochs > cold %d", t2, res.AMFEpochs[t2], cold)
		}
	}
	// Wall-clock ratios at this tiny scale are noisy under parallel test
	// load, so only sanity-check that they exist; the realistic-scale
	// comparison lives in `amfbench -exp fig13`.
	speedups := res.SpeedupAfterWarmup()
	if speedups["PMF"] <= 0 || speedups["UIPCC"] <= 0 {
		t.Errorf("speedups should be positive: %v", speedups)
	}
}

func TestRunFig14NewcomersConvergeIncumbentsStable(t *testing.T) {
	res, err := RunFig14(Fig14Options{
		Dataset:       tinyDataset(),
		Attr:          dataset.ResponseTime,
		Density:       0.4,
		Seed:          13,
		PointsBefore:  4,
		PointsAfter:   6,
		StepsPerPoint: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// PointsBefore + 1 (immediate post-join) + PointsAfter.
	if len(res.Points) != 11 {
		t.Fatalf("points = %d, want 11", len(res.Points))
	}
	firstNew, lastNew, drift := res.NewcomerConvergence()
	if lastNew >= firstNew {
		t.Errorf("newcomer MRE should fall: first=%.3f last=%.3f", firstNew, lastNew)
	}
	// Incumbents must stay roughly stable (paper: "keep stable").
	if drift > 0.35 {
		t.Errorf("incumbent MRE drifted %.0f%% after churn", drift*100)
	}
}

func TestRunFig14RejectsDegeneratePartition(t *testing.T) {
	// One user: its 80% share rounds down to no incumbent at all.
	one := tinyDataset()
	one.Users = 1
	opts := Fig14Options{
		Dataset: one,
		Attr:    dataset.ResponseTime,
		Seed:    1,
	}
	if _, err := RunFig14(opts); err == nil || !strings.Contains(err.Error(), "empty partition") {
		t.Fatalf("err = %v, want the empty-partition error", err)
	}
}

func TestFigureSeriesHelpers(t *testing.T) {
	g := dataset.MustNew(tinyDataset())
	a := Fig2a(g, 0, 0)
	if len(a) != 4 {
		t.Fatalf("fig2a length %d", len(a))
	}
	b := Fig2b(g, 0, 0, 10)
	if len(b) != 10 {
		t.Fatalf("fig2b length %d", len(b))
	}
	for i := 1; i < len(b); i++ {
		if b[i] < b[i-1] {
			t.Fatal("fig2b must be ascending")
		}
	}
	if got := Fig2b(g, 0, 0, 0); len(got) != g.Config().Users {
		t.Fatalf("count<=0 should use all users, got %d", len(got))
	}
}

func TestFig7And8Histograms(t *testing.T) {
	g := dataset.MustNew(tinyDataset())
	rt, tp := Fig7(g, 20, 2, 500)
	if rt.Total() == 0 || tp.Total() == 0 {
		t.Fatal("fig7 histograms empty")
	}
	rt8, tp8, err := Fig8(g, 20, 2, 500)
	if err != nil {
		t.Fatal(err)
	}
	if rt8.Total() == 0 || tp8.Total() == 0 {
		t.Fatal("fig8 histograms empty")
	}
	if rt8.Under != 0 || rt8.Over != 0 {
		t.Fatalf("transformed values must stay in [0,1]: under=%d over=%d", rt8.Under, rt8.Over)
	}
}

func TestSkewReduction(t *testing.T) {
	g := dataset.MustNew(tinyDataset())
	for _, attr := range []dataset.Attribute{dataset.ResponseTime, dataset.Throughput} {
		before, after, err := SkewReduction(g, attr, 3000)
		if err != nil {
			t.Fatal(err)
		}
		if after >= before {
			t.Errorf("%v: transformation should reduce |skewness|: %.2f -> %.2f", attr, before, after)
		}
	}
}

func TestFig9LowRankSeries(t *testing.T) {
	g := dataset.MustNew(tinyDataset())
	rt, tp, err := Fig9(g, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt) != 20 || len(tp) != 20 {
		t.Fatalf("fig9 lengths: %d/%d", len(rt), len(tp))
	}
	if rt[0] != 1 || tp[0] != 1 {
		t.Fatal("normalized leading singular value must be 1")
	}
	if rt[15] > 0.25 || tp[15] > 0.25 {
		t.Errorf("tail singular values should be small: rt[15]=%.3f tp[15]=%.3f", rt[15], tp[15])
	}
}

func TestRunParamSweep(t *testing.T) {
	res, err := RunParamSweep(ParamSweepOptions{
		Dataset:    tinyDataset(),
		Attr:       dataset.ResponseTime,
		Rounds:     1,
		Seed:       17,
		Ranks:      []int{2, 10},
		Regs:       []float64{0.001},
		LearnRates: []float64{0.8},
		Betas:      []float64{0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ByParam("rank")) != 2 || len(res.ByParam("lambda")) != 1 {
		t.Fatalf("sweep points: %+v", res.Points)
	}
	for _, p := range res.Points {
		if p.Metrics.N == 0 || math.IsNaN(p.Metrics.MRE) {
			t.Fatalf("bad sweep point %+v", p)
		}
	}
	if !strings.Contains(res.String(), "rank") {
		t.Fatal("sweep rendering")
	}
}

func TestTimedTrainReportsDuration(t *testing.T) {
	g := dataset.MustNew(tinyDataset())
	sp, err := splitForTest(g, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewTrainContext(dataset.ResponseTime, g.Config().Users, g.Config().Services, sp, 1)
	_, elapsed, err := TimedTrain(UPCCApproach(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Fatalf("elapsed = %v", elapsed)
	}
}

// splitForTest is a small helper wrapping stream.SliceSplit for slice 0.
func splitForTest(g *dataset.Generator, density float64, seed int64) (stream.Split, error) {
	return stream.SliceSplit(g, dataset.ResponseTime, 0, density, seed)
}

func TestRunSliceSeriesAMFWinsEverySlice(t *testing.T) {
	res, err := RunSliceSeries(SliceSeriesOptions{
		Dataset: tinyDataset(),
		Attr:    dataset.ResponseTime,
		Density: 0.2,
		Slices:  3,
		Seed:    21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 3 {
		t.Fatalf("order = %v", res.Order)
	}
	for _, name := range res.Order {
		if len(res.Series[name]) != 3 {
			t.Fatalf("%s has %d slices", name, len(res.Series[name]))
		}
	}
	// The supplementary's claim: AMF's advantage holds on every slice,
	// not just slice 1.
	for tSlice := 0; tSlice < 3; tSlice++ {
		amf := res.Series["AMF"][tSlice].MRE
		for _, name := range []string{"UIPCC", "PMF"} {
			if amf >= res.Series[name][tSlice].MRE {
				t.Errorf("slice %d: AMF MRE %.3f not better than %s %.3f",
					tSlice, amf, name, res.Series[name][tSlice].MRE)
			}
		}
	}
	if res.MeanMRE("AMF") <= 0 {
		t.Fatal("mean MRE should be positive")
	}
	if res.MeanMRE("nope") != 0 {
		t.Fatal("unknown approach mean should be 0")
	}
	if !strings.Contains(res.String(), "mean") {
		t.Fatal("rendering should include the mean row")
	}
}

func TestRunFloorOracleBoundsAMF(t *testing.T) {
	res, err := RunFloor(FloorOptions{
		Dataset: tinyDataset(),
		Attr:    dataset.ResponseTime,
		Seed:    31,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Oracle.N == 0 || res.AMF.N == 0 {
		t.Fatal("floor metrics empty")
	}
	// The oracle knows the true pair means: no predictor should beat it
	// by a meaningful margin on MRE.
	if res.AMF.MRE < res.Oracle.MRE*0.9 {
		t.Fatalf("AMF MRE %.3f implausibly beats the oracle %.3f", res.AMF.MRE, res.Oracle.MRE)
	}
	// And a converged AMF should be within a small factor of the floor.
	if gap := res.GapMRE(); gap > 2.0 {
		t.Fatalf("AMF is %.2fx off the noise floor — model error dominates", gap)
	}
}

func TestChurnAblationWeightsProtectIncumbents(t *testing.T) {
	res, err := RunChurnAblation(Fig14Options{
		Dataset:       tinyDataset(),
		Attr:          dataset.ResponseTime,
		Density:       0.4,
		Seed:          2,
		PointsBefore:  3,
		PointsAfter:   5,
		StepsPerPoint: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, fixed := res.Drifts()
	// The paper's scalability mechanism: adaptive weights shield
	// converged incumbents from the newcomers' noisy gradients.
	if adaptive > fixed+0.02 {
		t.Fatalf("adaptive drift %.3f should not exceed fixed drift %.3f", adaptive, fixed)
	}
}

func TestRunPrequentialOnlineAccuracy(t *testing.T) {
	res, err := RunPrequential(PrequentialOptions{
		Dataset: tinyDataset(),
		Attr:    dataset.ResponseTime,
		Density: 0.3,
		Seed:    41,
	})
	if err != nil {
		t.Fatal(err)
	}
	// tinyDataset has 4 slices; slice 0 is training-only.
	if len(res.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Metrics.N == 0 {
			t.Fatalf("slice %d evaluated nothing", p.Slice)
		}
		// Blind next-slice predictions carry temporal noise on top of
		// model error, but must stay far better than chance (UIPCC's
		// offline MRE at this scale is ~0.7).
		if p.Metrics.MRE > 0.65 {
			t.Errorf("slice %d blind MRE %.3f implausibly high", p.Slice, p.Metrics.MRE)
		}
	}
	if res.MeanMRE() <= 0 {
		t.Fatal("mean MRE should be positive")
	}
	if !strings.Contains(res.String(), "prequential") {
		t.Fatal("rendering")
	}
}
