package amf

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation section, plus ablation benches for the design decisions
// called out in DESIGN.md. Accuracy results are attached to the benchmark
// output via b.ReportMetric (MRE/NPRE/etc.), so `go test -bench=. -benchmem`
// regenerates both the performance and the accuracy side of each
// experiment at a reduced scale; `cmd/amfbench -scale paper` runs the full
// shape.

import (
	"testing"
	"time"

	"github.com/qoslab/amf/internal/adapt"
	"github.com/qoslab/amf/internal/baseline"
	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/eval"
	"github.com/qoslab/amf/internal/matrix"
	"github.com/qoslab/amf/internal/stream"
)

// benchDataset is the reduced-scale dataset every benchmark runs against.
func benchDataset() dataset.Config {
	return dataset.Config{Users: 40, Services: 250, Slices: 8, Interval: 15 * time.Minute, Rank: 6, Seed: 2014}
}

func benchSplit(b *testing.B, attr dataset.Attribute, density float64) (stream.Split, eval.TrainContext) {
	b.Helper()
	gen, err := dataset.New(benchDataset())
	if err != nil {
		b.Fatal(err)
	}
	sp, err := stream.SliceSplit(gen, attr, 0, density, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchDataset()
	return sp, eval.NewTrainContext(attr, cfg.Users, cfg.Services, sp, 1)
}

// benchApproach trains one Table-I approach and reports its accuracy
// metrics alongside the training cost per op.
func benchApproach(b *testing.B, a eval.Approach, attr dataset.Attribute, density float64) {
	b.Helper()
	sp, ctx := benchSplit(b, attr, density)
	var m eval.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred, err := a.Train(ctx)
		if err != nil {
			b.Fatal(err)
		}
		m = eval.Compute(pred, sp.Test)
	}
	b.ReportMetric(m.MAE, "MAE")
	b.ReportMetric(m.MRE, "MRE")
	b.ReportMetric(m.NPRE, "NPRE")
}

// --- Table I: accuracy comparison (one bench per approach x attribute) ---

func BenchmarkTable1_RT_UPCC(b *testing.B) {
	benchApproach(b, eval.UPCCApproach(), dataset.ResponseTime, 0.10)
}

func BenchmarkTable1_RT_IPCC(b *testing.B) {
	benchApproach(b, eval.IPCCApproach(), dataset.ResponseTime, 0.10)
}

func BenchmarkTable1_RT_UIPCC(b *testing.B) {
	benchApproach(b, eval.UIPCCApproach(), dataset.ResponseTime, 0.10)
}

func BenchmarkTable1_RT_PMF(b *testing.B) {
	benchApproach(b, eval.PMFApproach(), dataset.ResponseTime, 0.10)
}

func BenchmarkTable1_RT_AMF(b *testing.B) {
	benchApproach(b, eval.AMFApproach("AMF", eval.AMFOverrides{}), dataset.ResponseTime, 0.10)
}

func BenchmarkTable1_TP_UIPCC(b *testing.B) {
	benchApproach(b, eval.UIPCCApproach(), dataset.Throughput, 0.10)
}

func BenchmarkTable1_TP_PMF(b *testing.B) {
	benchApproach(b, eval.PMFApproach(), dataset.Throughput, 0.10)
}

func BenchmarkTable1_TP_AMF(b *testing.B) {
	benchApproach(b, eval.AMFApproach("AMF", eval.AMFOverrides{}), dataset.Throughput, 0.10)
}

// --- Fig. 2 / 6 / 7 / 8: dataset shape ---

func BenchmarkFig2Series(b *testing.B) {
	gen := dataset.MustNew(benchDataset())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eval.Fig2a(gen, 0, 0)
		_ = eval.Fig2b(gen, 1, 0, 40)
	}
}

func BenchmarkFig6Statistics(b *testing.B) {
	gen := dataset.MustNew(benchDataset())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := gen.SampleStatistics(2, 2000)
		b.ReportMetric(s.RT.Mean, "RTmean")
		b.ReportMetric(s.TP.Mean, "TPmean")
	}
}

func BenchmarkFig7Histograms(b *testing.B) {
	gen := dataset.MustNew(benchDataset())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, tp := eval.Fig7(gen, 25, 2, 2000)
		if rt.Total() == 0 || tp.Total() == 0 {
			b.Fatal("empty histograms")
		}
	}
}

func BenchmarkFig8Transformed(b *testing.B) {
	gen := dataset.MustNew(benchDataset())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eval.Fig8(gen, 25, 2, 2000); err != nil {
			b.Fatal(err)
		}
	}
	before, after, err := eval.SkewReduction(gen, dataset.ResponseTime, 4000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(before, "skewRaw")
	b.ReportMetric(after, "skewCooked")
}

// --- Fig. 9: singular values (Jacobi SVD of the slice matrix) ---

func BenchmarkFig9SingularValues(b *testing.B) {
	gen := dataset.MustNew(benchDataset())
	m := gen.SliceMatrix(dataset.ResponseTime, 0)
	b.ResetTimer()
	var sv []float64
	for i := 0; i < b.N; i++ {
		var err error
		sv, err = matrix.SingularValues(m, matrix.JacobiOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	norm := matrix.NormalizeDescending(sv)
	b.ReportMetric(norm[10], "sv10")
	b.ReportMetric(float64(matrix.EffectiveRank(sv, 0.2)), "effRank")
}

// --- Fig. 10: error distribution (center mass within +/-0.5) ---

func BenchmarkFig10ErrorDistribution(b *testing.B) {
	var res *eval.Fig10Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.RunFig10(eval.Fig10Options{Dataset: benchDataset(), Attr: dataset.ResponseTime, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.CenterMass("AMF", 0.5), "AMFcenter")
	b.ReportMetric(res.CenterMass("PMF", 0.5), "PMFcenter")
	b.ReportMetric(res.CenterMass("UIPCC", 0.5), "UIPCCcenter")
}

// --- Fig. 11: impact of data transformation ---

func BenchmarkFig11Transformation(b *testing.B) {
	var res *eval.Table1Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.RunFig11(eval.Fig11Options{
			Dataset: benchDataset(), Attr: dataset.ResponseTime,
			Densities: []float64{0.3}, Rounds: 1, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Row("PMF", 0.3).Metrics.MRE, "PMF_MRE")
	b.ReportMetric(res.Row("AMF(a=1)", 0.3).Metrics.MRE, "AMFa1_MRE")
	b.ReportMetric(res.Row("AMF", 0.3).Metrics.MRE, "AMF_MRE")
}

// --- Fig. 12: impact of matrix density ---

func BenchmarkFig12Density(b *testing.B) {
	var res *eval.Table1Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.RunFig12(eval.Fig12Options{
			Dataset: benchDataset(), Attr: dataset.ResponseTime,
			Densities: []float64{0.05, 0.25, 0.50}, Rounds: 1, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Row("AMF", 0.05).Metrics.MRE, "MRE5pct")
	b.ReportMetric(res.Row("AMF", 0.50).Metrics.MRE, "MRE50pct")
}

// --- Fig. 13: efficiency (per-slice convergence time) ---

func BenchmarkFig13Efficiency(b *testing.B) {
	var res *eval.Fig13Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.RunFig13(eval.Fig13Options{
			Dataset: benchDataset(), Attr: dataset.ResponseTime, Slices: 4, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	speedups := res.SpeedupAfterWarmup()
	b.ReportMetric(speedups["UIPCC"], "xUIPCC")
	b.ReportMetric(speedups["PMF"], "xPMF")
	b.ReportMetric(float64(res.AMFEpochs[0]), "coldEpochs")
	b.ReportMetric(float64(res.AMFEpochs[len(res.AMFEpochs)-1]), "warmEpochs")
}

// --- Fig. 14: scalability under churn ---

func BenchmarkFig14Churn(b *testing.B) {
	var res *eval.Fig14Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.RunFig14(eval.Fig14Options{
			Dataset: benchDataset(), Attr: dataset.ResponseTime, Seed: 1,
			PointsBefore: 3, PointsAfter: 5, StepsPerPoint: 4000,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	first, last, drift := res.NewcomerConvergence()
	b.ReportMetric(first, "newFirstMRE")
	b.ReportMetric(last, "newLastMRE")
	b.ReportMetric(drift, "incumbentDrift")
}

// --- Ablations (DESIGN.md design decisions) ---

// BenchmarkAblationLoss compares the relative-error loss (Eq. 6) against
// the conventional absolute loss on MRE: design decision #1.
func BenchmarkAblationLoss(b *testing.B) {
	off := false
	variants := map[string]eval.AMFOverrides{
		"relative": {},
		"absolute": {RelativeLoss: &off},
	}
	for name, ov := range variants {
		b.Run(name, func(b *testing.B) {
			benchApproach(b, eval.AMFApproach("AMF", ov), dataset.ResponseTime, 0.10)
		})
	}
}

// BenchmarkAblationWeights compares adaptive weights (Eq. 16-17) against
// plain unweighted online MF (Eq. 8-9): design decision #3.
func BenchmarkAblationWeights(b *testing.B) {
	off := false
	variants := map[string]eval.AMFOverrides{
		"adaptive": {},
		"fixed":    {AdaptiveWeights: &off},
	}
	for name, ov := range variants {
		b.Run(name, func(b *testing.B) {
			benchApproach(b, eval.AMFApproach("AMF", ov), dataset.ResponseTime, 0.10)
		})
	}
}

// BenchmarkAblationTransform compares the tuned Box-Cox alpha against the
// linear normalization (alpha=1): design decision #2, the Fig. 11 axis.
func BenchmarkAblationTransform(b *testing.B) {
	one := 1.0
	variants := map[string]eval.AMFOverrides{
		"boxcox": {},
		"linear": {Alpha: &one},
	}
	for name, ov := range variants {
		b.Run(name, func(b *testing.B) {
			benchApproach(b, eval.AMFApproach("AMF", ov), dataset.ResponseTime, 0.10)
		})
	}
}

// --- Offline retraining cost ---
//
// The online path's unit costs (one SGD update, one prediction) are the
// repository benchmark's core.observe_ns_per_sample and core.predict_ns
// probes (bench/).

// BenchmarkPMFTrain measures the offline baseline's full retraining cost,
// the quantity AMF's online updating amortizes away (Fig. 13's point).
func BenchmarkPMFTrain(b *testing.B) {
	_, ctx := benchSplit(b, dataset.ResponseTime, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.TrainPMF(ctx.Matrix, baseline.PMFConfig{Rank: 10, RMax: 20, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- End-to-end adaptation (framework Sec. III) ---

func BenchmarkAdaptationSimulation(b *testing.B) {
	var res *adapt.SimulationResult
	cfg := benchDataset()
	cfg.Slices = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = adapt.RunSimulation(adapt.SimulationOptions{Dataset: cfg, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range res.Strategies {
		switch s.Name {
		case "static":
			b.ReportMetric(s.ViolationRate, "staticViol")
		case "predicted":
			b.ReportMetric(s.ViolationRate, "predViol")
		case "oracle":
			b.ReportMetric(s.ViolationRate, "oracleViol")
		}
	}
}

func BenchmarkTable1_RT_BiasedMF(b *testing.B) {
	benchApproach(b, eval.BiasedMFApproach(), dataset.ResponseTime, 0.10)
}

func BenchmarkAMFAutoAlpha(b *testing.B) {
	benchApproach(b, eval.AMFAutoAlphaApproach(), dataset.ResponseTime, 0.10)
}

// BenchmarkSliceSeries regenerates the supplementary all-slices series in
// miniature.
func BenchmarkSliceSeries(b *testing.B) {
	var res *eval.SliceSeriesResult
	cfg := benchDataset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.RunSliceSeries(eval.SliceSeriesOptions{
			Dataset: cfg, Attr: dataset.ResponseTime, Slices: 2, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanMRE("AMF"), "AMF_MRE")
	b.ReportMetric(res.MeanMRE("UIPCC"), "UIPCC_MRE")
}

func BenchmarkTable1_RT_NIMF(b *testing.B) {
	benchApproach(b, eval.NIMFApproach(), dataset.ResponseTime, 0.10)
}

// BenchmarkTruncatedSVD times the full Jacobi sweep on the Fig. 9
// workload shape.
func BenchmarkTruncatedSVD(b *testing.B) {
	gen := dataset.MustNew(benchDataset())
	m := gen.SliceMatrix(dataset.ResponseTime, 0)
	b.Run("jacobi-full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := matrix.SingularValues(m, matrix.JacobiOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPrequential regenerates the test-then-train online-accuracy
// extension in miniature.
func BenchmarkPrequential(b *testing.B) {
	var res *eval.PrequentialResult
	cfg := benchDataset()
	cfg.Slices = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.RunPrequential(eval.PrequentialOptions{
			Dataset: cfg, Attr: dataset.ResponseTime, Density: 0.2, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanMRE(), "blindMRE")
}

// BenchmarkChurnAblation quantifies the adaptive-weights mechanism:
// incumbent drift with and without it.
func BenchmarkChurnAblation(b *testing.B) {
	var res *eval.ChurnAblationResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.RunChurnAblation(eval.Fig14Options{
			Dataset: benchDataset(), Attr: dataset.ResponseTime, Seed: 1,
			PointsBefore: 3, PointsAfter: 5, StepsPerPoint: 4000,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	adaptive, fixed := res.Drifts()
	b.ReportMetric(adaptive, "adaptiveDrift")
	b.ReportMetric(fixed, "fixedDrift")
}
