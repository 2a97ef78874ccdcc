package eval

import (
	"testing"

	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/stream"
)

func TestMeanApproachesTrainAndPredict(t *testing.T) {
	g := dataset.MustNew(tinyDataset())
	sp, err := stream.SliceSplit(g, dataset.ResponseTime, 0, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewTrainContext(dataset.ResponseTime, g.Config().Users, g.Config().Services, sp, 1)
	for _, a := range []Approach{UMEANApproach(), IMEANApproach()} {
		pred, err := a.Train(ctx)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		m := Compute(pred, sp.Test)
		if m.N == 0 {
			t.Fatalf("%s made no predictions", a.Name)
		}
		if m.MRE <= 0 || m.MRE > 5 {
			t.Fatalf("%s MRE = %g implausible", a.Name, m.MRE)
		}
	}
}

func TestAMFAutoAlphaCompetitive(t *testing.T) {
	g := dataset.MustNew(tinyDataset())
	sp, err := stream.SliceSplit(g, dataset.ResponseTime, 0, 0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewTrainContext(dataset.ResponseTime, g.Config().Users, g.Config().Services, sp, 2)

	autoPred, err := AMFAutoAlphaApproach().Train(ctx)
	if err != nil {
		t.Fatal(err)
	}
	handPred, err := AMFApproach("AMF", AMFOverrides{}).Train(ctx)
	if err != nil {
		t.Fatal(err)
	}
	auto := Compute(autoPred, sp.Test)
	hand := Compute(handPred, sp.Test)
	// The estimated alpha must be in the same league as the hand-tuned
	// one (within 25% on MRE) — the point of the extension.
	if auto.MRE > hand.MRE*1.25 {
		t.Fatalf("auto-alpha MRE %.3f much worse than hand-tuned %.3f", auto.MRE, hand.MRE)
	}
}

func TestExtendedApproachesComplete(t *testing.T) {
	names := map[string]bool{}
	for _, a := range ExtendedApproaches() {
		names[a.Name] = true
	}
	for _, want := range []string{"UMEAN", "IMEAN", "UPCC", "IPCC", "UIPCC", "PMF", "BiasedMF", "NIMF", "AMF(auto)", "AMF"} {
		if !names[want] {
			t.Errorf("missing approach %s", want)
		}
	}
}

// TestFig13And14AndParamsShape holds each runner's result to the shape
// its options ask for: one Fig. 13 time per slice, Fig. 14's points before,
// at and after the join, and one sweep point per swept value.
func TestFig13And14AndParamsShape(t *testing.T) {
	ds := tinyDataset()
	f13, err := RunFig13(Fig13Options{Dataset: ds, Attr: dataset.ResponseTime, Slices: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f13.Slices != 2 || len(f13.AMFEpochs) != 2 {
		t.Fatalf("fig13 slices = %d, AMF epochs %v", f13.Slices, f13.AMFEpochs)
	}
	for _, name := range f13.Order {
		if got := len(f13.Seconds[name]); got != 2 {
			t.Fatalf("fig13 %s times = %d, want 2", name, got)
		}
	}

	f14, err := RunFig14(Fig14Options{
		Dataset: ds, Attr: dataset.ResponseTime, Seed: 1,
		PointsBefore: 2, PointsAfter: 2, StepsPerPoint: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(f14.Points) != 2+1+2 { // before + immediate + after
		t.Fatalf("fig14 points = %d", len(f14.Points))
	}
	if f14.Points[1].AfterJoin || !f14.Points[2].AfterJoin {
		t.Fatalf("fig14 join lands after point 2: %+v", f14.Points)
	}

	sweep, err := RunParamSweep(ParamSweepOptions{
		Dataset: ds, Attr: dataset.ResponseTime, Rounds: 1, Seed: 1,
		Ranks: []int{5}, Regs: []float64{0.001}, LearnRates: []float64{0.8}, Betas: []float64{0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Points) != 4 {
		t.Fatalf("sweep points = %d", len(sweep.Points))
	}
}

func TestBiasedMFAndNIMFApproachesTrain(t *testing.T) {
	g := dataset.MustNew(tinyDataset())
	sp, err := stream.SliceSplit(g, dataset.ResponseTime, 0, 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewTrainContext(dataset.ResponseTime, g.Config().Users, g.Config().Services, sp, 3)
	for _, a := range []Approach{BiasedMFApproach(), NIMFApproach()} {
		pred, err := a.Train(ctx)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		m := Compute(pred, sp.Test)
		if m.N == 0 {
			t.Fatalf("%s made no predictions", a.Name)
		}
		// Both extension baselines must beat the user-mean floor on MAE.
		floorPred, err := UMEANApproach().Train(ctx)
		if err != nil {
			t.Fatal(err)
		}
		floor := Compute(floorPred, sp.Test)
		if m.MAE > floor.MAE*1.3 {
			t.Errorf("%s MAE %.3f implausibly worse than UMEAN %.3f", a.Name, m.MAE, floor.MAE)
		}
	}
}
