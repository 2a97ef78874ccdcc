package eval

import (
	"testing"

	"github.com/qoslab/amf/internal/dataset"
)

// badDataset returns a config every runner must reject.
func badDataset() dataset.Config {
	c := tinyDataset()
	c.Slices = 0
	return c
}

func TestRunnersRejectInvalidDataset(t *testing.T) {
	bad := badDataset()
	if _, err := RunFig10(Fig10Options{Dataset: bad, Attr: dataset.ResponseTime}); err == nil {
		t.Error("fig10 should reject invalid dataset")
	}
	if _, err := RunFig13(Fig13Options{Dataset: bad, Attr: dataset.ResponseTime}); err == nil {
		t.Error("fig13 should reject invalid dataset")
	}
	if _, err := RunFig14(Fig14Options{Dataset: bad, Attr: dataset.ResponseTime}); err == nil {
		t.Error("fig14 should reject invalid dataset")
	}
	if _, err := RunParamSweep(ParamSweepOptions{Dataset: bad, Attr: dataset.ResponseTime}); err == nil {
		t.Error("param sweep should reject invalid dataset")
	}
	if _, err := RunSliceSeries(SliceSeriesOptions{Dataset: bad, Attr: dataset.ResponseTime}); err == nil {
		t.Error("slice series should reject invalid dataset")
	}
	if _, err := RunFloor(FloorOptions{Dataset: bad, Attr: dataset.ResponseTime}); err == nil {
		t.Error("floor should reject invalid dataset")
	}
}

func TestTable1RowLookupMisses(t *testing.T) {
	res := &Table1Result{Attr: dataset.ResponseTime}
	if res.Row("AMF", 0.1) != nil {
		t.Error("empty result should have no rows")
	}
	res.Cells = append(res.Cells, Table1Cell{Approach: "AMF", Density: 0.1})
	if res.Row("AMF", 0.2) != nil {
		t.Error("unknown density should miss")
	}
	if res.Row("UPCC", 0.1) != nil {
		t.Error("unknown approach should miss")
	}
	// Rendering a single-approach result must not emit an improvement row
	// comparison against nothing.
	if out := res.String(); out == "" {
		t.Error("rendering failed")
	}
}

func TestFloorGapZeroOracle(t *testing.T) {
	r := &FloorResult{}
	if r.GapMRE() != 0 {
		t.Error("zero oracle MRE should yield zero gap")
	}
}

func TestFig13SpeedupDegenerate(t *testing.T) {
	r := &Fig13Result{Seconds: map[string][]float64{"AMF": {1}}}
	if got := r.SpeedupAfterWarmup(); len(got) != 0 {
		t.Errorf("single-slice speedup should be empty, got %v", got)
	}
	r2 := &Fig13Result{Seconds: map[string][]float64{"AMF": {1, 0}, "PMF": {1, 1}}}
	if got := r2.SpeedupAfterWarmup(); len(got) != 0 {
		t.Errorf("zero AMF time should yield empty map, got %v", got)
	}
}

func TestFig14ConvergenceNoPoints(t *testing.T) {
	r := &Fig14Result{}
	first, last, drift := r.NewcomerConvergence()
	if first != 0 || last != 0 || drift != 0 {
		t.Error("empty result should yield zeros")
	}
}

func TestAMFOverridesApplyAll(t *testing.T) {
	alpha, eta, reg, beta := 0.5, 0.4, 0.01, 0.7
	rank := 5
	off := false
	ov := AMFOverrides{
		Alpha: &alpha, Rank: &rank, LearnRate: &eta, Reg: &reg, Beta: &beta,
		AdaptiveWeights: &off, RelativeLoss: &off,
	}
	cfg := ov.apply(amfConfig(dataset.ResponseTime, 1, AMFOverrides{}))
	if cfg.Alpha != alpha || cfg.Rank != rank || cfg.LearnRate != eta ||
		cfg.RegUser != reg || cfg.RegService != reg || cfg.Beta != beta ||
		cfg.AdaptiveWeights || cfg.RelativeLoss {
		t.Fatalf("overrides not applied: %+v", cfg)
	}
}
