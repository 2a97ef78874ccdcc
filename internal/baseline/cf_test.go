package baseline

import (
	"math"
	"testing"

	"github.com/qoslab/amf/internal/matrix"
)

// structuredMatrix builds a QoS matrix with multiplicative structure
// value(i,j) = a_i·b_j and holds out the given cells.
func structuredMatrix(rows, cols int, holdOut map[[2]int]bool) (*matrix.Sparse, func(i, j int) float64) {
	a := make([]float64, rows)
	b := make([]float64, cols)
	for i := range a {
		a[i] = 1 + 0.3*float64(i)
	}
	for j := range b {
		b[j] = 0.5 + 0.2*float64(j)
	}
	truth := func(i, j int) float64 { return a[i] * b[j] }
	m := matrix.NewSparse(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if !holdOut[[2]int{i, j}] {
				m.Append(i, j, truth(i, j))
			}
		}
	}
	m.Freeze()
	return m, truth
}

func TestUPCCPredictsHeldOut(t *testing.T) {
	hold := map[[2]int]bool{{2, 3}: true, {5, 1}: true}
	m, truth := structuredMatrix(8, 6, hold)
	u := TrainUPCC(m, PCCConfig{TopK: -1})
	for cell := range hold {
		got, ok := u.Predict(cell[0], cell[1])
		if !ok {
			t.Fatalf("no prediction for %v", cell)
		}
		want := truth(cell[0], cell[1])
		if math.Abs(got-want)/want > 0.5 {
			t.Errorf("UPCC(%v) = %.3f, truth %.3f", cell, got, want)
		}
	}
	if u.Name() != "UPCC" {
		t.Fatal("name")
	}
}

func TestIPCCPredictsHeldOut(t *testing.T) {
	hold := map[[2]int]bool{{2, 3}: true, {5, 1}: true}
	m, truth := structuredMatrix(8, 6, hold)
	p := TrainIPCC(m, PCCConfig{TopK: -1})
	for cell := range hold {
		got, ok := p.Predict(cell[0], cell[1])
		if !ok {
			t.Fatalf("no prediction for %v", cell)
		}
		want := truth(cell[0], cell[1])
		if math.Abs(got-want)/want > 0.5 {
			t.Errorf("IPCC(%v) = %.3f, truth %.3f", cell, got, want)
		}
	}
	if p.Name() != "IPCC" {
		t.Fatal("name")
	}
}

func TestUPCCFallbacks(t *testing.T) {
	// User 2 has observations but no correlated neighbors for service 3:
	// prediction falls back to the user mean.
	m := matrix.NewSparse(3, 4)
	m.Append(0, 0, 1)
	m.Append(0, 1, 2)
	m.Append(1, 0, 5)
	m.Append(1, 1, 5.5)
	m.Append(2, 2, 9)
	m.Freeze()
	u := TrainUPCC(m, PCCConfig{})
	got, ok := u.Predict(2, 3)
	if !ok || got != 9 {
		t.Fatalf("fallback to user mean: got %g, %v; want 9", got, ok)
	}
}

func TestUPCCGlobalFallbackForColdUser(t *testing.T) {
	m := matrix.NewSparse(3, 2)
	m.Append(0, 0, 2)
	m.Append(1, 0, 4)
	m.Freeze()
	u := TrainUPCC(m, PCCConfig{})
	// User 2 never invoked anything: global mean of user means = 3.
	got, ok := u.Predict(2, 1)
	if !ok || got != 3 {
		t.Fatalf("global fallback: got %g, %v; want 3", got, ok)
	}
}

func TestUPCCEmptyMatrixNoPrediction(t *testing.T) {
	m := matrix.NewSparse(2, 2)
	m.Freeze()
	u := TrainUPCC(m, PCCConfig{})
	if _, ok := u.Predict(0, 0); ok {
		t.Fatal("empty training data must yield no prediction")
	}
}

func TestPredictOutOfRangeIndices(t *testing.T) {
	m := matrix.NewSparse(2, 2)
	m.Append(0, 0, 1)
	m.Freeze()
	u := TrainUPCC(m, PCCConfig{})
	p := TrainIPCC(m, PCCConfig{})
	for _, cell := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		if _, ok := u.Predict(cell[0], cell[1]); ok {
			t.Errorf("UPCC accepted out-of-range %v", cell)
		}
		if _, ok := p.Predict(cell[0], cell[1]); ok {
			t.Errorf("IPCC accepted out-of-range %v", cell)
		}
	}
}

func TestIPCCFallbackToServiceMean(t *testing.T) {
	m := matrix.NewSparse(3, 3)
	m.Append(0, 0, 2)
	m.Append(1, 0, 4)
	m.Append(0, 1, 7)
	m.Freeze()
	p := TrainIPCC(m, PCCConfig{})
	// User 2 invoked nothing; service 0's mean is 3.
	got, ok := p.Predict(2, 0)
	if !ok || got != 3 {
		t.Fatalf("service-mean fallback: got %g, %v; want 3", got, ok)
	}
	if !p.hasMean[1] || p.svcMeans[1] != 7 {
		t.Fatalf("service 1 mean = %g, %v", p.svcMeans[1], p.hasMean[1])
	}
}

func TestUIPCCBlendsBothViews(t *testing.T) {
	hold := map[[2]int]bool{{3, 2}: true}
	m, truth := structuredMatrix(8, 6, hold)
	h := TrainUIPCC(m, UIPCCConfig{Lambda: 0.5, User: PCCConfig{TopK: -1}, Item: PCCConfig{TopK: -1}})
	got, ok := h.Predict(3, 2)
	if !ok {
		t.Fatal("no hybrid prediction")
	}
	want := truth(3, 2)
	if math.Abs(got-want)/want > 0.5 {
		t.Errorf("UIPCC = %.3f, truth %.3f", got, want)
	}
	if h.Name() != "UIPCC" {
		t.Fatal("name")
	}
}

func TestUIPCCLambdaExtremes(t *testing.T) {
	hold := map[[2]int]bool{{3, 2}: true}
	m, _ := structuredMatrix(8, 6, hold)
	onlyU := TrainUIPCC(m, UIPCCConfig{Lambda: 5, User: PCCConfig{TopK: -1}, Item: PCCConfig{TopK: -1}})  // clamps to 1
	onlyI := TrainUIPCC(m, UIPCCConfig{Lambda: -1, User: PCCConfig{TopK: -1}, Item: PCCConfig{TopK: -1}}) // clamps to 0
	u := onlyU.u
	i2 := TrainIPCC(m, PCCConfig{TopK: -1})
	uv, _, _ := u.PredictWithConfidence(3, 2)
	iv, _, _ := i2.PredictWithConfidence(3, 2)
	gu, _ := onlyU.Predict(3, 2)
	gi, _ := onlyI.Predict(3, 2)
	if math.Abs(gu-uv) > 1e-9 {
		t.Errorf("lambda=1 should equal UPCC: %g vs %g", gu, uv)
	}
	if math.Abs(gi-iv) > 1e-9 {
		t.Errorf("lambda=0 should equal IPCC: %g vs %g", gi, iv)
	}
}

func TestUIPCCFallsBackWhenNoNeighbors(t *testing.T) {
	m := matrix.NewSparse(2, 2)
	m.Append(0, 0, 3)
	m.Freeze()
	h := TrainUIPCC(m, UIPCCConfig{Lambda: 0.1})
	got, ok := h.Predict(1, 1)
	if !ok || got != 3 {
		t.Fatalf("UIPCC fallback: got %g, %v; want 3 (global mean)", got, ok)
	}
}

func TestPMFRecoversStructure(t *testing.T) {
	hold := map[[2]int]bool{{2, 3}: true, {6, 1}: true, {0, 5}: true}
	m, truth := structuredMatrix(10, 8, hold)
	p, err := TrainPMF(m, PMFConfig{Rank: 4, RMax: 10, Seed: 3, MaxEpochs: 2000, Tol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	for cell := range hold {
		got, ok := p.Predict(cell[0], cell[1])
		if !ok {
			t.Fatalf("no PMF prediction for %v", cell)
		}
		want := truth(cell[0], cell[1])
		if math.Abs(got-want)/want > 0.3 {
			t.Errorf("PMF(%v) = %.3f, truth %.3f", cell, got, want)
		}
	}
	if p.Name() != "PMF" {
		t.Fatal("name")
	}
	if p.rmse <= 0 {
		t.Fatalf("training rmse %g", p.rmse)
	}
}

func TestPMFTrainingErrorDecreases(t *testing.T) {
	m, _ := structuredMatrix(10, 8, nil)
	short, err := TrainPMF(m, PMFConfig{Rank: 4, RMax: 10, Seed: 3, MaxEpochs: 3, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	long, err := TrainPMF(m, PMFConfig{Rank: 4, RMax: 10, Seed: 3, MaxEpochs: 500, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if long.rmse >= short.rmse {
		t.Fatalf("more epochs should not increase RMSE: %g vs %g", long.rmse, short.rmse)
	}
}

func TestPMFValidation(t *testing.T) {
	m, _ := structuredMatrix(3, 3, nil)
	if _, err := TrainPMF(m, PMFConfig{RMax: 0}); err == nil {
		t.Error("RMax=0 should error")
	}
	if _, err := TrainPMF(m, PMFConfig{RMax: 10, Rank: -1}); err == nil {
		t.Error("negative rank should error")
	}
	if _, err := TrainPMF(m, PMFConfig{RMax: 10, Reg: -0.1}); err == nil {
		t.Error("negative reg should error")
	}
	if _, err := TrainPMF(m, PMFConfig{RMax: 10, LearnRate: -1}); err == nil {
		t.Error("negative learn rate should error")
	}
}

func TestPMFEmptyMatrix(t *testing.T) {
	m := matrix.NewSparse(3, 3)
	m.Freeze()
	p, err := TrainPMF(m, PMFConfig{RMax: 10})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := p.Predict(0, 0); !ok || v < 0 || v > 10 {
		t.Fatalf("untrained prediction = %g, %v", v, ok)
	}
}

func TestPMFPredictionClamped(t *testing.T) {
	m, _ := structuredMatrix(6, 6, nil)
	p, err := TrainPMF(m, PMFConfig{Rank: 3, RMax: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			v, ok := p.Predict(i, j)
			if !ok || v < 0 || v > 10 {
				t.Fatalf("PMF prediction %g out of [0,10]", v)
			}
		}
	}
	if _, ok := p.Predict(-1, 0); ok {
		t.Fatal("out-of-range index must not predict")
	}
	if _, ok := p.Predict(0, 99); ok {
		t.Fatal("out-of-range service must not predict")
	}
}

// All baselines satisfy the Predictor interface.
var (
	_ Predictor = (*UPCC)(nil)
	_ Predictor = (*IPCC)(nil)
	_ Predictor = (*UIPCC)(nil)
	_ Predictor = (*PMF)(nil)
)
