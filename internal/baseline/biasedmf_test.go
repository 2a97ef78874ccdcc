package baseline

import (
	"math"
	"testing"

	"github.com/qoslab/amf/internal/matrix"
)

func TestBiasedMFRecoversStructure(t *testing.T) {
	hold := map[[2]int]bool{{2, 3}: true, {6, 1}: true, {0, 5}: true}
	m, truth := structuredMatrix(10, 8, hold)
	b, err := TrainBiasedMF(m, BiasedMFConfig{Rank: 4, RMax: 10, Seed: 3, MaxEpochs: 2000, Tol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	for cell := range hold {
		got, ok := b.Predict(cell[0], cell[1])
		if !ok {
			t.Fatalf("no prediction for %v", cell)
		}
		want := truth(cell[0], cell[1])
		if math.Abs(got-want)/want > 0.3 {
			t.Errorf("BiasedMF(%v) = %.3f, truth %.3f", cell, got, want)
		}
	}
	if b.Name() != "BiasedMF" {
		t.Fatal("name")
	}
	if b.rmse <= 0 {
		t.Fatalf("training rmse %g", b.rmse)
	}
}

func TestBiasedMFBeatsPlainPMFOnBiasedData(t *testing.T) {
	// Data with strong additive user/service offsets: value = a_i + b_j.
	// The bias terms should capture this better than pure inner products
	// at the same rank.
	rows, cols := 12, 15
	m := matrix.NewSparse(rows, cols)
	truth := func(i, j int) float64 { return 1 + 0.5*float64(i) + 0.3*float64(j) }
	hold := [][2]int{{3, 4}, {8, 11}, {1, 13}}
	holdSet := map[[2]int]bool{}
	for _, h := range hold {
		holdSet[h] = true
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if !holdSet[[2]int{i, j}] {
				m.Append(i, j, truth(i, j))
			}
		}
	}
	m.Freeze()

	biased, err := TrainBiasedMF(m, BiasedMFConfig{Rank: 2, RMax: 15, Seed: 1, MaxEpochs: 1500, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := TrainPMF(m, PMFConfig{Rank: 2, RMax: 15, Seed: 1, MaxEpochs: 1500, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	var biasedErr, plainErr float64
	for _, h := range hold {
		want := truth(h[0], h[1])
		bv, _ := biased.Predict(h[0], h[1])
		pv, _ := plain.Predict(h[0], h[1])
		biasedErr += math.Abs(bv - want)
		plainErr += math.Abs(pv - want)
	}
	if biasedErr >= plainErr {
		t.Fatalf("BiasedMF (%.4f) should beat PMF (%.4f) on additive data", biasedErr, plainErr)
	}
}

func TestBiasedMFValidation(t *testing.T) {
	m, _ := structuredMatrix(3, 3, nil)
	cases := map[string]BiasedMFConfig{
		"rmax":  {},
		"rank":  {RMax: 10, Rank: -1},
		"reg":   {RMax: 10, Reg: -1},
		"lrate": {RMax: 10, LearnRate: -1},
	}
	for name, cfg := range cases {
		if _, err := TrainBiasedMF(m, cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestBiasedMFEmptyAndBounds(t *testing.T) {
	m := matrix.NewSparse(3, 3)
	m.Freeze()
	b, err := TrainBiasedMF(m, BiasedMFConfig{RMax: 10})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := b.Predict(0, 0); !ok || v > 10 {
		t.Fatalf("untrained prediction = %g, %v", v, ok)
	}
	if _, ok := b.Predict(-1, 0); ok {
		t.Fatal("out of range user")
	}
	if _, ok := b.Predict(0, 3); ok {
		t.Fatal("out of range service")
	}
}

var _ Predictor = (*BiasedMF)(nil)
