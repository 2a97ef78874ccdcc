package baseline

import (
	"math"
	"testing"

	"github.com/qoslab/amf/internal/matrix"
)

func TestBiasedMFRecoversStructure(t *testing.T) {
	hold := map[[2]int]bool{{2, 3}: true, {6, 1}: true, {0, 5}: true}
	m, truth := structuredMatrix(10, 8, hold)
	b, err := trainFactorizer(m, biasedMF, 10, 3, schedule{rank: 4, epochs: 2000, tol: 1e-7})
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

	biased, err := trainFactorizer(m, biasedMF, 15, 1, schedule{rank: 2, epochs: 1500, tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := trainFactorizer(m, pmf, 15, 1, schedule{rank: 2, epochs: 1500, tol: 1e-8})
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
	for _, rmax := range []float64{0, -1} {
		if _, err := TrainBiasedMF(m, rmax, 0); err == nil {
			t.Errorf("RMax=%g should error", rmax)
		}
	}
}

func TestBiasedMFEmptyAndBounds(t *testing.T) {
	m := matrix.NewSparse(3, 3)
	m.Freeze()
	b, err := TrainBiasedMF(m, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := b(0, 0); !ok || v > 10 {
		t.Fatalf("untrained prediction = %g, %v", v, ok)
	}
	if _, ok := b(-1, 0); ok {
		t.Fatal("out of range user")
	}
	if _, ok := b(0, 3); ok {
		t.Fatal("out of range service")
	}
}
