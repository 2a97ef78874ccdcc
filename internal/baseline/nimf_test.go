package baseline

import (
	"math"
	"testing"

	"github.com/qoslab/amf/internal/matrix"
)

func TestNIMFRecoversStructure(t *testing.T) {
	hold := map[[2]int]bool{{2, 3}: true, {6, 1}: true, {0, 5}: true}
	m, truth := structuredMatrix(10, 8, hold)
	p, err := TrainNIMF(m, NIMFConfig{Rank: 4, RMax: 10, Seed: 3, MaxEpochs: 2000, Tol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	for cell := range hold {
		got, ok := p.Predict(cell[0], cell[1])
		if !ok {
			t.Fatalf("no prediction for %v", cell)
		}
		want := truth(cell[0], cell[1])
		if math.Abs(got-want)/want > 0.35 {
			t.Errorf("NIMF(%v) = %.3f, truth %.3f", cell, got, want)
		}
	}
	if p.Name() != "NIMF" {
		t.Fatal("name")
	}
	if p.rmse <= 0 {
		t.Fatalf("training rmse %g", p.rmse)
	}
}

func TestNIMFAlphaOneEquivalentToPMFShape(t *testing.T) {
	// With alpha forced to 1 the neighborhood term vanishes; the model
	// should behave like plain MF and still fit the data.
	m, truth := structuredMatrix(8, 6, nil)
	p, err := TrainNIMF(m, NIMFConfig{Rank: 3, RMax: 10, Seed: 1, Alpha: 1, MaxEpochs: 1000, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := 0; i < 8; i++ {
		for j := 0; j < 6; j++ {
			got, _ := p.Predict(i, j)
			rel := math.Abs(got-truth(i, j)) / truth(i, j)
			if rel > worst {
				worst = rel
			}
		}
	}
	if worst > 0.25 {
		t.Fatalf("alpha=1 NIMF fits training data poorly: worst rel err %.3f", worst)
	}
}

func TestNIMFNeighborhoodHelpsSparseUsers(t *testing.T) {
	// User 0 has very few observations but perfectly correlated
	// neighbors; the neighborhood blend should place its predictions in
	// a sane range anyway.
	rows, cols := 6, 10
	m := matrix.NewSparse(rows, cols)
	truth := func(i, j int) float64 { return (1 + 0.2*float64(i)) * (0.5 + 0.3*float64(j)) }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if i == 0 && j > 2 {
				continue // user 0 observed only services 0-2
			}
			m.Append(i, j, truth(i, j))
		}
	}
	m.Freeze()
	p, err := TrainNIMF(m, NIMFConfig{Rank: 3, RMax: 10, Seed: 2, MaxEpochs: 1500, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	for j := 3; j < cols; j++ {
		got, ok := p.Predict(0, j)
		if !ok {
			t.Fatalf("no prediction for held-out (0,%d)", j)
		}
		want := truth(0, j)
		if math.Abs(got-want)/want > 0.6 {
			t.Errorf("NIMF(0,%d) = %.3f, truth %.3f", j, got, want)
		}
	}
}

func TestNIMFValidation(t *testing.T) {
	m, _ := structuredMatrix(3, 3, nil)
	cases := map[string]NIMFConfig{
		"rmax":     {},
		"rank":     {RMax: 10, Rank: -1},
		"reg":      {RMax: 10, Reg: -1},
		"lrate":    {RMax: 10, LearnRate: -1},
		"alpha hi": {RMax: 10, Alpha: 1.5},
	}
	for name, cfg := range cases {
		if _, err := TrainNIMF(m, cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestNIMFEmptyAndBounds(t *testing.T) {
	m := matrix.NewSparse(3, 3)
	m.Freeze()
	p, err := TrainNIMF(m, NIMFConfig{RMax: 10})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := p.Predict(0, 0); !ok || v > 10 {
		t.Fatalf("untrained prediction = %g, %v", v, ok)
	}
	if _, ok := p.Predict(-1, 0); ok {
		t.Fatal("out of range user")
	}
	if _, ok := p.Predict(0, 9); ok {
		t.Fatal("out of range service")
	}
}

var _ Predictor = (*NIMF)(nil)
