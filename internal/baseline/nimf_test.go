package baseline

import (
	"math"
	"testing"

	"github.com/qoslab/amf/internal/matrix"
)

func TestNIMFRecoversStructure(t *testing.T) {
	hold := map[[2]int]bool{{2, 3}: true, {6, 1}: true, {0, 5}: true}
	m, truth := structuredMatrix(10, 8, hold)
	p, err := trainFactorizer(m, nimf, 10, 3, schedule{rank: 4, epochs: 2000, tol: 1e-7})
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
	if p.rmse <= 0 {
		t.Fatalf("training rmse %g", p.rmse)
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
	p, err := trainFactorizer(m, nimf, 10, 2, schedule{rank: 3, epochs: 1500, tol: 1e-8})
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
	for _, rmax := range []float64{0, -1} {
		if _, err := TrainNIMF(m, rmax, 0); err == nil {
			t.Errorf("RMax=%g should error", rmax)
		}
	}
}

func TestNIMFEmptyAndBounds(t *testing.T) {
	m := matrix.NewSparse(3, 3)
	m.Freeze()
	p, err := TrainNIMF(m, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := p(0, 0); !ok || v > 10 {
		t.Fatalf("untrained prediction = %g, %v", v, ok)
	}
	if _, ok := p(-1, 0); ok {
		t.Fatal("out of range user")
	}
	if _, ok := p(0, 9); ok {
		t.Fatal("out of range service")
	}
}

// TestNIMFNeighborStepUsesPreStepItem takes one SGD step on one sample
// and checks every neighbour moved along the item vector the estimate
// used, not the one the same step has just updated.
func TestNIMFNeighborStepUsesPreStepItem(t *testing.T) {
	const rank = 3
	f := &factorizer{
		model:     nimf,
		reg:       mfParams[nimf].reg,
		users:     matrix.NewDense(3, rank),
		items:     matrix.NewDense(2, rank),
		neighbors: [][]neighbor{{{id: 1, sim: 0.75}, {id: 2, sim: 0.25}}, nil, nil},
		blend:     make([]float64, rank),
	}
	for i, v := range []float64{0.3, -0.2, 0.5, 0.1, 0.4, -0.3, -0.6, 0.2, 0.7} {
		f.users.Data()[i] = v
	}
	for i, v := range []float64{0.8, -0.5, 0.2, 0.1, 0.1, 0.1} {
		f.items.Data()[i] = v
	}
	ui, sj := f.users.Row(0), f.items.Row(1)
	diff := f.estimate(0, 1, ui, sj) - 0.9
	sjBefore := append([]float64(nil), sj...)
	var want [][]float64
	for _, nb := range f.neighbors[0] {
		uk := append([]float64(nil), f.users.Row(nb.id)...)
		w := (1 - nimfAlpha) * nb.sim
		for k := range uk {
			uk[k] -= mfLearnRate * w * diff * sjBefore[k]
		}
		want = append(want, uk)
	}
	f.step(0, 1, ui, sj, diff)
	for n, nb := range f.neighbors[0] {
		for k, got := range f.users.Row(nb.id) {
			if got != want[n][k] {
				t.Errorf("neighbour %d factor %d = %v, want %v (uk − η·w·diff·sj before the step)", nb.id, k, got, want[n][k])
			}
		}
	}
	if sj[0] == sjBefore[0] {
		t.Fatal("the step left the item vector where it was; the test shows nothing")
	}
}
