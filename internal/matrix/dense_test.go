package matrix

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewDenseShape(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("got %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("new matrix not zeroed at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewDensePanicsOnNegativeShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative shape")
		}
	}()
	NewDense(-1, 2)
}

func TestSetAt(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 1, 5)
	if got := m.At(0, 1); got != 5 {
		t.Fatalf("got %g, want 5", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	m := NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	m.At(2, 0)
}

// TestOutOfRangePanicText pins the accessors' panic messages, which are
// built out of line.
func TestOutOfRangePanicText(t *testing.T) {
	m := NewDense(2, 3)
	for _, c := range []struct {
		call func()
		want string
	}{
		{func() { m.At(2, 0) }, "matrix: index (2,0) out of range for 2x3"},
		{func() { m.Set(0, -1, 1) }, "matrix: index (0,-1) out of range for 2x3"},
		{func() { m.Row(-1) }, "matrix: row -1 out of range for 2x3"},
		{func() { m.Row(2) }, "matrix: row 2 out of range for 2x3"},
	} {
		func() {
			defer func() {
				if got := recover(); got != c.want {
					t.Errorf("panic %v, want %q", got, c.want)
				}
			}()
			c.call()
		}()
	}
}

func TestRowIsView(t *testing.T) {
	m := NewDense(2, 3)
	r := m.Row(1)
	r[2] = 9
	if m.At(1, 2) != 9 {
		t.Fatal("Row must return a live view")
	}
	if len(r) != 3 {
		t.Fatalf("row length %d, want 3", len(r))
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 2)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must be independent of the original")
	}
}

func TestTranspose(t *testing.T) {
	m := NewDense(2, 3)
	copy(m.Data(), []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose shape %dx%d, want 3x2", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := NewDense(2, 2)
	copy(a.Data(), []float64{1, 2, 3, 4})
	b := NewDense(2, 2)
	copy(b.Data(), []float64{5, 6, 7, 8})
	got := Mul(a, b)
	want := NewDense(2, 2)
	copy(want.Data(), []float64{19, 22, 43, 50})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got\n%v want\n%v", got, want)
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	a := NewDense(2, 3)
	b := NewDense(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner-dimension mismatch")
		}
	}()
	Mul(a, b)
}

func TestMulTMatchesMulWithTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewDense(4, 3)
	b := NewDense(5, 3)
	for _, m := range []*Dense{a, b} {
		m.Apply(func(float64) float64 { return rng.NormFloat64() })
	}
	got, want := MulT(a, b), Mul(a, b.T())
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("MulT shape %dx%d, Mul(a, bᵀ) %dx%d", got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i, v := range got.Data() {
		if math.Abs(v-want.Data()[i]) > 1e-12 {
			t.Fatal("MulT(a,b) must equal Mul(a, bᵀ)")
		}
	}
}

func TestGramSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewDense(6, 4)
	m.Apply(func(float64) float64 { return rng.NormFloat64() })
	for _, byCols := range []bool{false, true} {
		g := Gram(m, byCols)
		wantN := 6
		if byCols {
			wantN = 4
		}
		if g.Rows() != wantN || g.Cols() != wantN {
			t.Fatalf("gram shape %dx%d, want %dx%d", g.Rows(), g.Cols(), wantN, wantN)
		}
		for i := 0; i < g.Rows(); i++ {
			for j := 0; j < g.Cols(); j++ {
				if math.Abs(g.At(i, j)-g.At(j, i)) > 1e-12 {
					t.Fatalf("gram not symmetric at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestDotAndNorm(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("dot got %g, want 32", got)
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Fatalf("norm got %g, want 5", got)
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestApply(t *testing.T) {
	m := NewDense(2, 2)
	copy(m.Data(), []float64{6, 6, 6, 6})
	m.Apply(func(x float64) float64 { return x + 1 })
	if m.At(1, 1) != 7 {
		t.Fatalf("got %g, want 7", m.At(1, 1))
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		m := NewDense(r, c)
		m.Apply(func(float64) float64 { return rng.NormFloat64() })
		return reflect.DeepEqual(m.T().T(), m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Frobenius norm is invariant under transposition.
func TestFrobeniusTransposeInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewDense(1+rng.Intn(6), 1+rng.Intn(6))
		m.Apply(func(float64) float64 { return rng.NormFloat64() })
		return math.Abs(m.FrobeniusNorm()-m.T().FrobeniusNorm()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := NewDense(2, 2)
	if small.String() == "" {
		t.Fatal("small matrix should render elements")
	}
	large := NewDense(100, 100)
	if got := large.String(); got != "Dense(100x100)" {
		t.Fatalf("large matrix should render compactly, got %q", got)
	}
}
