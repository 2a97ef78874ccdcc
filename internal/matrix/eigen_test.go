package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSymEigenDiagonal(t *testing.T) {
	m := NewDense(3, 3)
	copy(m.Data(), []float64{3, 0, 0, 0, 1, 0, 0, 0, 2})
	eig, err := SymEigen(m, JacobiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i, w := range want {
		if math.Abs(eig[i]-w) > 1e-10 {
			t.Fatalf("eig[%d] = %g, want %g", i, eig[i], w)
		}
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	m := NewDense(2, 2)
	copy(m.Data(), []float64{2, 1, 1, 2})
	eig, err := SymEigen(m, JacobiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig[0]-3) > 1e-10 || math.Abs(eig[1]-1) > 1e-10 {
		t.Fatalf("eig = %v, want [3 1]", eig)
	}
}

func TestSymEigenRejectsNonSquare(t *testing.T) {
	if _, err := SymEigen(NewDense(2, 3), JacobiOptions{}); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestSymEigenRejectsAsymmetric(t *testing.T) {
	m := NewDense(2, 2)
	copy(m.Data(), []float64{1, 2, 3, 4})
	if _, err := SymEigen(m, JacobiOptions{}); err == nil {
		t.Fatal("expected error for asymmetric input")
	}
}

func TestSymEigenZeroMatrix(t *testing.T) {
	eig, err := SymEigen(NewDense(3, 3), JacobiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range eig {
		if e != 0 {
			t.Fatalf("zero matrix eigenvalues = %v", eig)
		}
	}
}

// Property: trace and Frobenius norm are preserved by the eigenvalue
// decomposition of random symmetric matrices.
func TestSymEigenInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		m := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				m.Set(i, j, v)
				m.Set(j, i, v)
			}
		}
		eig, err := SymEigen(m, JacobiOptions{})
		if err != nil {
			return false
		}
		var trace, sumEig, sumSq float64
		for i := 0; i < n; i++ {
			trace += m.At(i, i)
		}
		for _, e := range eig {
			sumEig += e
			sumSq += e * e
		}
		fro := m.FrobeniusNorm()
		return math.Abs(trace-sumEig) < 1e-8 && math.Abs(fro*fro-sumSq) < 1e-6*(1+fro*fro)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSingularValuesKnown(t *testing.T) {
	// diag(3, 2) embedded in a 2x3 matrix has singular values {3, 2}.
	m := NewDense(2, 3)
	copy(m.Data(), []float64{3, 0, 0, 0, 2, 0})
	sv, err := SingularValues(m, JacobiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sv[0]-3) > 1e-9 || math.Abs(sv[1]-2) > 1e-9 {
		t.Fatalf("singular values %v, want [3 2]", sv)
	}
}

func TestSingularValuesLowRank(t *testing.T) {
	// Rank-2 matrix built from two outer products: exactly 2 nonzero
	// singular values regardless of shape.
	rng := rand.New(rand.NewSource(42))
	n, m := 20, 35
	u1, u2 := make([]float64, n), make([]float64, n)
	v1, v2 := make([]float64, m), make([]float64, m)
	for i := range u1 {
		u1[i], u2[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	for j := range v1 {
		v1[j], v2[j] = rng.NormFloat64(), rng.NormFloat64()
	}
	a := NewDense(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			a.Set(i, j, u1[i]*v1[j]+u2[i]*v2[j])
		}
	}
	sv, err := SingularValues(a, JacobiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sv[0] <= 0 || sv[1] <= 0 {
		t.Fatalf("leading singular values should be positive: %v", sv[:3])
	}
	for k := 2; k < len(sv); k++ {
		if sv[k] > 1e-6*sv[0] {
			t.Fatalf("sv[%d] = %g not ~0 for rank-2 matrix (sv0=%g)", k, sv[k], sv[0])
		}
	}
}

// Property: singular values of random matrices are non-negative, sorted
// descending, and their squared sum equals the squared Frobenius norm.
func TestSingularValuesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		m := NewDense(r, c)
		m.Apply(func(float64) float64 { return rng.NormFloat64() })
		sv, err := SingularValues(m, JacobiOptions{})
		if err != nil {
			return false
		}
		var sumSq float64
		for i, v := range sv {
			if v < 0 {
				return false
			}
			if i > 0 && sv[i] > sv[i-1]+1e-12 {
				return false
			}
			sumSq += v * v
		}
		fro := m.FrobeniusNorm()
		return math.Abs(sumSq-fro*fro) < 1e-6*(1+fro*fro)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeDescending(t *testing.T) {
	got := NormalizeDescending([]float64{4, 2, 1})
	want := []float64{1, 0.5, 0.25}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if out := NormalizeDescending(nil); len(out) != 0 {
		t.Fatal("empty input should stay empty")
	}
	zeros := NormalizeDescending([]float64{0, 0})
	if zeros[0] != 0 || zeros[1] != 0 {
		t.Fatal("zero leading value must not divide")
	}
}

func TestEffectiveRank(t *testing.T) {
	sv := []float64{10, 5, 1, 0.01}
	if got := EffectiveRank(sv, 0.1); got != 3 {
		t.Fatalf("effective rank = %d, want 3", got)
	}
	if got := EffectiveRank(sv, 0.6); got != 1 {
		t.Fatalf("effective rank = %d, want 1", got)
	}
}
