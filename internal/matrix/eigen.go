package matrix

import (
	"fmt"
	"math"
	"sort"
)

// The cyclic Jacobi eigensolver's budget: at most jacobiMaxSweeps full
// sweeps (typical convergence takes ~10), stopping once the off-diagonal
// Frobenius norm falls to jacobiTol of the matrix's.
const (
	jacobiMaxSweeps = 64
	jacobiTol       = 1e-12
)

// SymEigen computes the eigenvalues of a symmetric matrix using the cyclic
// Jacobi rotation method. The input is not modified. Eigenvalues are
// returned in descending order. An error is returned if the matrix is not
// square or not symmetric (within 1e-8 of its transpose, scaled).
func SymEigen(m *Dense) ([]float64, error) {
	n := m.Rows()
	if n != m.Cols() {
		return nil, fmt.Errorf("matrix: SymEigen requires square input, got %dx%d", n, m.Cols())
	}
	scale := m.FrobeniusNorm()
	if scale == 0 {
		return make([]float64, n), nil
	}
	symTol := 1e-8 * scale
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > symTol {
				return nil, fmt.Errorf("matrix: SymEigen input not symmetric at (%d,%d): %g vs %g", i, j, m.At(i, j), m.At(j, i))
			}
		}
	}

	a := m.Clone()
	ad := a.Data()
	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := ad[i*n+j]
				off += 2 * v * v
			}
		}
		if math.Sqrt(off) <= jacobiTol*scale {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := ad[p*n+q]
				if apq == 0 {
					continue
				}
				app := ad[p*n+p]
				aqq := ad[q*n+q]
				// Rotation angle that annihilates a[p][q].
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Apply the rotation G(p,q,θ)ᵀ A G(p,q,θ) in place.
				for k := 0; k < n; k++ {
					akp := ad[k*n+p]
					akq := ad[k*n+q]
					ad[k*n+p] = c*akp - s*akq
					ad[k*n+q] = s*akp + c*akq
				}
				for k := 0; k < n; k++ {
					apk := ad[p*n+k]
					aqk := ad[q*n+k]
					ad[p*n+k] = c*apk - s*aqk
					ad[q*n+k] = s*apk + c*aqk
				}
			}
		}
	}

	eig := make([]float64, n)
	for i := 0; i < n; i++ {
		eig[i] = ad[i*n+i]
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(eig)))
	return eig, nil
}

// SingularValues computes the singular values of an arbitrary dense matrix
// in descending order, via the eigenvalues of the smaller Gram matrix
// (A·Aᵀ or Aᵀ·A, whichever is smaller). This is exactly what the paper's
// Fig. 9 needs: the 142x4500 QoS matrix reduces to a 142x142 symmetric
// eigenproblem. Tiny negative eigenvalues from round-off are clamped to 0.
func SingularValues(m *Dense) ([]float64, error) {
	byCols := m.Cols() < m.Rows()
	g := Gram(m, byCols)
	eig, err := SymEigen(g)
	if err != nil {
		return nil, err
	}
	sv := make([]float64, len(eig))
	for i, e := range eig {
		if e < 0 {
			e = 0
		}
		sv[i] = math.Sqrt(e)
	}
	return sv, nil
}

// NormalizeDescending divides the slice by its first (largest) element so
// the leading value is 1, matching the normalization in paper Fig. 9.
// A zero or empty leading value leaves the slice unchanged.
func NormalizeDescending(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	if len(out) == 0 || out[0] == 0 {
		return out
	}
	max := out[0]
	for i := range out {
		out[i] /= max
	}
	return out
}

// EffectiveRank returns the number of normalized singular values at or
// above threshold. It quantifies the "approximately low-rank" observation
// the paper draws from Fig. 9.
func EffectiveRank(singular []float64, threshold float64) int {
	norm := NormalizeDescending(singular)
	n := 0
	for _, v := range norm {
		if v >= threshold {
			n++
		}
	}
	return n
}
