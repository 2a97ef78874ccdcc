// Package matrix provides the small dense/sparse linear-algebra kernel used
// throughout the AMF reproduction: row-major dense matrices backed by a
// single []float64, a triplet/CSR sparse representation for observed QoS
// entries, and a symmetric Jacobi eigensolver that powers the singular-value
// analysis of the user-service QoS matrices (paper Fig. 9).
//
// The package deliberately sticks to plain slices and the standard library;
// there is no external numeric dependency.
package matrix

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix. The zero value is an empty matrix;
// use NewDense to allocate one with a shape.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates a rows x cols matrix of zeros.
// It panics if either dimension is negative.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: invalid shape %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range for %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns a view (not a copy) of row i as a slice.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of range for %dx%d", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// Data returns the backing slice in row-major order. Mutating it mutates
// the matrix.
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Apply replaces every element x with f(x).
func (m *Dense) Apply(f func(float64) float64) {
	for i, v := range m.data {
		m.data[i] = f(v)
	}
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		ri := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range ri {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// Mul returns the matrix product a*b.
// It panics if the inner dimensions disagree. Nothing outside tests
// multiplies general matrices; it stays as the plain triple loop MulT
// (which feeds Gram and the singular values) is tested against.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("matrix: mul shape mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MulT returns a * bᵀ, i.e. the matrix of pairwise row dot products.
func MulT(a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic(fmt.Sprintf("matrix: mulT shape mismatch %dx%d * (%dx%d)ᵀ", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.rows, b.rows)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for j := 0; j < b.rows; j++ {
			brow := b.data[j*b.cols : (j+1)*b.cols]
			orow[j] = Dot(arow, brow)
		}
	}
	return out
}

// Gram returns mᵀ*m if byCols, else m*mᵀ. The result is symmetric
// positive semi-definite; it is the input to the Jacobi eigensolver when
// extracting singular values.
func Gram(m *Dense, byCols bool) *Dense {
	if byCols {
		t := m.T()
		return MulT(t, t)
	}
	return MulT(m, m)
}

// Dot returns the inner product of two equal-length vectors.
// It panics if the lengths differ.
//
// On CPUs with vector kernels (see SIMD) it dispatches to a single-row
// DotBatch call, so it is bit-identical to the batch kernel; the
// portable fallback is 4-way unrolled with independent accumulators
// (see kernels.go). Either way the summation order differs from a naive
// left-to-right loop, so results may differ by a few ULPs.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("matrix: dot length mismatch %d vs %d", len(a), len(b)))
	}
	if dotArch != nil {
		return dotArch(a, b)
	}
	return dot4(a, b)
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Dense) FrobeniusNorm() float64 { return Norm2(m.data) }

// String renders the matrix compactly, primarily for debugging and tests.
func (m *Dense) String() string {
	if m.rows*m.cols > 400 {
		return fmt.Sprintf("Dense(%dx%d)", m.rows, m.cols)
	}
	s := ""
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
		s += "\n"
	}
	return s
}
