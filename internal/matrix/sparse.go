package matrix

import (
	"fmt"
	"sort"
)

// Entry is one observed cell of a sparse matrix: the QoS value Rij observed
// by user (row) i on service (column) j.
type Entry struct {
	Row, Col int
	Val      float64
}

// Sparse is a sparse matrix in triplet form with an optional CSR index for
// fast row iteration. It models the observed user-service QoS matrix R with
// indicator Iij=1 exactly on the stored entries (paper Eq. 1).
type Sparse struct {
	rows, cols int
	entries    []Entry

	// CSR index, built lazily by Freeze.
	frozen  bool
	rowPtr  []int
	colIdx  []int
	values  []float64
	colBase [][]int // column -> indices into values/rowsOf, built with Freeze
	rowsOf  []int   // row index aligned with values under CSR order
}

// NewSparse creates an empty sparse matrix with the given shape.
func NewSparse(rows, cols int) *Sparse {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: invalid sparse shape %dx%d", rows, cols))
	}
	return &Sparse{rows: rows, cols: cols}
}

// Rows returns the number of rows.
func (s *Sparse) Rows() int { return s.rows }

// Cols returns the number of columns.
func (s *Sparse) Cols() int { return s.cols }

// Append adds an observed entry. Duplicate (row, col) pairs are allowed
// until Freeze, which keeps the last one. Append unfreezes the matrix.
func (s *Sparse) Append(row, col int, val float64) {
	if row < 0 || row >= s.rows || col < 0 || col >= s.cols {
		panic(fmt.Sprintf("matrix: sparse index (%d,%d) out of range for %dx%d", row, col, s.rows, s.cols))
	}
	s.entries = append(s.entries, Entry{Row: row, Col: col, Val: val})
	s.frozen = false
}

// Entries returns the raw triplet slice. If the matrix has been frozen,
// the entries are sorted by (row, col) and deduplicated.
func (s *Sparse) Entries() []Entry { return s.entries }

// Freeze sorts entries into CSR order, removes duplicates (last write
// wins), and builds row and column indexes. It is idempotent.
func (s *Sparse) Freeze() {
	if s.frozen {
		return
	}
	sort.SliceStable(s.entries, func(a, b int) bool {
		ea, eb := s.entries[a], s.entries[b]
		if ea.Row != eb.Row {
			return ea.Row < eb.Row
		}
		return ea.Col < eb.Col
	})
	// Deduplicate, keeping the last occurrence (stable sort preserves
	// insertion order within equal keys).
	dedup := s.entries[:0]
	for i := 0; i < len(s.entries); i++ {
		if len(dedup) > 0 {
			last := &dedup[len(dedup)-1]
			if last.Row == s.entries[i].Row && last.Col == s.entries[i].Col {
				last.Val = s.entries[i].Val
				continue
			}
		}
		dedup = append(dedup, s.entries[i])
	}
	s.entries = dedup

	s.rowPtr = make([]int, s.rows+1)
	s.colIdx = make([]int, len(s.entries))
	s.values = make([]float64, len(s.entries))
	s.rowsOf = make([]int, len(s.entries))
	for _, e := range s.entries {
		s.rowPtr[e.Row+1]++
	}
	for i := 0; i < s.rows; i++ {
		s.rowPtr[i+1] += s.rowPtr[i]
	}
	for i, e := range s.entries {
		s.colIdx[i] = e.Col
		s.values[i] = e.Val
		s.rowsOf[i] = e.Row
	}
	s.colBase = make([][]int, s.cols)
	for i, e := range s.entries {
		s.colBase[e.Col] = append(s.colBase[e.Col], i)
	}
	s.frozen = true
}

// At returns (value, true) if entry (i, j) is observed, else (0, false).
// The matrix must be frozen.
func (s *Sparse) At(i, j int) (float64, bool) {
	s.mustFrozen()
	lo, hi := s.rowPtr[i], s.rowPtr[i+1]
	k := lo + sort.SearchInts(s.colIdx[lo:hi], j)
	if k < hi && s.colIdx[k] == j {
		return s.values[k], true
	}
	return 0, false
}

// RowEntries calls f(col, val) for every observed entry in row i.
// The matrix must be frozen.
func (s *Sparse) RowEntries(i int, f func(col int, val float64)) {
	s.mustFrozen()
	for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
		f(s.colIdx[k], s.values[k])
	}
}

// ColEntries calls f(row, val) for every observed entry in column j.
// The matrix must be frozen.
func (s *Sparse) ColEntries(j int, f func(row int, val float64)) {
	s.mustFrozen()
	for _, k := range s.colBase[j] {
		f(s.rowsOf[k], s.values[k])
	}
}

// RowNNZ returns the number of observed entries in row i (frozen only).
func (s *Sparse) RowNNZ(i int) int {
	s.mustFrozen()
	return s.rowPtr[i+1] - s.rowPtr[i]
}

// ColNNZ returns the number of observed entries in column j (frozen only).
func (s *Sparse) ColNNZ(j int) int {
	s.mustFrozen()
	return len(s.colBase[j])
}

// RowMean returns the mean of observed entries in row i, or (0, false) if
// the row is empty.
func (s *Sparse) RowMean(i int) (float64, bool) {
	s.mustFrozen()
	n := s.RowNNZ(i)
	if n == 0 {
		return 0, false
	}
	var sum float64
	for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
		sum += s.values[k]
	}
	return sum / float64(n), true
}

// ColMean returns the mean of observed entries in column j, or (0, false)
// if the column is empty.
func (s *Sparse) ColMean(j int) (float64, bool) {
	s.mustFrozen()
	n := s.ColNNZ(j)
	if n == 0 {
		return 0, false
	}
	var sum float64
	for _, k := range s.colBase[j] {
		sum += s.values[k]
	}
	return sum / float64(n), true
}

func (s *Sparse) mustFrozen() {
	if !s.frozen {
		panic("matrix: sparse matrix must be frozen before indexed access")
	}
}
