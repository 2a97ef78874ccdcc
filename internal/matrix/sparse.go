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

// Sparse is a sparse matrix in triplet form. It models the observed
// user-service QoS matrix R with indicator Iij=1 exactly on the stored
// entries (paper Eq. 1), and is what the offline baselines train from.
type Sparse struct {
	rows, cols int
	entries    []Entry
	frozen     bool
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

// Entries returns the observed entries, sorted by (row, col) and
// deduplicated. The matrix must be frozen.
func (s *Sparse) Entries() []Entry {
	if !s.frozen {
		panic("matrix: sparse matrix must be frozen before its entries are read")
	}
	return s.entries
}

// Freeze sorts entries by (row, col) and removes duplicates (last write
// wins). It is idempotent.
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
	s.frozen = true
}
