package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func buildSparse(t *testing.T) *Sparse {
	t.Helper()
	s := NewSparse(3, 4)
	s.Append(0, 0, 1.4)
	s.Append(0, 2, 1.1)
	s.Append(1, 1, 0.3)
	s.Append(1, 3, 0.7)
	s.Append(2, 0, 0.4)
	s.Freeze()
	return s
}

func TestSparseBasics(t *testing.T) {
	s := buildSparse(t)
	if s.Rows() != 3 || s.Cols() != 4 {
		t.Fatalf("shape %dx%d, want 3x4", s.Rows(), s.Cols())
	}
	if len(s.Entries()) != 5 {
		t.Fatalf("nnz %d, want 5", len(s.Entries()))
	}
}

func TestSparseAt(t *testing.T) {
	s := buildSparse(t)
	if v, ok := s.At(0, 2); !ok || v != 1.1 {
		t.Fatalf("At(0,2) = %g,%v; want 1.1,true", v, ok)
	}
	if _, ok := s.At(0, 1); ok {
		t.Fatal("At(0,1) should be unobserved")
	}
}

func TestSparseAppendOutOfRangePanics(t *testing.T) {
	s := NewSparse(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range append")
		}
	}()
	s.Append(2, 0, 1)
}

func TestSparseUnfrozenAccessPanics(t *testing.T) {
	s := NewSparse(2, 2)
	s.Append(0, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unfrozen access")
		}
	}()
	s.At(0, 0)
}

func TestSparseDuplicateLastWins(t *testing.T) {
	s := NewSparse(2, 2)
	s.Append(0, 0, 1)
	s.Append(0, 0, 2)
	s.Append(0, 0, 3)
	s.Freeze()
	if len(s.Entries()) != 1 {
		t.Fatalf("nnz %d, want 1 after dedup", len(s.Entries()))
	}
	if v, _ := s.At(0, 0); v != 3 {
		t.Fatalf("got %g, want last write 3", v)
	}
}

func TestSparseRowColIteration(t *testing.T) {
	s := buildSparse(t)
	var cols []int
	var vals []float64
	s.RowEntries(1, func(c int, v float64) {
		cols = append(cols, c)
		vals = append(vals, v)
	})
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 3 {
		t.Fatalf("row 1 cols = %v, want [1 3]", cols)
	}
	var rows []int
	s.ColEntries(0, func(r int, v float64) { rows = append(rows, r) })
	if len(rows) != 2 || rows[0] != 0 || rows[1] != 2 {
		t.Fatalf("col 0 rows = %v, want [0 2]", rows)
	}
	if s.RowNNZ(0) != 2 || s.ColNNZ(3) != 1 || s.ColNNZ(2) != 1 {
		t.Fatal("row/col nnz mismatch")
	}
}

func TestSparseMeans(t *testing.T) {
	s := buildSparse(t)
	if m, ok := s.RowMean(0); !ok || m != (1.4+1.1)/2 {
		t.Fatalf("row 0 mean = %g,%v", m, ok)
	}
	if m, ok := s.ColMean(0); !ok || math.Abs(m-0.9) > 1e-12 {
		t.Fatalf("col 0 mean = %g,%v", m, ok)
	}
	empty := NewSparse(2, 2)
	empty.Freeze()
	if _, ok := empty.RowMean(0); ok {
		t.Fatal("empty row must report no mean")
	}
	if _, ok := empty.ColMean(1); ok {
		t.Fatal("empty col must report no mean")
	}
}

func TestSparseFreezeIdempotent(t *testing.T) {
	s := buildSparse(t)
	s.Freeze()
	s.Freeze()
	if len(s.Entries()) != 5 {
		t.Fatalf("nnz changed after refreeze: %d", len(s.Entries()))
	}
}

func TestSparseAppendAfterFreezeUnfreezes(t *testing.T) {
	s := buildSparse(t)
	s.Append(2, 3, 9)
	s.Freeze()
	if v, ok := s.At(2, 3); !ok || v != 9 {
		t.Fatalf("At(2,3) = %g,%v after refreeze", v, ok)
	}
}

// Property: every appended (unique) entry is retrievable after Freeze, and
// row iteration yields columns in ascending order.
func TestSparseRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(10), 1+rng.Intn(10)
		s := NewSparse(rows, cols)
		want := map[[2]int]float64{}
		for k := 0; k < 30; k++ {
			i, j := rng.Intn(rows), rng.Intn(cols)
			v := rng.Float64()
			s.Append(i, j, v)
			want[[2]int{i, j}] = v
		}
		s.Freeze()
		if len(s.Entries()) != len(want) {
			return false
		}
		for key, v := range want {
			got, ok := s.At(key[0], key[1])
			if !ok || got != v {
				return false
			}
		}
		for i := 0; i < rows; i++ {
			prev := -1
			ok := true
			s.RowEntries(i, func(c int, _ float64) {
				if c <= prev {
					ok = false
				}
				prev = c
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
