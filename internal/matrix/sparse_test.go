package matrix

import (
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
	s.Entries()
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
	if v := s.Entries()[0].Val; v != 3 {
		t.Fatalf("got %g, want last write 3", v)
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
	es := s.Entries()
	if e := es[len(es)-1]; e != (Entry{Row: 2, Col: 3, Val: 9}) {
		t.Fatalf("last entry %+v after refreeze, want (2,3)=9", e)
	}
}

// Property: after Freeze the entries are exactly the last value appended
// at each cell, in ascending (row, col) order.
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
		es := s.Entries()
		if len(es) != len(want) {
			return false
		}
		for k, e := range es {
			if v, ok := want[[2]int{e.Row, e.Col}]; !ok || v != e.Val {
				return false
			}
			if k > 0 && (es[k-1].Row > e.Row || es[k-1].Row == e.Row && es[k-1].Col >= e.Col) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
