package baseline

import (
	"math"
	"testing"

	"github.com/qoslab/amf/internal/matrix"
)

func TestPCCPerfectPositiveCorrelation(t *testing.T) {
	keys := []int{0, 1, 2, 3}
	a := []float64{1, 2, 3, 4}
	b := []float64{2, 4, 6, 8}
	s, common := pcc(keys, a, keys, b, 2)
	if common != 4 {
		t.Fatalf("common = %d, want 4", common)
	}
	if math.Abs(s-1) > 1e-12 {
		t.Fatalf("pcc = %g, want 1", s)
	}
}

func TestPCCPerfectNegativeCorrelation(t *testing.T) {
	keys := []int{0, 1, 2}
	a := []float64{1, 2, 3}
	b := []float64{3, 2, 1}
	s, _ := pcc(keys, a, keys, b, 2)
	if math.Abs(s+1) > 1e-12 {
		t.Fatalf("pcc = %g, want -1", s)
	}
}

func TestPCCPartialOverlap(t *testing.T) {
	// Only keys 2 and 5 are common.
	keysA := []int{0, 2, 5, 9}
	valsA := []float64{7, 1, 2, 9}
	keysB := []int{1, 2, 5, 8}
	valsB := []float64{4, 10, 20, 3}
	s, common := pcc(keysA, valsA, keysB, valsB, 2)
	if common != 2 {
		t.Fatalf("common = %d, want 2", common)
	}
	// Two points are always perfectly correlated (positively here).
	if math.Abs(s-1) > 1e-12 {
		t.Fatalf("pcc = %g, want 1", s)
	}
}

func TestPCCMinCommonGate(t *testing.T) {
	keys := []int{0, 1}
	a := []float64{1, 2}
	b := []float64{2, 4}
	if s, _ := pcc(keys, a, keys, b, 3); s != 0 {
		t.Fatalf("pcc below MinCommon should be 0, got %g", s)
	}
}

func TestPCCZeroVariance(t *testing.T) {
	keys := []int{0, 1, 2}
	flat := []float64{5, 5, 5}
	vary := []float64{1, 2, 3}
	if s, _ := pcc(keys, flat, keys, vary, 2); s != 0 {
		t.Fatalf("zero-variance pcc should be 0, got %g", s)
	}
}

func TestPCCNoOverlap(t *testing.T) {
	if s, common := pcc([]int{0, 1}, []float64{1, 2}, []int{2, 3}, []float64{1, 2}, 1); s != 0 || common != 0 {
		t.Fatalf("disjoint vectors: s=%g common=%d", s, common)
	}
}

func buildMatrix(t *testing.T, rows, cols int, cells map[[2]int]float64) *matrix.Sparse {
	t.Helper()
	m := matrix.NewSparse(rows, cols)
	for k, v := range cells {
		m.Append(k[0], k[1], v)
	}
	m.Freeze()
	return m
}

func TestTopNeighborsOrderingAndK(t *testing.T) {
	// Three users: 0 and 1 perfectly correlated, 2 anti-correlated with
	// both (anti-correlation is dropped: only positive sims survive).
	m := buildMatrix(t, 3, 4, map[[2]int]float64{
		{0, 0}: 1, {0, 1}: 2, {0, 2}: 3, {0, 3}: 4,
		{1, 0}: 2, {1, 1}: 4, {1, 2}: 6, {1, 3}: 8,
		{2, 0}: 4, {2, 1}: 3, {2, 2}: 2, {2, 3}: 1,
	})
	keys, vals := axisVectors(m, true)
	nbs := topNeighbors(keys, vals)
	if len(nbs[0]) != 1 || nbs[0][0].id != 1 {
		t.Fatalf("user 0 neighbors = %+v, want just user 1", nbs[0])
	}
	if len(nbs[2]) != 0 {
		t.Fatalf("user 2 should have no positive-similarity neighbors, got %+v", nbs[2])
	}
}

func TestTopNeighborsTopKTruncation(t *testing.T) {
	// pccTopK+3 mutually correlated users: each must keep only pccTopK.
	const users = pccTopK + 3
	cells := map[[2]int]float64{}
	for u := 0; u < users; u++ {
		for j := 0; j < 4; j++ {
			cells[[2]int{u, j}] = float64(j+1) * (1 + 0.1*float64(u))
		}
	}
	m := buildMatrix(t, users, 4, cells)
	keys, vals := axisVectors(m, true)
	nbs := topNeighbors(keys, vals)
	for u, ns := range nbs {
		if len(ns) != pccTopK {
			t.Fatalf("user %d has %d neighbors, want %d", u, len(ns), pccTopK)
		}
		for i := 1; i < len(ns); i++ {
			if ns[i].sim > ns[i-1].sim {
				t.Fatalf("neighbors not sorted by similarity: %+v", ns)
			}
		}
	}
}

func TestSignificanceWeightingShrinks(t *testing.T) {
	// Users share only 2 of their many observations; significance
	// weighting must shrink the similarity below the raw PCC.
	cells := map[[2]int]float64{}
	for j := 0; j < 10; j++ {
		cells[[2]int{0, j}] = float64(j + 1)
	}
	cells[[2]int{1, 0}] = 2
	cells[[2]int{1, 1}] = 4
	m := buildMatrix(t, 2, 10, cells)
	keys, vals := axisVectors(m, true)

	raw, _ := pcc(keys[0], vals[0], keys[1], vals[1], pccMinCommon)
	weighted := topNeighbors(keys, vals)
	if len(weighted[0]) != 1 {
		t.Fatalf("expected one neighbor, got %v", weighted[0])
	}
	if weighted[0][0].sim >= raw {
		t.Fatalf("significance weighting should shrink: %g >= %g", weighted[0][0].sim, raw)
	}
	// 2 common of (10+2) observations: factor 2·2/12 = 1/3.
	if want := raw / 3; math.Abs(weighted[0][0].sim-want) > 1e-12 {
		t.Fatalf("weighted sim = %g, want %g", weighted[0][0].sim, want)
	}
}

func TestColVectorsSorted(t *testing.T) {
	m := buildMatrix(t, 4, 3, map[[2]int]float64{
		{3, 1}: 1, {0, 1}: 2, {2, 1}: 3, {1, 0}: 4,
	})
	keys, vals := axisVectors(m, false)
	if len(keys[1]) != 3 {
		t.Fatalf("col 1 has %d entries", len(keys[1]))
	}
	for i := 1; i < len(keys[1]); i++ {
		if keys[1][i] <= keys[1][i-1] {
			t.Fatalf("col keys not sorted: %v", keys[1])
		}
	}
	_ = vals
}

func TestClampMin(t *testing.T) {
	if clampMin(-1) != 0 || clampMin(2) != 2 {
		t.Fatal("clampMin")
	}
}
