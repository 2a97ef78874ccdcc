package matrix

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// dotNaive32Ref computes the float32 dot's reference value in float64
// over the widened inputs. The float32 kernel accumulates in float32,
// so it is compared against this within the float32 reassociation
// envelope (ulpBound32), not exactly.
func dotNaive32Ref(a, b []float32) float64 {
	var s float64
	for i, v := range a {
		s += float64(v) * float64(b[i])
	}
	return s
}

// ulpBound32 is ulpBound with float32 machine epsilon: the error
// envelope for n float32 products summed in any association order.
func ulpBound32(a, b []float32) float64 {
	var mag float64
	for i := range a {
		mag += math.Abs(float64(a[i]) * float64(b[i]))
	}
	const eps = 1.1920928955078125e-7 // 2^-23
	n := float64(len(a)) + 8
	bound := 4 * n * eps * mag
	if bound < eps {
		bound = eps
	}
	return bound
}

func randVec32(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func TestDot32MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for n := 0; n <= 67; n++ {
		a, b := randVec32(rng, n), randVec32(rng, n)
		got, want := float64(Dot32(a, b)), dotNaive32Ref(a, b)
		if diff := math.Abs(got - want); diff > ulpBound32(a, b) {
			t.Fatalf("n=%d: Dot32=%g ref=%g diff=%g > bound=%g", n, got, want, diff, ulpBound32(a, b))
		}
	}
}

func TestDot32PanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot32([]float32{1}, []float32{1, 2})
}

func TestDotBatch32(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range []struct{ rows, k int }{{0, 5}, {1, 1}, {3, 0}, {7, 10}, {64, 16}, {100, 3}, {9, 8}} {
		q := randVec32(rng, shape.k)
		block := randVec32(rng, shape.rows*shape.k)
		dst := make([]float32, shape.rows)
		for i := range dst {
			dst[i] = float32(math.NaN()) // must be overwritten
		}
		DotBatch32(dst, block, q)
		for i := 0; i < shape.rows; i++ {
			row := block[i*shape.k : (i+1)*shape.k]
			want := dotNaive32Ref(row, q)
			if diff := math.Abs(float64(dst[i]) - want); diff > ulpBound32(row, q) {
				t.Fatalf("rows=%d k=%d row %d: got %g want %g", shape.rows, shape.k, i, dst[i], want)
			}
		}
	}
}

func TestDotBatch32PanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DotBatch32(make([]float32, 2), make([]float32, 5), make([]float32, 3))
}

// TestDotBatchSplitInvariance pins the bit-identity contract from
// kernels.go: a row's score must not depend on which rows share its
// DotBatch call. The coalesced rank path splits arenas into arbitrary
// row blocks and the candidate path scores rows one at a time (Dot), so
// any grouping of the same rows must produce identical bits — including
// groupings that land rows in the SIMD kernels' blocked vs remainder
// paths differently.
func TestDotBatchSplitInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{0, 1, 2, 3, 4, 5, 7, 8, 10, 11, 16, 19} {
		const rows = 23
		q := randVec(rng, k)
		block := randVec(rng, rows*k)
		want := make([]float64, rows)
		DotBatch(want, block, q)
		q32 := randVec32(rng, k)
		block32 := randVec32(rng, rows*k)
		want32 := make([]float32, rows)
		DotBatch32(want32, block32, q32)

		// Per-row: single-row batch and Dot must both match exactly.
		for i := 0; i < rows; i++ {
			row := block[i*k : (i+1)*k]
			var one [1]float64
			DotBatch(one[:], row, q)
			if one[0] != want[i] {
				t.Fatalf("k=%d row %d: single-row batch %v != full batch %v", k, i, one[0], want[i])
			}
			if got := Dot(row, q); got != want[i] {
				t.Fatalf("k=%d row %d: Dot %v != batch %v", k, i, got, want[i])
			}
			row32 := block32[i*k : (i+1)*k]
			var one32 [1]float32
			DotBatch32(one32[:], row32, q32)
			if one32[0] != want32[i] {
				t.Fatalf("k=%d row %d: single-row batch32 %v != full batch32 %v", k, i, one32[0], want32[i])
			}
			if got := Dot32(row32, q32); got != want32[i] {
				t.Fatalf("k=%d row %d: Dot32 %v != batch32 %v", k, i, got, want32[i])
			}
		}

		// Every two-way split of the block.
		got := make([]float64, rows)
		got32 := make([]float32, rows)
		for cut := 0; cut <= rows; cut++ {
			DotBatch(got[:cut], block[:cut*k], q)
			DotBatch(got[cut:], block[cut*k:], q)
			DotBatch32(got32[:cut], block32[:cut*k], q32)
			DotBatch32(got32[cut:], block32[cut*k:], q32)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("k=%d cut=%d row %d: split %v != full %v", k, cut, i, got[i], want[i])
				}
				if got32[i] != want32[i] {
					t.Fatalf("k=%d cut=%d row %d: split32 %v != full32 %v", k, cut, i, got32[i], want32[i])
				}
			}
		}
	}
}

// TestSIMDAgreesWithPortable compares the dispatched kernels against
// the portable Go loops within the reassociation ULP envelope — the
// asm-vs-scalar pin the fuzzer also enforces, run deterministically
// over a grid of shapes. Skipped when no SIMD kernel is active (noasm
// builds, unsupported CPUs) since both sides would be the same code.
func TestSIMDAgreesWithPortable(t *testing.T) {
	if SIMD() == "" {
		t.Skip("no SIMD kernel active")
	}
	t.Logf("active kernel set: %s", SIMD())
	rng := rand.New(rand.NewSource(13))
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 17, 31, 64} {
		for _, rows := range []int{1, 2, 3, 4, 5, 8, 17} {
			q := randVec(rng, k)
			block := randVec(rng, rows*k)
			dst := make([]float64, rows)
			DotBatch(dst, block, q)
			for i := 0; i < rows; i++ {
				row := block[i*k : (i+1)*k]
				want := dot4(row, q)
				if diff := math.Abs(dst[i] - want); diff > ulpBound(row, q) {
					t.Fatalf("k=%d rows=%d row %d: simd %g vs portable %g diff %g", k, rows, i, dst[i], want, diff)
				}
			}
			q32 := randVec32(rng, k)
			block32 := randVec32(rng, rows*k)
			dst32 := make([]float32, rows)
			DotBatch32(dst32, block32, q32)
			for i := 0; i < rows; i++ {
				row := block32[i*k : (i+1)*k]
				want := float64(dot4_32(row, q32))
				if diff := math.Abs(float64(dst32[i]) - want); diff > ulpBound32(row, q32) {
					t.Fatalf("k=%d rows=%d row %d: simd32 %g vs portable32 %g diff %g", k, rows, i, dst32[i], want, diff)
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Paired-interleaved kernel benchmarks (ISSUE 8 satellite): scalar,
// SIMD float64, and SIMD float32 are sampled in ONE timing loop so
// single-core CI drift cannot fake a speedup — the same discipline as
// PR 6's gateway benches. ns/op covers one scalar + one dispatched f64
// + one f32 pass; the per-arm p50s and the headline speedups ride along
// as custom metrics.

var sink32 float32

// dotBatchPortable is the scalar reference arm: the portable loop the
// dispatcher would run under -tags noasm, callable even when SIMD is
// active.
func dotBatchPortable(dst, block, q []float64) {
	k := len(q)
	off := 0
	for i := range dst {
		dst[i] = dot4(block[off:off+k], q)
		off += k
	}
}

func BenchmarkDotBatch(b *testing.B) {
	const rank = 10
	for _, rows := range []int{1000, 10000} {
		rng := rand.New(rand.NewSource(2))
		block := randVec(rng, rows*rank)
		q := randVec(rng, rank)
		block32 := randVec32(rng, rows*rank)
		q32 := randVec32(rng, rank)
		dst := make([]float64, rows)
		dst32 := make([]float32, rows)
		b.Run("paired/rows="+itoa(rows), func(b *testing.B) {
			b.ReportAllocs()
			sl := make([]time.Duration, b.N)
			vl := make([]time.Duration, b.N)
			fl := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				dotBatchPortable(dst, block, q)
				t1 := time.Now()
				DotBatch(dst, block, q)
				t2 := time.Now()
				DotBatch32(dst32, block32, q32)
				sl[i] = t1.Sub(t0)
				vl[i] = t2.Sub(t1)
				fl[i] = time.Since(t2)
			}
			b.StopTimer()
			sinkF = dst[0]
			sink32 = dst32[0]
			s50 := medianDur(sl)
			v50 := medianDur(vl)
			f50 := medianDur(fl)
			b.ReportMetric(float64(s50), "scalar-p50-ns/op")
			b.ReportMetric(float64(v50), "simd-p50-ns/op")
			b.ReportMetric(float64(f50), "f32-p50-ns/op")
			b.ReportMetric(float64(s50)/float64(v50), "simd-speedup-x")
			b.ReportMetric(float64(s50)/float64(f50), "f32-speedup-x")
			b.ReportMetric(rank*8, "f64-bytes/row")
			b.ReportMetric(rank*4, "f32-bytes/row")
		})
	}
}

func medianDur(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
