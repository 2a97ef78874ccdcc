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

// dimensionMajor lays the row-major block (rows×k) out as DotPage32
// reads it: groups of GroupRows rows, factor j of a group's rows in one
// run of GroupRows floats. rows must be a multiple of GroupRows.
func dimensionMajor(rowMajor []float32, rows, k int) []float32 {
	out := make([]float32, rows*k)
	for r := 0; r < rows; r++ {
		for j := 0; j < k; j++ {
			out[r/GroupRows*GroupRows*k+j*GroupRows+r%GroupRows] = rowMajor[r*k+j]
		}
	}
	return out
}

// laneDot is one row of DotPage32 as a scalar loop in its association —
// the loop core's point reads run — over the row-major copy of the row.
func laneDot(row, q []float32) float32 {
	s := q[0] * row[0]
	for j := 1; j < len(q); j++ {
		s = s + float32(q[j]*row[j])
	}
	return s
}

// TestDotPage32 holds the page kernel to the scalar loop of its stated
// association bit for bit, in every build (the dispatched kernel here is
// the assembly where it is active, the portable loop under noasm), and
// to the float64 reference within the reassociation envelope, over
// ranks 1–17, 31 and 64 and blocks of one group up to more than two
// 64-row pages, one call per page as a view's scan makes them, with the
// last rows zero as a view's partial last page is. The mask it returns
// must be survivorsGo's over the scores it stored, for bounds a compare
// can get wrong — NaN (the heap still filling), ±Inf, ±0 (the pad rows
// tie), a key of the page — and a random one, in both directions.
func TestDotPage32(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 64} {
		for _, rows := range []int{8, 16, 56, 64, 72, 128, 136} {
			q := randVec32(rng, k)
			rowMajor := randVec32(rng, rows*k)
			clear(rowMajor[(rows-3)*k:]) // pad lanes
			block := dimensionMajor(rowMajor, rows, k)
			dst := make([]float32, rows)
			for lo := 0; lo < rows; lo += 64 {
				hi := min(lo+64, rows)
				page := dst[lo:hi]
				key := laneDot(rowMajor[(lo+rng.Intn(hi-lo))*k:][:k], q)
				for _, lower := range []bool{true, false} {
					for _, worst := range []float32{nan, inf, -inf, 0, negZero, key, float32(rng.NormFloat64())} {
						for i := range page {
							page[i] = nan // must be overwritten
						}
						m := DotPage32(page, block[lo*k:hi*k], q, worst, lower)
						if want := survivorsGo(page, worst, lower); m != want {
							t.Fatalf("k=%d rows=%d page at %d lower=%v worst=%v:\n mask     %064b\n portable %064b", k, rows, lo, lower, worst, m, want)
						}
					}
				}
			}
			for r := 0; r < rows; r++ {
				row := rowMajor[r*k : (r+1)*k]
				if want := laneDot(row, q); math.Float32bits(dst[r]) != math.Float32bits(want) {
					t.Fatalf("k=%d rows=%d row %d: page %v, scalar lane loop %v", k, rows, r, dst[r], want)
				}
				if diff := math.Abs(float64(dst[r]) - dotNaive32Ref(row, q)); diff > ulpBound32(row, q) {
					t.Fatalf("k=%d rows=%d row %d: page %v, reference %v", k, rows, r, dst[r], dotNaive32Ref(row, q))
				}
			}
		}
	}
	for _, shape := range []struct{ rows, blockLen, k int }{{7, 7 * 3, 3}, {8, 8*3 - 1, 3}, {12, 12 * 2, 2}, {72, 72 * 2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic on %d rows, block %d, rank %d", shape.rows, shape.blockLen, shape.k)
				}
			}()
			DotPage32(make([]float32, shape.rows), make([]float32, shape.blockLen), make([]float32, shape.k), 0, true)
		}()
	}
}

// TestDotBatchSplitInvariance pins the bit-identity contract from
// kernels.go: a row's score must not depend on which rows share its
// DotBatch call, and Dot is a one-row DotBatch — including groupings
// that land rows in the SIMD kernels' blocked vs remainder paths
// differently.
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
// the portable Go loops — the row-major ones within the reassociation
// ULP envelope, the page kernel bit for bit — the asm-vs-scalar pin the
// fuzzer also enforces, run deterministically over a grid of shapes.
// Skipped when no SIMD kernel is active (noasm builds, unsupported CPUs)
// since both sides would be the same code.
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
	// The page kernel owes the portable loop every bit, not an envelope:
	// both multiply, round, then add, in one order. It is called once per
	// 64-row page, and its mask owes survivorsGo's over the portable
	// scores every bit too.
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 64} {
		for _, rows := range []int{8, 24, 64, 72, 136} {
			q := randVec32(rng, k)
			block := randVec32(rng, rows*k)
			clear(block[(rows-GroupRows)*k+k*GroupRows/2:]) // the last group's later factors zero
			got, want := make([]float32, rows), make([]float32, rows)
			for lo := 0; lo < rows; lo += 64 {
				hi := min(lo+64, rows)
				worst, lower := float32(rng.NormFloat64()), lo%128 == 0
				m := DotPage32(got[lo:hi], block[lo*k:hi*k], q, worst, lower)
				dotPage32(want[lo:hi], block[lo*k:hi*k], q)
				if wantM := survivorsGo(want[lo:hi], worst, lower); m != wantM {
					t.Fatalf("k=%d rows=%d page at %d: simd mask %064b vs portable %064b", k, rows, lo, m, wantM)
				}
			}
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("k=%d rows=%d row %d: simd page %v vs portable page %v", k, rows, i, got[i], want[i])
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Paired-interleaved kernel benchmarks (ISSUE 8 satellite): scalar,
// SIMD float64, SIMD float32 and the page kernel are sampled in ONE
// timing loop so single-core CI drift cannot fake a speedup — the same
// discipline as PR 6's gateway benches. ns/op covers one pass of each;
// the per-arm p50s and the headline speedups ride along as custom
// metrics. page-speedup-x is the row-major float32 kernel's time over
// the page kernel's on the same rows, 64 rows a call.

var (
	sink32 float32
	// nan32 is the bound of a page the benchmark does not filter.
	nan32 = float32(math.NaN())
)

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
		page := dimensionMajor(block32, rows, rank) // rows is a multiple of 8
		dst := make([]float64, rows)
		dst32 := make([]float32, rows)
		b.Run("paired/rows="+itoa(rows), func(b *testing.B) {
			b.ReportAllocs()
			sl := make([]time.Duration, b.N)
			vl := make([]time.Duration, b.N)
			fl := make([]time.Duration, b.N)
			pl := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				dotBatchPortable(dst, block, q)
				t1 := time.Now()
				DotBatch(dst, block, q)
				t2 := time.Now()
				DotBatch32(dst32, block32, q32)
				t3 := time.Now()
				// One call per 64-row page, as a view's scan makes them.
				for lo := 0; lo < rows; lo += 64 {
					hi := min(lo+64, rows)
					DotPage32(dst32[lo:hi], page[lo*rank:hi*rank], q32, nan32, true)
				}
				sl[i] = t1.Sub(t0)
				vl[i] = t2.Sub(t1)
				fl[i] = t3.Sub(t2)
				pl[i] = time.Since(t3)
			}
			b.StopTimer()
			sinkF = dst[0]
			sink32 = dst32[0]
			s50 := medianDur(sl)
			v50 := medianDur(vl)
			f50 := medianDur(fl)
			p50 := medianDur(pl)
			b.ReportMetric(float64(s50), "scalar-p50-ns/op")
			b.ReportMetric(float64(v50), "simd-p50-ns/op")
			b.ReportMetric(float64(f50), "f32-p50-ns/op")
			b.ReportMetric(float64(p50), "page-p50-ns/op")
			b.ReportMetric(float64(s50)/float64(v50), "simd-speedup-x")
			b.ReportMetric(float64(s50)/float64(f50), "f32-speedup-x")
			b.ReportMetric(float64(f50)/float64(p50), "page-speedup-x")
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
