package matrix

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// dotNaive is the reference scalar loop the unrolled kernel must agree
// with (Dot's implementation before the ranking fast path).
func dotNaive(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// ulpBound returns an error envelope for comparing two floating-point
// summations of the same n products that differ only in association
// order: c·n·eps·Σ|a_i·b_i|, the standard worst-case bound (with a small
// constant of safety). For well-conditioned inputs this is within a few
// ULPs of the result.
func ulpBound(a, b []float64) float64 {
	var mag float64
	for i := range a {
		mag += math.Abs(a[i] * b[i])
	}
	const eps = 2.220446049250313e-16 // 2^-52
	n := float64(len(a)) + 4
	bound := 4 * n * eps * mag
	if bound < eps {
		bound = eps
	}
	return bound
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestDotMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 0; n <= 67; n++ {
		a, b := randVec(rng, n), randVec(rng, n)
		got, want := Dot(a, b), dotNaive(a, b)
		if diff := math.Abs(got - want); diff > ulpBound(a, b) {
			t.Fatalf("n=%d: Dot=%g naive=%g diff=%g > bound=%g", n, got, want, diff, ulpBound(a, b))
		}
	}
}

func TestDotAMFRanksExact(t *testing.T) {
	// At the configured AMF ranks the entries are O(1/sqrt(rank)); the
	// reassociated sum must stay within the ULP envelope for every rank
	// the model actually runs at.
	rng := rand.New(rand.NewSource(7))
	for _, rank := range []int{8, 10, 16} {
		for trial := 0; trial < 200; trial++ {
			a, b := randVec(rng, rank), randVec(rng, rank)
			scale := 1 / math.Sqrt(float64(rank))
			for i := range a {
				a[i] *= scale
				b[i] *= scale
			}
			got, want := Dot(a, b), dotNaive(a, b)
			if diff := math.Abs(got - want); diff > ulpBound(a, b) {
				t.Fatalf("rank=%d: diff %g exceeds ULP bound %g", rank, diff, ulpBound(a, b))
			}
		}
	}
}

func TestDotPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestDotBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range []struct{ rows, k int }{{0, 5}, {1, 1}, {3, 0}, {7, 10}, {64, 16}, {100, 3}} {
		q := randVec(rng, shape.k)
		block := randVec(rng, shape.rows*shape.k)
		dst := make([]float64, shape.rows)
		for i := range dst {
			dst[i] = math.NaN() // must be overwritten
		}
		DotBatch(dst, block, q)
		for i := 0; i < shape.rows; i++ {
			row := block[i*shape.k : (i+1)*shape.k]
			want := dotNaive(row, q)
			if diff := math.Abs(dst[i] - want); diff > ulpBound(row, q) {
				t.Fatalf("rows=%d k=%d row %d: got %g want %g", shape.rows, shape.k, i, dst[i], want)
			}
		}
	}
}

func TestDotBatchPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DotBatch(make([]float64, 2), make([]float64, 5), make([]float64, 3))
}

// maxFuzzRank caps the rank FuzzDotKernels builds. Sixteen is past the
// rank AMF serves (10) and runs every kernel's loop body twice and each
// tail length (bodies are 4 float64s and 8 float32s wide; the page walks
// step one factor at a time). Past it an input only grows: the fuzzer
// minimizes each new input in time quadratic in its length, and a rank
// of 64 left it minimizing, not fuzzing, for much of a 10 s window.
const maxFuzzRank = 16

// FuzzDotKernels drives the dispatched kernels (SIMD assembly where the
// CPU qualifies, portable loops otherwise) against the naive loop AND
// against the portable loops with arbitrary bit patterns, bounding both
// differences by the reassociation ULP envelope (finite inputs only;
// NaN/Inf propagate in both and are not comparable). The asm-vs-portable
// comparison is the fuzz pin for the assembly: on SIMD-capable hardware
// dot4/dot4_32/walkPages32 take the pure-Go path while Dot, DotBatch32
// and WalkPages32 take the dispatched one. Single-row DotBatch identity
// is checked on the same inputs, and the dispatched page walk and every
// assembly one the CPU can run are held to the portable loop bit for bit
// — where each walk stops, its mask and the scores it stores — over a
// fuzzed page count (1–9), rank (1–maxFuzzRank) and last-page row count
// (1–64), with
// bound picks of the fuzzed value, NaN, ±Inf, ±0 and a key of the shard,
// in both directions.
func FuzzDotKernels(f *testing.F) {
	walks := []namedWalk{{"WalkPages32", WalkPages32}}
	for _, k := range runnablePageKernels(f) {
		walks = append(walks, namedWalk{k.name, k.walkPages})
	}
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, float32(0.5), true, uint8(0), uint8(63), uint8(0))
	f.Add(make([]byte, 160), float32(math.NaN()), false, uint8(8), uint8(0), uint8(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 9, 9, 9, 9, 9, 9, 9, 0xc0}, float32(-1), false, uint8(4), uint8(20), uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, worst float32, lowerIsBetter bool, pageCount, lastRows, bound uint8) {
		n := min(len(data)/16, maxFuzzRank) // 8 bytes per float, two vectors
		if n == 0 {
			return
		}
		a := make([]float64, n)
		b := make([]float64, n)
		a32 := make([]float32, n)
		b32 := make([]float32, n)
		for i := 0; i < n; i++ {
			a[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*16:]))
			b[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*16+8:]))
			// Clamp to a sane magnitude so the products and the bound
			// stay finite; the kernel's arithmetic is identical across
			// magnitudes.
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) || math.Abs(a[i]) > 1e100 {
				a[i] = 1
			}
			if math.IsNaN(b[i]) || math.IsInf(b[i], 0) || math.Abs(b[i]) > 1e100 {
				b[i] = 1
			}
			// The float32 twin squeezes harder: clamp so even n products
			// cannot overflow float32 accumulation.
			a32[i], b32[i] = float32(a[i]), float32(b[i])
			if math.IsInf(float64(a32[i]), 0) || math.Abs(float64(a32[i])) > 1e15 {
				a32[i] = 1
			}
			if math.IsInf(float64(b32[i]), 0) || math.Abs(float64(b32[i])) > 1e15 {
				b32[i] = 1
			}
		}
		want := dotNaive(a, b)
		got := Dot(a, b)
		if diff := math.Abs(got - want); diff > ulpBound(a, b) {
			t.Fatalf("n=%d: Dot=%g naive=%g diff=%g bound=%g", n, got, want, diff, ulpBound(a, b))
		}
		if diff := math.Abs(got - dot4(a, b)); diff > ulpBound(a, b) {
			t.Fatalf("n=%d: dispatched Dot=%g portable=%g diff=%g bound=%g", n, got, dot4(a, b), diff, ulpBound(a, b))
		}
		dst := make([]float64, 1)
		DotBatch(dst, a, b)
		if dst[0] != got {
			t.Fatalf("DotBatch single row %g != Dot %g", dst[0], got)
		}
		dst32 := make([]float32, 1)
		DotBatch32(dst32, a32, b32)
		got32, want32 := dst32[0], dotNaive32Ref(a32, b32)
		if diff := math.Abs(float64(got32) - want32); diff > ulpBound32(a32, b32) {
			t.Fatalf("n=%d: DotBatch32=%g ref=%g diff=%g bound=%g", n, got32, want32, diff, ulpBound32(a32, b32))
		}
		if diff := math.Abs(float64(got32) - float64(dot4_32(a32, b32))); diff > ulpBound32(a32, b32) {
			t.Fatalf("n=%d: dispatched DotBatch32=%g portable=%g diff=%g", n, got32, dot4_32(a32, b32), diff)
		}
		// The page-scan kernel over a shard of 1–9 pages whose row r is
		// b32 rotated by r (row 0 is b32 itself), its last page holding
		// 1–64 rows; the pad lanes hold data, which the mask must hide.
		npages, rows := 1+int(pageCount)%9, 1+int(lastRows)%PageRows
		rows += (npages - 1) * PageRows
		rowMajor := make([]float32, rows*n)
		for r := 0; r < rows; r++ {
			for j := 0; j < n; j++ {
				rowMajor[r*n+j] = b32[(j+r)%n]
			}
		}
		pages, last := testPages(rowMajor, rows, n, b32[0])
		var scores, ref [PageRows]float32
		// Row 0 alone, under a bound every row meets: its score is the dot.
		if i, m := WalkPages32(&scores, &pages[0].vecs, testPageStride, 1, a32, float32(math.NaN()), lowerIsBetter, 1); i != 0 || m != 1 {
			t.Fatalf("n=%d: a NaN bound stopped at (%d, %b), want (0, 1)", n, i, m)
		}
		if diff := math.Abs(float64(scores[0]) - want32); diff > ulpBound32(a32, b32) {
			t.Fatalf("n=%d: WalkPages32=%g ref=%g diff=%g bound=%g", n, scores[0], want32, diff, ulpBound32(a32, b32))
		}
		switch bound {
		case 0: // the fuzzed value
		case 1:
			worst = float32(math.NaN())
		case 2:
			worst = float32(math.Inf(1))
		case 3:
			worst = float32(math.Inf(-1))
		case 4:
			worst = 0
		case 5:
			worst = float32(math.Copysign(0, -1))
		default:
			worst = laneDot(rowMajor[int(bound)%rows*n:][:n], a32)
		}
		for _, w := range walks {
			for from := 0; from < npages; {
				i, m := w.walk(&scores, &pages[from].vecs, testPageStride, npages-from, a32, worst, lowerIsBetter, last)
				wi, wm := walkPages32(&ref, &pages[from].vecs, testPageStride, npages-from, a32, worst, lowerIsBetter, last)
				if i != wi || m != wm {
					t.Fatalf("%s: n=%d pages=%d rows=%d from %d worst=%v lower=%v: (%d, %064b), portable (%d, %064b)", w.name, n, npages, rows, from, worst, lowerIsBetter, i, m, wi, wm)
				}
				if m == 0 {
					break
				}
				for r := range scores {
					if math.Float32bits(scores[r]) != math.Float32bits(ref[r]) {
						t.Fatalf("%s: n=%d pages=%d page %d row %d: %g, portable %g", w.name, n, npages, from+i, r, scores[r], ref[r])
					}
				}
				from += i + 1
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Benchmarks: the dispatched kernel must be no slower than the naive
// loop at the configured AMF ranks (8/10/16). The batch kernels'
// scalar-vs-SIMD-vs-float32 comparison lives in kernels32_test.go as a
// paired-interleaved bench (BenchmarkDotBatch).

var sinkF float64

func benchVecs(n int) ([]float64, []float64) {
	rng := rand.New(rand.NewSource(1))
	return randVec(rng, n), randVec(rng, n)
}

func BenchmarkDot(b *testing.B) {
	for _, rank := range []int{8, 10, 16, 64} {
		a, q := benchVecs(rank)
		b.Run("unrolled/rank="+itoa(rank), func(b *testing.B) {
			b.ReportAllocs()
			var s float64
			for i := 0; i < b.N; i++ {
				s += Dot(a, q)
			}
			sinkF = s
		})
		b.Run("naive/rank="+itoa(rank), func(b *testing.B) {
			b.ReportAllocs()
			var s float64
			for i := 0; i < b.N; i++ {
				s += dotNaive(a, q)
			}
			sinkF = s
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
