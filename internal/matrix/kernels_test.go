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

// FuzzDotKernels drives the dispatched kernels (SIMD assembly where the
// CPU qualifies, portable loops otherwise) against the naive loop AND
// against the portable loops with arbitrary bit patterns, bounding both
// differences by the reassociation ULP envelope (finite inputs only;
// NaN/Inf propagate in both and are not comparable). The asm-vs-portable
// comparison is the fuzz pin for the assembly: on SIMD-capable hardware
// dot4/dot4_32/dotPage32 take the pure-Go path while Dot, DotBatch32 and
// DotPage32 take the dispatched one. Single-row DotBatch identity is
// checked on the same inputs, and the page kernel is held to its
// portable loop bit for bit.
func FuzzDotKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(make([]byte, 160))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 16 // 8 bytes per float, two vectors
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
		// The page kernel on one group whose row l is b32 rotated by l:
		// dispatched against portable, every bit.
		page := make([]float32, GroupRows*n)
		for l := 0; l < GroupRows; l++ {
			for j := 0; j < n; j++ {
				page[j*GroupRows+l] = b32[(j+l)%n]
			}
		}
		scores, ref := make([]float32, GroupRows), make([]float32, GroupRows)
		DotPage32(scores, page, a32)
		dotPage32(ref, page, a32)
		for l := range scores {
			if math.Float32bits(scores[l]) != math.Float32bits(ref[l]) {
				t.Fatalf("n=%d row %d: dispatched DotPage32=%g portable=%g", n, l, scores[l], ref[l])
			}
		}
		if diff := math.Abs(float64(scores[0]) - want32); diff > ulpBound32(a32, b32) {
			t.Fatalf("n=%d: DotPage32=%g ref=%g diff=%g bound=%g", n, scores[0], want32, diff, ulpBound32(a32, b32))
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
