package transform

import (
	"math"
	"math/rand"
	"testing"
)

// powerAlphas are the exponents the split power is held to: the paper's
// α = −0.007 and its inverse, both signs, fractions below, at and above
// one half, integers, and exponents past the squaring loop's range.
var powerAlphas = []float64{
	-0.007, 0.007, 1 / -0.007, 1 / 0.007, 0.3, 0.25, 4, 2.5, -1e3, 1e3, -0.5, 0.5, 1,
}

// powerSpecials are the inputs math.Pow dispatches on, and the extremes.
var powerSpecials = []float64{
	0, math.Copysign(0, -1), 1, -1, -2.5, math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, math.MaxFloat64, 0.5, 2, Eps,
}

// TestExponentMatchesPow: for every α, the split power returns
// math.Pow(x, α) bit for bit — over uniform values, over raw bit patterns
// (subnormals and values that overflow or underflow the result
// included) and over the special inputs Pow dispatches on.
func TestExponentMatchesPow(t *testing.T) {
	draws := 200_000
	if testing.Short() {
		draws = 20_000
	}
	rng := rand.New(rand.NewSource(1))
	for _, alpha := range powerAlphas {
		e := newExponent(alpha)
		check := func(x float64) {
			if got, want := e.pow(x), math.Pow(x, alpha); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("α=%g x=%g (%#x): split power %g (%#x), math.Pow %g (%#x)",
					alpha, x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		for _, x := range powerSpecials {
			check(x)
		}
		for i := 0; i < draws; i++ {
			check(rng.Float64() * 20)
			// A random finite, positive bit pattern: every exponent, the
			// subnormals included.
			if x := math.Float64frombits(rng.Uint64() &^ (1 << 63)); x <= math.MaxFloat64 && x > 0 {
				check(x)
			}
		}
	}
}

// TestPowAllMatchesPow: the batch power — the AVX-512F kernel where the
// CPU has it, the split power for every lane it leaves — returns
// math.Pow(x, α) bit for bit for every α, at every length up to two
// vectors and a tail and at a whole 64, into its own dst and in place.
// The values are uniform draws and raw bit patterns, and each special
// input takes every lane position in turn.
func TestPowAllMatchesPow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64}
	for _, alpha := range powerAlphas {
		e := newExponent(alpha)
		check := func(xs []float64) {
			dst := make([]float64, len(xs))
			e.powAll(dst, xs)
			in := append([]float64(nil), xs...)
			e.powAll(in, in)
			for i, x := range xs {
				want := math.Float64bits(math.Pow(x, alpha))
				if got, gotIn := math.Float64bits(dst[i]), math.Float64bits(in[i]); got != want || gotIn != want {
					t.Fatalf("α=%g n=%d lane %d x=%g (%#x): batch %#x, in place %#x, math.Pow %#x",
						alpha, len(xs), i, x, math.Float64bits(x), got, gotIn, want)
				}
			}
		}
		for _, n := range lengths {
			xs := make([]float64, n)
			for round := 0; round < 20; round++ {
				for i := range xs {
					if xs[i] = rng.Float64() * 20; i%3 == 2 {
						xs[i] = math.Float64frombits(rng.Uint64() &^ (1 << 63))
					}
				}
				check(xs)
			}
			for _, x := range powerSpecials {
				for p := range xs {
					old := xs[p]
					xs[p] = x
					check(xs)
					xs[p] = old
				}
			}
		}
	}
}

// TestTransformerAllMatchesOne: ForwardAll and BackwardAll equal Forward
// and Backward value by value, bit for bit, over lengths past a vector and
// past a 64-value chunk, in place too.
func TestTransformerAllMatchesOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, alpha := range append([]float64{0}, powerAlphas...) {
		tr := MustNew(alpha, 0, 20)
		for _, n := range []int{0, 7, 8, 17, 64, 150} {
			xs, rs := make([]float64, n), make([]float64, n)
			for i := range xs {
				xs[i], rs[i] = rng.Float64()*22-1, rng.Float64()*1.2-0.1
			}
			fwd, back := make([]float64, n), make([]float64, n)
			tr.ForwardAll(fwd, xs)
			tr.BackwardAll(back, rs)
			for i := range xs {
				if got, want := fwd[i], tr.Forward(xs[i]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("α=%g n=%d: ForwardAll[%d] = %g, Forward(%g) = %g", alpha, n, i, got, xs[i], want)
				}
				if got, want := back[i], tr.Backward(rs[i]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("α=%g n=%d: BackwardAll[%d] = %g, Backward(%g) = %g", alpha, n, i, got, rs[i], want)
				}
			}
			tr.ForwardAll(xs, xs)
			tr.BackwardAll(rs, rs)
			for i := range xs {
				if math.Float64bits(xs[i]) != math.Float64bits(fwd[i]) || math.Float64bits(rs[i]) != math.Float64bits(back[i]) {
					t.Fatalf("α=%g n=%d lane %d: in place differs", alpha, n, i)
				}
			}
		}
	}
}

// TestTransformerMatchesPow: Forward and Backward through the split powers
// equal the pipeline written with math.Pow, bit for bit.
func TestTransformerMatchesPow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, alpha := range append([]float64{0}, powerAlphas...) {
		tr := MustNew(alpha, 0, 20)
		// Forward and Backward as they were written with math.Pow.
		ref := func(x float64) float64 {
			r := (BoxCox(tr.Clamp(x), alpha) - tr.lo) / (tr.hi - tr.lo)
			if r < Eps {
				r = Eps
			}
			if r > 1 {
				r = 1
			}
			return r
		}
		refBack := func(r float64) float64 {
			if r < 0 {
				r = 0
			}
			if r > 1 {
				r = 1
			}
			y := tr.lo + r*(tr.hi-tr.lo)
			if alpha == 0 {
				return tr.Clamp(math.Exp(y))
			}
			base := alpha*y + 1
			if base < Eps {
				base = Eps
			}
			return tr.Clamp(math.Pow(base, 1/alpha))
		}
		for i := 0; i < 20_000; i++ {
			x, r := rng.Float64()*22-1, rng.Float64()*1.2-0.1
			if got, want := tr.Forward(x), ref(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("α=%g: Forward(%g) = %g, want %g", alpha, x, got, want)
			}
			if got, want := tr.Backward(r), refBack(r); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("α=%g: Backward(%g) = %g, want %g", alpha, r, got, want)
			}
		}
	}
}

// powerSink keeps the benchmarked powers from being optimised away.
var powerSink float64

// BenchmarkPower prices one power at the paper's α and its inverse,
// split once against math.Pow, and the batch path the model takes, in
// 64-value batches (ns/value; batch rows run the AVX-512F kernel where
// the CPU has it). Each draws its x from what the transform serves at
// α = −0.007 over [0, 20]: the forward power a raw value in (0, 20], the
// inverse the base α·y + 1 of [0.979, 1.102].
func BenchmarkPower(b *testing.B) {
	xs := make([]float64, 1024)
	bases := make([]float64, 1024)
	rng := rand.New(rand.NewSource(3))
	for i := range xs {
		xs[i] = 0.01 + rng.Float64()*19
		bases[i] = 0.979 + rng.Float64()*(1.102-0.979)
	}
	for _, alpha := range []float64{-0.007, 1 / -0.007} {
		e := newExponent(alpha)
		in := xs
		if math.Abs(alpha) > 1 {
			in = bases
		}
		b.Run("math.Pow/"+expName(alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				powerSink += math.Pow(in[i&1023], alpha)
			}
		})
		b.Run("split/"+expName(alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				powerSink += e.pow(in[i&1023])
			}
		})
		b.Run("batch64/"+expName(alpha), func(b *testing.B) {
			var dst [64]float64
			for i := 0; i < b.N; i++ {
				off := i * 64 & 1023
				e.powAll(dst[:], in[off:off+64])
			}
			powerSink += dst[0]
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(64*b.N), "ns/value")
		})
	}
}

func expName(alpha float64) string {
	if math.Abs(alpha) < 1 {
		return "alpha"
	}
	return "inverse"
}
