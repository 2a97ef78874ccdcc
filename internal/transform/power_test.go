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

// TestExponentMatchesPow: for every α, the split power returns
// math.Pow(x, α) bit for bit — over uniform values, over raw bit patterns
// (subnormals and values that overflow or underflow the result
// included) and over the special inputs Pow dispatches on.
func TestExponentMatchesPow(t *testing.T) {
	draws := 200_000
	if testing.Short() {
		draws = 20_000
	}
	specials := []float64{
		0, math.Copysign(0, -1), 1, -1, -2.5, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, math.MaxFloat64, 0.5, 2, Eps,
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
		for _, x := range specials {
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
// split once against math.Pow.
func BenchmarkPower(b *testing.B) {
	xs := make([]float64, 1024)
	rng := rand.New(rand.NewSource(3))
	for i := range xs {
		xs[i] = 0.01 + rng.Float64()*19
	}
	for _, alpha := range []float64{-0.007, 1 / -0.007} {
		e := newExponent(alpha)
		b.Run("math.Pow/"+expName(alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				powerSink += math.Pow(xs[i&1023], alpha)
			}
		})
		b.Run("split/"+expName(alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				powerSink += e.pow(xs[i&1023])
			}
		})
	}
}

func expName(alpha float64) string {
	if math.Abs(alpha) < 1 {
		return "alpha"
	}
	return "inverse"
}
