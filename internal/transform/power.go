package transform

import (
	"math"
	"math/bits"

	"github.com/qoslab/amf/internal/matrix"
)

// exponent raises numbers to one fixed power y. pow runs math.Pow's own
// operations in its own order, so every result is bit for bit
// math.Pow(x, y); what it saves is the per-call work that depends on y
// alone — the special cases Pow dispatches on and the math.Modf split of
// |y| — which is done once, here. The Transformer raises every value it
// maps to α or 1/α, so that work was paid on every prediction.
type exponent struct {
	y  float64
	yi int64   // |y|'s integer part, plus one when yf was folded
	yf float64 // |y|'s fraction, folded into (−0.5, 0.5] as Pow folds it
	// general routes every x to math.Pow: y is one Pow answers by a special
	// case (0, 1, ±0.5, NaN, ±Inf) or too large for its integer loop.
	general bool
}

func newExponent(y float64) exponent {
	e := exponent{y: y}
	yi, yf := math.Modf(math.Abs(y))
	if y == 0 || y == 1 || y == 0.5 || y == -0.5 || math.IsNaN(y) || math.IsInf(y, 0) || yi >= 1<<63 {
		e.general = true
		return e
	}
	if yf > 0.5 {
		yf--
		yi++
	}
	e.yi, e.yf = int64(yi), yf
	return e
}

// pow returns math.Pow(x, e.y). Only a finite x > 0 other than 1 takes the
// split path; every other x is one of Pow's special cases and goes to it.
func (e *exponent) pow(x float64) float64 {
	if e.general || !(x > 0) || x == 1 || x > math.MaxFloat64 {
		return math.Pow(x, e.y)
	}
	// From here on this is math.Pow's general case (math/pow.go) with y's
	// split hoisted: ans = a1 · 2^ae, x^yf first, then x^yi by successive
	// squarings.
	a1, ae := 1.0, 0
	if e.yf != 0 {
		a1 = math.Exp(e.yf * math.Log(x))
	}
	x1, xe := math.Frexp(x)
	for i := e.yi; i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			// The exponent is past what a float64 holds: Ldexp saturates.
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 *= x1
			ae += xe
		}
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	if e.y < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	return math.Ldexp(a1, ae)
}

// powAll sets dst[i] = e.pow(xs[i]) for every i, bit for bit; dst may
// alias xs. Sixty-four values at a time go to matrix.PowSplit, which
// raises whole vectors of eight in one AVX-512F kernel where the CPU has
// it; pow computes every value the kernel leaves — the tail of each 64,
// the lanes it cannot vouch for, or all of them without the kernel.
func (e *exponent) powAll(dst, xs []float64) {
	dst = dst[:len(xs)]
	if e.general {
		for i, x := range xs {
			dst[i] = math.Pow(x, e.y)
		}
		return
	}
	for len(xs) > 0 {
		n := min(len(xs), 64)
		for rest := matrix.PowSplit(dst[:n], xs[:n], e.yi, e.yf, e.y < 0); rest != 0; rest &= rest - 1 {
			i := bits.TrailingZeros64(rest)
			dst[i] = e.pow(xs[i])
		}
		dst, xs = dst[n:], xs[n:]
	}
}
