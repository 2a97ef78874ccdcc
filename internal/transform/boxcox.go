// Package transform implements AMF's data transformation pipeline
// (paper Sec. IV-C.1): the Box-Cox power transform that de-skews QoS
// values, the linear normalization into [0,1], the sigmoid link that maps
// latent inner products into [0,1], and their inverses for turning model
// outputs back into QoS predictions.
package transform

import (
	"errors"
	"fmt"
	"math"
)

// Eps is the smallest value fed into the Box-Cox transform and the
// smallest normalized target used in relative-error divisions. The paper
// sets Rmin = 0 for response time, but x^α is singular at 0 for α < 0 and
// the relative-error loss divides by the normalized value, so both are
// clamped away from zero. This guard is design decision #5 in DESIGN.md.
const Eps = 1e-6

// BoxCox applies the one-parameter Box-Cox transform (paper Eq. 3):
//
//	boxcox(x) = (x^α − 1)/α   if α ≠ 0
//	boxcox(x) = log(x)        if α = 0
//
// x must be positive; callers clamp to [Eps, ∞) first (see Transformer).
func BoxCox(x, alpha float64) float64 {
	if alpha == 0 {
		return math.Log(x)
	}
	return (math.Pow(x, alpha) - 1) / alpha
}

// ErrBadRange is returned when a Transformer is configured with
// Rmax <= Rmin.
var ErrBadRange = errors.New("transform: Rmax must exceed Rmin")

// Transformer performs the full forward pipeline
//
//	R  →  clamp to [max(Rmin,Eps), Rmax]  →  Box-Cox(α)  →  linear [0,1]
//
// and the corresponding backward pipeline used to decode predictions.
// The zero value is unusable; construct with New.
type Transformer struct {
	Alpha      float64
	RMin, RMax float64

	lo, hi   float64  // Box-Cox images of the clamped range endpoints
	fwd, inv exponent // α and 1/α (unused when α = 0)
}

// New creates a Transformer for QoS values in [rmin, rmax] with Box-Cox
// parameter alpha. rmin is clamped up to Eps (the paper uses Rmin = 0 for
// response time; see Eps). α = 1 degenerates to plain linear normalization,
// which is exactly the paper's AMF(α=1) ablation.
func New(alpha, rmin, rmax float64) (*Transformer, error) {
	if rmin < Eps {
		rmin = Eps
	}
	if rmax <= rmin {
		return nil, fmt.Errorf("%w: [%g, %g]", ErrBadRange, rmin, rmax)
	}
	t := &Transformer{Alpha: alpha, RMin: rmin, RMax: rmax}
	if alpha != 0 {
		t.fwd, t.inv = newExponent(alpha), newExponent(1/alpha)
	}
	t.lo = BoxCox(rmin, alpha)
	t.hi = BoxCox(rmax, alpha)
	return t, nil
}

// MustNew is New that panics on error, for tests and literals.
func MustNew(alpha, rmin, rmax float64) *Transformer {
	t, err := New(alpha, rmin, rmax)
	if err != nil {
		panic(err)
	}
	return t
}

// Clamp restricts a raw QoS value to the transformer's domain.
func (t *Transformer) Clamp(x float64) float64 {
	if x < t.RMin {
		return t.RMin
	}
	if x > t.RMax {
		return t.RMax
	}
	return x
}

// Forward maps a raw QoS value to a normalized target r in [Eps, 1]
// (paper Eq. 3-4). Values outside [RMin, RMax] are clamped first. The lower
// clamp at Eps keeps the relative-error division r̂/r well defined.
func (t *Transformer) Forward(x float64) float64 {
	x = t.Clamp(x)
	var y float64
	if t.Alpha == 0 {
		y = math.Log(x)
	} else {
		y = (t.fwd.pow(x) - 1) / t.Alpha // BoxCox, with α split once
	}
	r := (y - t.lo) / (t.hi - t.lo)
	if r < Eps {
		r = Eps
	}
	if r > 1 {
		r = 1
	}
	return r
}

// Backward maps a normalized model output in [0, 1] back to a QoS value,
// inverting Eq. 4 then Eq. 3.
func (t *Transformer) Backward(r float64) float64 {
	if r < 0 {
		r = 0
	}
	if r > 1 {
		r = 1
	}
	return t.Clamp(t.boxCoxInverse(t.lo + r*(t.hi-t.lo)))
}

// boxCoxInverse inverts BoxCox at the transformer's α. For α ≠ 0 the
// inverse is (α·y + 1)^(1/α); arguments that would take the base negative
// are clamped to Eps so the inverse stays within the transform's valid
// domain.
func (t *Transformer) boxCoxInverse(y float64) float64 {
	if t.Alpha == 0 {
		return math.Exp(y)
	}
	base := t.Alpha*y + 1
	if base < Eps {
		base = Eps
	}
	return t.inv.pow(base)
}

// Sigmoid is the logistic link g(x) = 1/(1+e^{-x}) mapping latent inner
// products into [0, 1] (paper Sec. IV-C.1). Its derivative, used in the
// SGD updates (paper Eq. 8-9), is g'(x) = g(x)(1−g(x)): callers holding
// g compute it without a second exponential.
func Sigmoid(x float64) float64 {
	// Split by sign for numerical stability at large |x|.
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}
