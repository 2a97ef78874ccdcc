package stats

import "fmt"

// EMA is an exponential moving average with smoothing factor β:
//
//	value ← β·x + (1−β)·value
//
// AMF's adaptive weights use a *variant* of this with a per-update
// effective factor β·w (paper Eq. 13-14); that variant is UpdateWeighted,
// and w = 1 gives the plain form.
type EMA struct {
	beta  float64
	value float64
	init  bool
}

// NewEMA creates an EMA with smoothing factor beta in (0, 1].
// It panics for beta outside that range.
func NewEMA(beta float64) *EMA {
	if beta <= 0 || beta > 1 {
		panic(fmt.Sprintf("stats: EMA beta %g out of (0,1]", beta))
	}
	return &EMA{beta: beta}
}

// NewEMAInit creates an EMA seeded with an initial value, as AMF seeds new
// users and services with error 1 (Algorithm 1 line 7).
func NewEMAInit(beta, initial float64) *EMA {
	e := NewEMA(beta)
	e.value = initial
	e.init = true
	return e
}

// UpdateWeighted folds x in with an effective factor beta*w, exactly the
// form of the paper's Eq. 13-14 where w is the adaptive weight of the user
// or service for the current sample:
//
//	e ← (β·w)·x + (1 − β·w)·e
//
// The first update of an unseeded EMA adopts x directly.
func (e *EMA) UpdateWeighted(w, x float64) {
	if !e.init {
		e.value = x
		e.init = true
		return
	}
	bw := e.beta * w
	e.value = bw*x + (1-bw)*e.value
}

// Value returns the current average (0 before any update or seed).
func (e *EMA) Value() float64 { return e.value }
