package core

import (
	"math"

	"github.com/qoslab/amf/internal/matrix"
	"github.com/qoslab/amf/internal/stream"
	"github.com/qoslab/amf/internal/transform"
)

// FitOptions controls Fit's convergence loop.
type FitOptions struct {
	// MaxEpochs bounds the number of replay epochs (each epoch performs
	// one replay update per pooled sample). Zero means the default of 200.
	MaxEpochs int
	// Tol declares convergence when the epoch-over-epoch relative
	// improvement of the training error drops below it. Zero means the
	// default of 1e-3.
	Tol float64
	// MinEpochs prevents premature convergence declarations on the first
	// flat epoch. Zero means the default of 3.
	MinEpochs int
}

func (o FitOptions) withDefaults() FitOptions {
	if o.MaxEpochs == 0 {
		o.MaxEpochs = 200
	}
	if o.Tol == 0 {
		o.Tol = 1e-3
	}
	if o.MinEpochs == 0 {
		o.MinEpochs = 3
	}
	return o
}

// FitResult reports the outcome of a Fit call.
type FitResult struct {
	Epochs     int     // replay epochs performed
	Steps      int     // total replay updates performed
	FinalError float64 // mean training error after the last epoch
	Converged  bool    // whether Tol was reached before MaxEpochs
}

// Fit runs Algorithm 1's inner loop to convergence on the current replay
// pool: repeated random replay updates, declaring convergence when the
// mean training error stops improving. Call after seeding the model with
// Observe/ObserveAll, or again after each batch of new observations.
func (m *Model) Fit(opts FitOptions) FitResult {
	opts = opts.withDefaults()
	var res FitResult
	prev := math.Inf(1)
	for epoch := 0; epoch < opts.MaxEpochs; epoch++ {
		n := m.pool.Len()
		if n == 0 {
			break
		}
		res.Steps += m.ReplaySteps(n)
		res.Epochs++
		cur := m.TrainingError()
		if epoch+1 >= opts.MinEpochs && prev < math.Inf(1) {
			if math.Abs(prev-cur)/math.Max(prev, transform.Eps) < opts.Tol {
				res.FinalError = cur
				res.Converged = true
				return res
			}
		}
		prev = cur
		res.FinalError = cur
	}
	return res
}

// TrainingError returns the mean per-sample error of the model on the
// live samples currently in the replay pool: relative error |r−g|/r under
// the relative loss, absolute |r−g| otherwise. Returns 0 for an empty pool.
func (m *Model) TrainingError() float64 {
	var sum float64
	var n int
	m.forEachLiveSample(func(s stream.Sample) {
		u, okU := m.users.Get(s.User)
		v, okV := m.services.Get(s.Service)
		if !okU || !okV {
			return
		}
		r := m.tr.Forward(s.Value)
		g := transform.Sigmoid(dot(u.vec, v.vec))
		e := math.Abs(r - g)
		if m.cfg.RelativeLoss {
			e /= r
		}
		sum += e
		n++
	})
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// dot delegates to the unrolled matrix kernel so every prediction path in
// core (fit loss, view predicts, ranking) shares one inner-product
// implementation.
func dot(a, b []float64) float64 { return matrix.Dot(a, b) }

// forEachLiveSample visits every live replay sample. It compacts the pool
// first so dead samples are not visited.
func (m *Model) forEachLiveSample(f func(stream.Sample)) {
	m.pool.Compact()
	m.pool.Each(f)
}
