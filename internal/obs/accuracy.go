package obs

import (
	"math"
	"sync/atomic"
)

// AccuracyTracker measures the live accuracy of the serving model, online:
// every incoming QoS observation is compared against the model's *prior*
// prediction for the same (user, service) pair — the prediction the model
// would have served a heartbeat earlier — and the relative error
// |R̂−R|/R is folded into
//
//   - an EMA with factor beta, the same exponential machinery the paper's
//     adaptive weights use per entity (Eq. 13-14), here aggregated over
//     all traffic, and
//   - a log-bucketed Histogram of relative errors, from which the
//     paper's §V metrics are read as quantiles: MRE is the median
//     relative error, NPRE the 90th percentile.
//
// This makes "how accurate is the model right now" a first-class runtime
// gauge rather than an offline evaluation artifact. All methods are safe
// for concurrent use and lock-free.
type AccuracyTracker struct {
	beta    float64
	ema     atomic.Uint64 // float bits; NaN until the first sample
	relErr  *Histogram
	samples atomic.Int64
	misses  atomic.Int64
}

// NewAccuracyTracker creates a tracker with EMA factor beta in (0, 1]
// (the paper uses β = 0.3 for its per-entity trackers; 0 selects that
// default). Relative errors are histogrammed over [1e-6, 1e4) with 16
// sub-buckets per octave (≈6% quantile resolution).
func NewAccuracyTracker(beta float64) *AccuracyTracker {
	if beta == 0 {
		beta = 0.3
	}
	if beta < 0 || beta > 1 {
		panic("obs: accuracy EMA beta out of (0,1]")
	}
	t := &AccuracyTracker{beta: beta, relErr: NewHistogram(1e-6, 1e4, 16)}
	t.ema.Store(math.Float64bits(math.NaN()))
	return t
}

// RecordAll folds a batch of (prior prediction, observed value) pairs in,
// in order. A pair with a NaN prediction (no prior: the first sighting
// of a user or a service) or a non-positive observed value (skipped for
// the relative metrics, matching eval.Compute) is counted as a miss. Each
// scored pair adds one to its histogram bucket; the histogram's count and
// sum, the sample and miss counters and the EMA are each written once per
// batch. The EMA folds the batch's errors in order under one CAS, so it
// ends bit for bit where pair-at-a-time folds would; the histogram sum
// adds the batch's errors first, so it may differ from a running sum in
// the last bits.
func (t *AccuracyTracker) RecordAll(prior, observed []float64) {
	var scored int64
	var sum float64
	for i, p := range prior {
		if rel, ok := relError(p, observed[i]); ok {
			t.relErr.bucket(rel)
			sum += rel
			scored++
		}
	}
	if missed := int64(len(prior)) - scored; missed > 0 {
		t.misses.Add(missed)
	}
	if scored == 0 {
		return
	}
	t.relErr.count.Add(scored)
	t.relErr.sum.Add(sum)
	t.samples.Add(scored)
	for {
		old := t.ema.Load()
		ema := math.Float64frombits(old)
		for i, p := range prior {
			if rel, ok := relError(p, observed[i]); ok {
				if math.IsNaN(ema) {
					ema = rel
				} else {
					ema = t.beta*rel + (1-t.beta)*ema
				}
			}
		}
		if t.ema.CompareAndSwap(old, math.Float64bits(ema)) {
			return
		}
	}
}

// relError is |predicted−observed|/observed, ok false for a pair that
// cannot be scored: no prediction (NaN) or a non-positive observed value.
func relError(predicted, observed float64) (float64, bool) {
	if !(observed > 0) || math.IsNaN(predicted) {
		return 0, false
	}
	return math.Abs(predicted-observed) / observed, true
}

// EMA returns the exponential moving average of the relative error
// (0 before any sample).
func (t *AccuracyTracker) EMA() float64 {
	v := math.Float64frombits(t.ema.Load())
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// MRE returns the live median relative error (paper Eq. 18).
func (t *AccuracyTracker) MRE() float64 { return t.relErr.Quantile(0.5) }

// NPRE returns the live 90th-percentile relative error (paper Eq. 19).
func (t *AccuracyTracker) NPRE() float64 { return t.relErr.Quantile(0.9) }

// Samples returns the number of scored observations.
func (t *AccuracyTracker) Samples() int64 { return t.samples.Load() }

// Misses returns the number of observations that could not be scored
// (no prior prediction, or non-positive ground truth).
func (t *AccuracyTracker) Misses() int64 { return t.misses.Load() }

// Register exposes the tracker's metrics on a registry under the given
// prefix (e.g. "amf_accuracy"):
//
//	<prefix>_mre                 live median relative error
//	<prefix>_npre                live 90th-percentile relative error
//	<prefix>_ema_relative_error  EMA of the relative error
//	<prefix>_relative_error      full error distribution (histogram)
//	<prefix>_samples_total       scored observations
//	<prefix>_unscored_total      observations without a prior prediction
func (t *AccuracyTracker) Register(r *Registry, prefix string) {
	r.GaugeFunc(prefix+"_mre", "Live median relative error of served predictions (paper Eq. 18).", t.MRE)
	r.GaugeFunc(prefix+"_npre", "Live 90th-percentile relative error of served predictions (paper Eq. 19).", t.NPRE)
	r.GaugeFunc(prefix+"_ema_relative_error", "Exponential moving average of the relative prediction error.", t.EMA)
	r.RegisterHistogram(prefix+"_relative_error", "Distribution of relative prediction errors |pred-obs|/obs.", t.relErr)
	r.CounterFunc(prefix+"_samples_total", "Observations scored against a prior prediction.", t.Samples)
	r.CounterFunc(prefix+"_unscored_total", "Observations that could not be scored (no prior prediction).", t.Misses)
}
