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

// Record folds one (prior prediction, observed value) pair in. Pairs with
// a non-positive observed value are skipped for the relative metrics,
// matching eval.Compute.
func (t *AccuracyTracker) Record(predicted, observed float64) {
	if !(observed > 0) || math.IsNaN(predicted) {
		t.misses.Add(1)
		return
	}
	rel := math.Abs(predicted-observed) / observed
	t.relErr.Observe(rel)
	t.samples.Add(1)
	for {
		old := t.ema.Load()
		ov := math.Float64frombits(old)
		nv := rel
		if !math.IsNaN(ov) {
			nv = t.beta*rel + (1-t.beta)*ov
		}
		if t.ema.CompareAndSwap(old, math.Float64bits(nv)) {
			return
		}
	}
}

// RecordMiss counts an observation for which no prior prediction existed
// (first sighting of a user or service).
func (t *AccuracyTracker) RecordMiss() { t.misses.Add(1) }

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
