package obs

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free log-bucketed histogram for positive values
// (latencies in seconds, relative errors, queue depths...). It is distinct
// from internal/stats.Histogram, the fixed-width single-threaded histogram
// the evaluation harness uses to reproduce the paper's figures: this one
// is built for the serving hot path.
//
// Buckets are base-2 octaves split into sub power-of-two sub-buckets, so
// relative bucket resolution is 1/sub (sub=8 → ≤12.5% quantile error from
// bucketing alone). Observe computes the bucket index from the IEEE-754
// bit pattern of the value — exponent bits select the octave, the top
// mantissa bits select the sub-bucket — which costs a few integer ops and
// no floating-point math, then performs two atomic adds plus one atomic
// float accumulate for the sum. There is no lock anywhere; readers
// (Quantile, exposition) scan the same atomic cells while writers record.
//
// Values below the range are clamped into the first bucket; values at or
// above the top bound (and NaN/±Inf) land in the overflow bucket, which is
// exposed only through the +Inf series — mirroring how the paper's Fig. 7
// "cuts off" response times beyond 10s while still accounting for them.
type Histogram struct {
	min, max float64
	minExp   int // octave (base-2 exponent) of the first bucket
	maxExp   int // octave of the last bucket
	sub      int // sub-buckets per octave, power of two
	subShift uint
	subMask  uint64

	buckets  []atomic.Int64
	overflow atomic.Int64
	count    atomic.Int64
	sum      atomicFloat
}

// NewHistogram creates a histogram covering [min, max) with sub
// sub-buckets per base-2 octave. min must be positive, max > min, and sub
// a power of two in [1, 256]. The actual covered range is widened to whole
// octaves: [2^⌊log2 min⌋, 2^(⌊log2 max⌋+1)).
func NewHistogram(min, max float64, sub int) *Histogram {
	if !(min > 0) || !(max > min) {
		panic(fmt.Sprintf("obs: histogram needs 0 < min < max, got [%g, %g)", min, max))
	}
	if sub < 1 || sub > 256 || sub&(sub-1) != 0 {
		panic(fmt.Sprintf("obs: sub-buckets must be a power of two in [1,256], got %d", sub))
	}
	h := &Histogram{
		min:    min,
		max:    max,
		minExp: math.Ilogb(min),
		maxExp: math.Ilogb(max),
		sub:    sub,
	}
	subBits := uint(0)
	for 1<<subBits < sub {
		subBits++
	}
	h.subShift = 52 - subBits
	h.subMask = uint64(sub - 1)
	h.buckets = make([]atomic.Int64, (h.maxExp-h.minExp+1)*sub)
	return h
}

// index maps a value to its bucket, or -1 for overflow (too large, NaN,
// ±Inf). Values at or below the range floor map to bucket 0.
func (h *Histogram) index(v float64) int {
	bits := math.Float64bits(v)
	if bits>>63 != 0 { // negative (or -0): clamp to the first bucket
		return 0
	}
	exp := int(bits>>52&0x7ff) - 1023
	switch {
	case exp < h.minExp: // includes +0 and subnormals (exp ≈ -1023)
		return 0
	case exp > h.maxExp: // includes +Inf and NaN (exp = 1024)
		return -1
	}
	sub := int(bits >> h.subShift & h.subMask)
	return (exp-h.minExp)*h.sub + sub
}

// UpperBound returns the upper bound of bucket i (exported for tests and
// exposition): 2^octave · (1 + (s+1)/sub).
func (h *Histogram) UpperBound(i int) float64 {
	oct := h.minExp + i/h.sub
	frac := float64(i%h.sub+1) / float64(h.sub)
	return math.Ldexp(1+frac, oct)
}

// lowerBound returns the lower bound of bucket i.
func (h *Histogram) lowerBound(i int) float64 {
	if i == 0 {
		return math.Ldexp(1, h.minExp)
	}
	return h.UpperBound(i - 1)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.bucket(v)
	h.count.Add(1)
	h.sum.Add(v)
}

// bucket adds one to v's bucket and leaves count and sum to the caller.
func (h *Histogram) bucket(v float64) {
	if i := h.index(v); i >= 0 {
		h.buckets[i].Add(1)
	} else {
		h.overflow.Add(1)
	}
}

// ObserveN records a value n times with one pass — the engine uses it to
// attribute a drained batch's mean per-update latency to every update in
// the batch without paying two clock reads per model update.
func (h *Histogram) ObserveN(v float64, n int64) {
	if n <= 0 {
		return
	}
	if i := h.index(v); i >= 0 {
		h.buckets[i].Add(n)
	} else {
		h.overflow.Add(n)
	}
	h.count.Add(n)
	h.sum.Add(v * float64(n))
}

// ObserveDuration records a latency in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveDurationN records one measured duration with weight n — the
// sampled-timing form: when only every n-th event is measured, the
// sample stands in for n events so bucket counts and the sum still
// approximate the true totals.
func (h *Histogram) ObserveDurationN(d time.Duration, n int64) { h.ObserveN(d.Seconds(), n) }

// Count returns the total number of recorded values.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of recorded values. Because the sum and the buckets
// are separate atomics, Sum may lag Count by in-flight observations; both
// are individually consistent.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// snapshot reads the buckets once, returning cumulative counts per finite
// bucket and the grand total (including overflow). The total is derived
// from the same bucket reads, so cumulative[last] + overflow == total
// always holds — exposition built from one snapshot is internally
// consistent even while writers are recording.
func (h *Histogram) snapshot() (cum []int64, total int64) {
	cum = make([]int64, len(h.buckets))
	run := int64(0)
	for i := range h.buckets {
		run += h.buckets[i].Load()
		cum[i] = run
	}
	return cum, run + h.overflow.Load()
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) with linear interpolation
// inside the containing bucket. It returns 0 for an empty histogram and
// the top bucket bound when the quantile falls into the overflow region.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	cum, total := h.snapshot()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	prev := int64(0)
	for i, c := range cum {
		if float64(c) >= rank && c > prev {
			lo, hi := h.lowerBound(i), h.UpperBound(i)
			inBucket := float64(c - prev)
			frac := (rank - float64(prev)) / inBucket
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(hi-lo)
		}
		prev = c
	}
	return h.UpperBound(len(h.buckets) - 1) // overflow region
}
