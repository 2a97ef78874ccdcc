// Package stats provides the descriptive statistics used across the AMF
// reproduction: means, medians, percentiles (the paper's MRE/NPRE metrics
// are a median and a 90th percentile of relative errors), histograms for
// the distribution figures, and the exponential moving average that drives
// AMF's adaptive weights (paper Eq. 13-14).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the median of xs without modifying it, or 0 for an empty
// slice.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks, without modifying xs. It returns 0
// for an empty slice and panics for p outside [0, 100].
func Percentile(xs []float64, p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %g out of [0,100]", p))
	}
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// PercentileSorted is like Percentile but assumes xs is already sorted
// ascending, avoiding the copy. It panics for p outside [0, 100].
func PercentileSorted(xs []float64, p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %g out of [0,100]", p))
	}
	if len(xs) == 0 {
		return 0
	}
	return percentileSorted(xs, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary bundles the descriptive statistics reported in the paper's data
// statistics table (Fig. 6).
type Summary struct {
	Count  int
	Min    float64
	Max    float64
	Mean   float64
	Median float64
	StdDev float64
	P90    float64
	P99    float64
}

// Summarize computes a Summary of xs. An empty input yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return Summary{
		Count:  len(xs),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Mean:   Mean(xs),
		Median: percentileSorted(sorted, 50),
		StdDev: StdDev(xs),
		P90:    percentileSorted(sorted, 90),
		P99:    percentileSorted(sorted, 99),
	}
}

// Skewness returns the sample skewness (Fisher-Pearson) of xs, or 0 for
// fewer than three samples or zero variance. The paper's QoS marginals are
// "highly skewed" (Fig. 7); the dataset generator tests assert this.
func Skewness(xs []float64) float64 {
	if len(xs) < 3 {
		return 0
	}
	m := Mean(xs)
	sd := StdDev(xs)
	if sd == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		d := (x - m) / sd
		s += d * d * d
	}
	return s / float64(len(xs))
}
