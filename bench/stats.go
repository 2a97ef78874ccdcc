package main

import (
	"math"
	"slices"

	"github.com/qoslab/amf/internal/stats"
)

// rank returns the 1-based nearest-rank position of quantile q among n
// sorted samples: the smallest sample with at least a share q at or below it.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	return min(max(r, 1), n)
}

// beyond is how many of n samples lie strictly above the q-quantile's
// rank. A percentile is reported only where this is at least 10.
func beyond(n int, q float64) int { return n - rank(n, q) }

// quantileSorted is the nearest-rank q-quantile of an ascending slice.
func quantileSorted[T any](sorted []T, q float64) T {
	return sorted[rank(len(sorted), q)-1]
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(v, n=4) (the default "exclusive" method), which is
// what the driver computes spreads from. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	const n = 4
	s := slices.Clone(v)
	slices.Sort(s)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, _, q3 := quartiles(v)
	return (q3 - q1) / stats.Median(v)
}
