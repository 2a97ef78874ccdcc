package stats

import (
	"fmt"
	"strings"
)

// Histogram is a fixed-width-bin histogram over [Lo, Hi). Values outside
// the range are counted in Under/Over rather than dropped, mirroring how
// the paper "cuts off" response times beyond 10s in Fig. 7 while still
// accounting for them.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int
	Over   int
	total  int
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
// It panics if bins <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic(fmt.Sprintf("stats: histogram needs bins > 0, got %d", bins))
	}
	if hi <= lo {
		panic(fmt.Sprintf("stats: histogram needs hi > lo, got [%g, %g)", lo, hi))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Observe adds one value.
func (h *Histogram) Observe(x float64) {
	h.total++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
		if i == len(h.Counts) { // guard against float round-up at Hi-ε
			i--
		}
		h.Counts[i]++
	}
}

// ObserveAll adds every value in xs.
func (h *Histogram) ObserveAll(xs []float64) {
	for _, x := range xs {
		h.Observe(x)
	}
}

// Total returns the number of observed values, including out-of-range ones.
func (h *Histogram) Total() int { return h.total }

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.Counts)) }

// BinCenter returns the center of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// Density returns each bin's share of the total count (summing to <= 1;
// out-of-range observations take the rest). This is the y-axis of the
// paper's distribution figures.
func (h *Histogram) Density() []float64 {
	d := make([]float64, len(h.Counts))
	if h.total == 0 {
		return d
	}
	for i, c := range h.Counts {
		d[i] = float64(c) / float64(h.total)
	}
	return d
}

// Render draws a textual bar chart with the given maximum bar width,
// used by the experiment CLI to display the distribution figures.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 50
	}
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	dens := h.Density()
	for i, c := range h.Counts {
		bar := 0
		if maxC > 0 {
			bar = c * width / maxC
		}
		fmt.Fprintf(&b, "%10.3f | %-*s %6.4f\n", h.BinCenter(i), width, strings.Repeat("#", bar), dens[i])
	}
	if h.Under > 0 || h.Over > 0 {
		fmt.Fprintf(&b, "(under-range: %d, over-range: %d of %d)\n", h.Under, h.Over, h.total)
	}
	return b.String()
}
