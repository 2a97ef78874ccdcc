package stats

import (
	"math"
	"strings"
	"testing"
)

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.ObserveAll([]float64{0, 1.9, 2, 5.5, 9.99})
	want := []int{2, 1, 1, 0, 1}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bin %d = %d, want %d (counts %v)", i, h.Counts[i], w, h.Counts)
		}
	}
	if h.Total() != 5 {
		t.Fatalf("total = %d, want 5", h.Total())
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h := NewHistogram(0, 10, 2)
	h.Observe(-1)
	h.Observe(10) // hi is exclusive
	h.Observe(25)
	if h.Under != 1 || h.Over != 2 {
		t.Fatalf("under=%d over=%d, want 1/2", h.Under, h.Over)
	}
	if h.Total() != 3 {
		t.Fatalf("total = %d, want 3", h.Total())
	}
}

func TestHistogramDensitySums(t *testing.T) {
	h := NewHistogram(0, 4, 4)
	h.ObserveAll([]float64{0.5, 1.5, 2.5, 3.5, 99}) // one over-range
	var sum float64
	for _, d := range h.Density() {
		sum += d
	}
	if math.Abs(sum-0.8) > 1e-12 {
		t.Fatalf("in-range density = %g, want 0.8", sum)
	}
}

func TestHistogramDensityEmpty(t *testing.T) {
	h := NewHistogram(0, 1, 3)
	for _, d := range h.Density() {
		if d != 0 {
			t.Fatal("empty histogram density should be all zeros")
		}
	}
}

func TestHistogramBinGeometry(t *testing.T) {
	h := NewHistogram(2, 12, 5)
	if h.BinWidth() != 2 {
		t.Fatalf("bin width = %g, want 2", h.BinWidth())
	}
	if h.BinCenter(0) != 3 || h.BinCenter(4) != 11 {
		t.Fatalf("bin centers = %g, %g", h.BinCenter(0), h.BinCenter(4))
	}
}

func TestHistogramPanicsOnBadArgs(t *testing.T) {
	for name, f := range map[string]func(){
		"zero bins":  func() { NewHistogram(0, 1, 0) },
		"hi <= lo":   func() { NewHistogram(5, 5, 3) },
		"hi flipped": func() { NewHistogram(5, 1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(0, 2, 2)
	h.ObserveAll([]float64{0.5, 0.5, 1.5, 3})
	out := h.Render(20)
	if !strings.Contains(out, "#") {
		t.Fatal("render should draw bars")
	}
	if !strings.Contains(out, "over-range: 1") {
		t.Fatalf("render should report out-of-range counts, got:\n%s", out)
	}
	if got := h.Render(0); !strings.Contains(got, "#") {
		t.Fatal("non-positive width should fall back to a default")
	}
}

func TestHistogramBoundaryRounding(t *testing.T) {
	// A value infinitesimally below Hi must land in the last bin, not
	// panic or spill over due to float rounding in the index computation.
	h := NewHistogram(0, 1, 10)
	h.Observe(math.Nextafter(1, 0))
	if h.Counts[9] != 1 {
		t.Fatalf("value just below Hi should land in last bin: %v", h.Counts)
	}
}
