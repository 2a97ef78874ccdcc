package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestHistogramBoundsMonotonic(t *testing.T) {
	h := NewHistogram(1e-9, 60, 8)
	prev := math.Inf(-1)
	for i := 0; i < len(h.buckets); i++ {
		b := h.UpperBound(i)
		if b <= prev {
			t.Fatalf("bucket %d bound %g not above previous %g", i, b, prev)
		}
		prev = b
	}
	if top := h.UpperBound(len(h.buckets) - 1); top < 60 {
		t.Fatalf("top bound %g does not cover max 60", top)
	}
}

func TestHistogramIndexBrackets(t *testing.T) {
	h := NewHistogram(1e-9, 60, 8)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		v := math.Exp(rng.Float64()*math.Log(6e10)) * 1e-9 // log-uniform over range
		idx := h.index(v)
		if idx < 0 {
			if v < h.UpperBound(len(h.buckets)-1) {
				t.Fatalf("value %g overflowed below top bound", v)
			}
			continue
		}
		if v >= h.UpperBound(idx) {
			t.Fatalf("value %g above its bucket bound %g (bucket %d)", v, h.UpperBound(idx), idx)
		}
		if idx > 0 && v < h.lowerBound(idx) {
			t.Fatalf("value %g below its bucket lower bound %g (bucket %d)", v, h.lowerBound(idx), idx)
		}
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	h := NewHistogram(1e-9, 60, 8)
	for _, v := range []float64{0, -1, math.SmallestNonzeroFloat64, 1e-12} {
		if got := h.index(v); got != 0 {
			t.Errorf("index(%g) = %d, want 0 (clamp)", v, got)
		}
	}
	for _, v := range []float64{1e6, math.Inf(1), math.NaN()} {
		if got := h.index(v); got != -1 {
			t.Errorf("index(%g) = %d, want -1 (overflow)", v, got)
		}
	}
	h.Observe(math.Inf(1))
	if h.Count() != 1 {
		t.Fatalf("overflow observation not counted")
	}
}

// quantileCase checks estimated quantiles against the empirical quantiles
// of the same draw within the histogram's bucketing resolution.
func quantileCase(t *testing.T, name string, draw func(*rand.Rand) float64, tol float64) {
	t.Helper()
	h := NewHistogram(1e-9, 1e6, 16)
	rng := rand.New(rand.NewSource(42))
	const n = 200000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = draw(rng)
		h.Observe(vals[i])
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		want := vals[int(q*float64(n-1))]
		got := h.Quantile(q)
		if relDiff(got, want) > tol {
			t.Errorf("%s: q%g = %g, want ≈ %g (rel diff %.3f > %.3f)",
				name, q, got, want, relDiff(got, want), tol)
		}
	}
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// 16 sub-buckets per octave → ≤ 1/16 relative bucket width; allow a
	// little extra for interpolation and sampling noise.
	const tol = 0.10
	quantileCase(t, "uniform", func(r *rand.Rand) float64 { return r.Float64() }, tol)
	quantileCase(t, "exponential", func(r *rand.Rand) float64 { return r.ExpFloat64() * 0.01 }, tol)
	quantileCase(t, "lognormal", func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64()*2 - 5) }, tol)
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram(1e-9, 60, 8)
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", got)
	}
}

func TestHistogramObserveN(t *testing.T) {
	a := NewHistogram(1e-3, 1e3, 8)
	b := NewHistogram(1e-3, 1e3, 8)
	for i := 0; i < 100; i++ {
		v := 0.5 + float64(i)*0.01
		a.Observe(v)
		b.ObserveN(v, 1)
	}
	b.ObserveN(2.5, 7)
	for i := 0; i < 7; i++ {
		a.Observe(2.5)
	}
	if a.Count() != b.Count() {
		t.Fatalf("counts differ: %d vs %d", a.Count(), b.Count())
	}
	if relDiff(a.Sum(), b.Sum()) > 1e-12 {
		t.Fatalf("sums differ: %g vs %g", a.Sum(), b.Sum())
	}
	if qa, qb := a.Quantile(0.5), b.Quantile(0.5); qa != qb {
		t.Fatalf("medians differ: %g vs %g", qa, qb)
	}
	b.ObserveN(1, 0)
	b.ObserveN(1, -3)
	if a.Count() != b.Count() {
		t.Fatalf("ObserveN with n<=0 changed the count")
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram(1e-9, 60, 8)
	h.ObserveDuration(10 * time.Millisecond)
	q := h.Quantile(0.5)
	if q < 0.005 || q > 0.02 {
		t.Fatalf("10ms landed at %gs", q)
	}
}

func TestHistogramPanicsOnBadConfig(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHistogram(0, 1, 8) },
		func() { NewHistogram(1, 1, 8) },
		func() { NewHistogram(1e-9, 60, 3) },
		func() { NewHistogram(1e-9, 60, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad histogram config did not panic")
				}
			}()
			fn()
		}()
	}
}
