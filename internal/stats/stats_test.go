package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("mean = %g, want 2.5", got)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	if Variance([]float64{5}) != 0 {
		t.Fatal("single sample variance should be 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Fatalf("variance = %g, want 4", got)
	}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Fatalf("stddev = %g, want 2", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %g, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median = %g, want 2.5", got)
	}
	if Median(nil) != 0 {
		t.Fatal("empty median should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %g, want 1", got)
	}
	if got := Percentile(xs, 100); got != 10 {
		t.Fatalf("p100 = %g, want 10", got)
	}
	if got := Percentile(xs, 90); !almostEq(got, 9.1, 1e-12) {
		t.Fatalf("p90 = %g, want 9.1", got)
	}
	// Input must not be mutated.
	orig := []float64{3, 1, 2}
	Percentile(orig, 50)
	if orig[0] != 3 || orig[1] != 1 || orig[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentileSingleValue(t *testing.T) {
	if got := Percentile([]float64{7}, 33); got != 7 {
		t.Fatalf("single-sample percentile = %g, want 7", got)
	}
}

func TestPercentilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p > 100")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestPercentileSortedMatchesPercentile(t *testing.T) {
	xs := []float64{5, 3, 8, 1, 9, 2}
	sorted := []float64{1, 2, 3, 5, 8, 9}
	for _, p := range []float64{0, 10, 50, 90, 100} {
		if a, b := Percentile(xs, p), PercentileSorted(sorted, p); a != b {
			t.Fatalf("p%g: %g vs %g", p, a, b)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.Median != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if z := Summarize(nil); z.Count != 0 {
		t.Fatalf("empty summary = %+v", z)
	}
}

func TestSkewness(t *testing.T) {
	// Symmetric data: ~0 skewness.
	if got := Skewness([]float64{1, 2, 3, 4, 5}); !almostEq(got, 0, 1e-12) {
		t.Fatalf("symmetric skewness = %g, want 0", got)
	}
	// Right-skewed data: positive skewness. This is the shape of the
	// paper's QoS marginals (Fig. 7).
	right := []float64{1, 1, 1, 1, 2, 2, 3, 10, 50}
	if got := Skewness(right); got <= 0 {
		t.Fatalf("right-skewed data gave skewness %g", got)
	}
	if Skewness([]float64{1, 2}) != 0 {
		t.Fatal("too-few samples should give 0")
	}
	if Skewness([]float64{2, 2, 2, 2}) != 0 {
		t.Fatal("zero-variance data should give 0")
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := Percentile(xs, p)
			if v < prev-1e-12 {
				return false
			}
			if v < slices.Min(xs)-1e-12 || v > slices.Max(xs)+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean lies within [min, max].
func TestMeanBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*200 - 100
		}
		m := Mean(xs)
		return m >= slices.Min(xs)-1e-9 && m <= slices.Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
