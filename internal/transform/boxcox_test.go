package transform

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBoxCoxZeroAlphaIsLog(t *testing.T) {
	for _, x := range []float64{0.1, 1, 2.5, 100} {
		if got, want := BoxCox(x, 0), math.Log(x); math.Abs(got-want) > 1e-12 {
			t.Fatalf("boxcox(%g, 0) = %g, want log = %g", x, got, want)
		}
	}
}

func TestBoxCoxAlphaOneIsShiftedIdentity(t *testing.T) {
	// (x^1 - 1)/1 = x - 1: with α=1 the transform is affine, which the
	// paper notes reduces the pipeline to linear normalization.
	for _, x := range []float64{0.5, 1, 7} {
		if got := BoxCox(x, 1); math.Abs(got-(x-1)) > 1e-12 {
			t.Fatalf("boxcox(%g, 1) = %g, want %g", x, got, x-1)
		}
	}
}

func TestBoxCoxContinuityAtAlphaZero(t *testing.T) {
	// The power branch must approach the log branch as α → 0.
	for _, x := range []float64{0.2, 1.7, 42} {
		lim := BoxCox(x, 1e-9)
		if math.Abs(lim-math.Log(x)) > 1e-6 {
			t.Fatalf("boxcox(%g, 1e-9) = %g, want ≈ log = %g", x, lim, math.Log(x))
		}
	}
}

func TestBoxCoxInverseRoundTrip(t *testing.T) {
	for _, alpha := range []float64{-0.5, -0.05, -0.007, 0, 0.3, 1, 2} {
		for _, x := range []float64{0.001, 0.5, 1, 3, 19.9} {
			y := BoxCox(x, alpha)
			back := BoxCoxInverse(y, alpha)
			if math.Abs(back-x) > 1e-8*(1+x) {
				t.Fatalf("alpha=%g x=%g: roundtrip gave %g", alpha, x, back)
			}
		}
	}
}

func TestBoxCoxInverseClampsInvalidBase(t *testing.T) {
	// For α=1, y = −5 would need base −4 < 0; the inverse clamps.
	got := BoxCoxInverse(-5, 1)
	if got <= 0 || math.IsNaN(got) {
		t.Fatalf("clamped inverse should stay positive, got %g", got)
	}
}

func TestBoxCoxMonotoneProperty(t *testing.T) {
	// Rank preservation is the property the paper relies on (Sec. IV-C.1).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alpha := rng.Float64()*3 - 1.5
		a := rng.Float64()*20 + Eps
		b := rng.Float64()*20 + Eps
		if a > b {
			a, b = b, a
		}
		if a == b {
			return true
		}
		return BoxCox(a, alpha) <= BoxCox(b, alpha)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewTransformerValidation(t *testing.T) {
	if _, err := New(1, 5, 5); !errors.Is(err, ErrBadRange) {
		t.Fatalf("expected ErrBadRange, got %v", err)
	}
	if _, err := New(1, 10, 2); !errors.Is(err, ErrBadRange) {
		t.Fatalf("expected ErrBadRange for flipped range, got %v", err)
	}
	tr, err := New(-0.007, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if tr.RMin != Eps {
		t.Fatalf("rmin should clamp to Eps, got %g", tr.RMin)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from MustNew on bad range")
		}
	}()
	MustNew(1, 5, 1)
}

func TestForwardRangeEndpoints(t *testing.T) {
	// Paper params: α=−0.007, RT ∈ [0, 20].
	tr := MustNew(-0.007, 0, 20)
	if got := tr.Forward(20); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Forward(RMax) = %g, want 1", got)
	}
	lo := tr.Forward(0)
	if lo < Eps || lo > 2*Eps {
		t.Fatalf("Forward(RMin) = %g, want ≈ Eps", lo)
	}
}

func TestForwardClampsOutOfRange(t *testing.T) {
	tr := MustNew(-0.05, 0, 7000)
	if got := tr.Forward(1e9); got != 1 {
		t.Fatalf("Forward beyond RMax = %g, want 1", got)
	}
	if got := tr.Forward(-3); got > 2*Eps {
		t.Fatalf("Forward below RMin = %g, want ≈ Eps", got)
	}
}

func TestForwardBackwardRoundTrip(t *testing.T) {
	for _, alpha := range []float64{-0.05, -0.007, 0, 1} {
		tr := MustNew(alpha, 0, 20)
		for _, x := range []float64{0.01, 0.5, 1.33, 5, 19} {
			r := tr.Forward(x)
			if r < 0 || r > 1 {
				t.Fatalf("alpha=%g: Forward(%g) = %g outside [0,1]", alpha, x, r)
			}
			back := tr.Backward(r)
			if math.Abs(back-x) > 1e-6*(1+x) {
				t.Fatalf("alpha=%g x=%g: roundtrip gave %g", alpha, x, back)
			}
		}
	}
}

func TestBackwardClampsInput(t *testing.T) {
	tr := MustNew(1, 0, 10)
	if got := tr.Backward(-0.5); got < tr.RMin || got > tr.RMax {
		t.Fatalf("Backward(-0.5) = %g outside range", got)
	}
	if got := tr.Backward(1.5); math.Abs(got-10) > 1e-9 {
		t.Fatalf("Backward(1.5) = %g, want 10", got)
	}
}

func TestForwardMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alpha := rng.Float64()*2 - 1
		tr := MustNew(alpha, 0, 20)
		a := rng.Float64() * 20
		b := rng.Float64() * 20
		if a > b {
			a, b = b, a
		}
		return tr.Forward(a) <= tr.Forward(b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAlphaOneIsLinearNormalization(t *testing.T) {
	// AMF(α=1) ablation: the forward map must be exactly linear in x
	// (up to the Eps clamps).
	tr := MustNew(1, 0, 10)
	x1, x2, x3 := 2.0, 4.0, 6.0
	d1 := tr.Forward(x2) - tr.Forward(x1)
	d2 := tr.Forward(x3) - tr.Forward(x2)
	if math.Abs(d1-d2) > 1e-9 {
		t.Fatalf("α=1 forward is not linear: Δ1=%g Δ2=%g", d1, d2)
	}
}

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0); got != 0.5 {
		t.Fatalf("sigmoid(0) = %g, want 0.5", got)
	}
	if got := Sigmoid(100); math.Abs(got-1) > 1e-12 {
		t.Fatalf("sigmoid(100) = %g, want ≈1", got)
	}
	if got := Sigmoid(-100); got > 1e-12 {
		t.Fatalf("sigmoid(-100) = %g, want ≈0", got)
	}
	// Symmetry: g(-x) = 1 - g(x).
	for _, x := range []float64{0.5, 2, 10} {
		if math.Abs(Sigmoid(-x)-(1-Sigmoid(x))) > 1e-12 {
			t.Fatalf("sigmoid symmetry broken at %g", x)
		}
	}
}

// TestSigmoidPrime holds the identity the model's SGD step relies on:
// g(x)(1−g(x)) is the derivative of Sigmoid.
func TestSigmoidPrime(t *testing.T) {
	prime := func(x float64) float64 {
		g := Sigmoid(x)
		return g * (1 - g)
	}
	if got := prime(0); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("g'(0) = %g, want 0.25", got)
	}
	// Numerical derivative check.
	for _, x := range []float64{-2, -0.3, 0.7, 3} {
		h := 1e-6
		num := (Sigmoid(x+h) - Sigmoid(x-h)) / (2 * h)
		if math.Abs(prime(x)-num) > 1e-6 {
			t.Fatalf("g'(%g) = %g, numeric %g", x, prime(x), num)
		}
	}
}
