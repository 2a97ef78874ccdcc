package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEMAFirstUpdateAdopts(t *testing.T) {
	e := NewEMA(0.3)
	if e.init {
		t.Fatal("fresh EMA should be uninitialized")
	}
	e.UpdateWeighted(1, 5)
	if e.Value() != 5 {
		t.Fatalf("first update = %g, want 5", e.Value())
	}
	if !e.init {
		t.Fatal("EMA should report initialized after update")
	}
}

func TestEMAUpdateFormula(t *testing.T) {
	e := NewEMAInit(0.3, 1)
	e.UpdateWeighted(1, 0)
	if got, want := e.Value(), 0.7; math.Abs(got-want) > 1e-12 {
		t.Fatalf("value = %g, want %g", got, want)
	}
}

func TestEMAWeightedFormula(t *testing.T) {
	// Eq. 13: e ← βw·x + (1−βw)·e with β=0.3, w=0.5, e=1, x=0 → 0.85.
	e := NewEMAInit(0.3, 1)
	e.UpdateWeighted(0.5, 0)
	if got, want := e.Value(), 0.85; math.Abs(got-want) > 1e-12 {
		t.Fatalf("value = %g, want %g", got, want)
	}
}

func TestEMAWeightedFirstUpdateAdopts(t *testing.T) {
	e := NewEMA(0.5)
	e.UpdateWeighted(0.1, 3)
	if e.Value() != 3 {
		t.Fatalf("first weighted update = %g, want 3", e.Value())
	}
}

func TestEMAInitSeed(t *testing.T) {
	e := NewEMAInit(0.2, 1)
	if !e.init || e.Value() != 1 {
		t.Fatal("seeded EMA should start at its seed")
	}
}

func TestEMAPanicsOnBadBeta(t *testing.T) {
	for _, beta := range []float64{0, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("beta=%g: expected panic", beta)
				}
			}()
			NewEMA(beta)
		}()
	}
}

func TestEMABetaOneTracksExactly(t *testing.T) {
	e := NewEMA(1)
	for _, x := range []float64{3, 7, 2} {
		e.UpdateWeighted(1, x)
		if e.Value() != x {
			t.Fatalf("beta=1 EMA should track input exactly, got %g want %g", e.Value(), x)
		}
	}
}

func TestEMAConvergesToConstant(t *testing.T) {
	e := NewEMAInit(0.3, 10)
	for i := 0; i < 200; i++ {
		e.UpdateWeighted(1, 2)
	}
	if math.Abs(e.Value()-2) > 1e-9 {
		t.Fatalf("EMA should converge to the constant input, got %g", e.Value())
	}
}

// Property: the EMA value always stays within the convex hull of its seed
// and all observed inputs, for any weights in (0,1].
func TestEMABoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		beta := 0.05 + 0.9*rng.Float64()
		e := NewEMAInit(beta, rng.Float64())
		lo, hi := e.Value(), e.Value()
		for i := 0; i < 50; i++ {
			x := rng.Float64() * 10
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
			if rng.Intn(2) == 0 {
				e.UpdateWeighted(1, x)
			} else {
				e.UpdateWeighted(rng.Float64(), x)
			}
			if e.Value() < lo-1e-9 || e.Value() > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
