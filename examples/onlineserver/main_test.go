package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestArrivalsCountMatchesRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const rate = 50.0
	var total int
	const trials = 40
	for i := 0; i < trials; i++ {
		total += len(arrivals(rng, rate, time.Hour))
	}
	mean := float64(total) / trials
	// Poisson(50): mean 50, sd ~7.1; the trial mean has sd ~1.1.
	if math.Abs(mean-rate) > 5 {
		t.Fatalf("mean arrivals %.1f, want ≈ %.0f", mean, rate)
	}
}

func TestArrivalsSortedWithinHorizon(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	times := arrivals(rng, 20, time.Minute)
	for i, ts := range times {
		if ts < 0 || ts >= time.Minute {
			t.Fatalf("event %d at %v outside horizon", i, ts)
		}
		if i > 0 && ts < times[i-1] {
			t.Fatal("arrivals must be non-decreasing")
		}
	}
}

func TestArrivalsEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if got := arrivals(rng, 0, time.Hour); got != nil {
		t.Fatal("zero rate should yield no events")
	}
	if got := arrivals(rng, 5, 0); got != nil {
		t.Fatal("zero horizon should yield no events")
	}
}
