package workload

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
		total += len(Arrivals(rng, rate, time.Hour))
	}
	mean := float64(total) / trials
	// Poisson(50): mean 50, sd ~7.1; the trial mean has sd ~1.1.
	if math.Abs(mean-rate) > 5 {
		t.Fatalf("mean arrivals %.1f, want ≈ %.0f", mean, rate)
	}
}

func TestArrivalsSortedWithinHorizon(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	times := Arrivals(rng, 20, time.Minute)
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
	if got := Arrivals(rng, 0, time.Hour); got != nil {
		t.Fatal("zero rate should yield no events")
	}
	if got := Arrivals(rng, 5, 0); got != nil {
		t.Fatal("zero horizon should yield no events")
	}
}

func TestPoissonCountMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const mean = 3.5
	var sum, sumSq float64
	const n = 20000
	for i := 0; i < n; i++ {
		k := float64(PoissonCount(rng, mean))
		sum += k
		sumSq += k * k
	}
	m := sum / n
	v := sumSq/n - m*m
	if math.Abs(m-mean) > 0.1 {
		t.Fatalf("mean = %.3f, want ≈ %.1f", m, mean)
	}
	// Poisson variance equals the mean.
	if math.Abs(v-mean) > 0.2 {
		t.Fatalf("variance = %.3f, want ≈ %.1f", v, mean)
	}
	if PoissonCount(rng, 0) != 0 {
		t.Fatal("zero mean should give zero count")
	}
}

func TestTraceValidation(t *testing.T) {
	cases := map[string]TraceOptions{
		"users":   {Horizon: time.Hour, MeanRate: 1},
		"horizon": {Users: 2, MeanRate: 1},
		"rate":    {Users: 2, Horizon: time.Hour},
		"sigma":   {Users: 2, Horizon: time.Hour, MeanRate: 1, RateSigma: -1},
	}
	for name, opts := range cases {
		if _, err := Trace(opts); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestTraceMergedAndOrdered(t *testing.T) {
	events, err := Trace(TraceOptions{Users: 10, Horizon: time.Hour, MeanRate: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
	usersSeen := map[int]bool{}
	for i, e := range events {
		if i > 0 && e.Time < events[i-1].Time {
			t.Fatal("events must be time-ordered")
		}
		if e.User < 0 || e.User >= 10 {
			t.Fatalf("event user %d out of range", e.User)
		}
		usersSeen[e.User] = true
	}
	if len(usersSeen) < 8 {
		t.Fatalf("only %d of 10 users produced events at rate 30", len(usersSeen))
	}
}

func TestTraceHeterogeneousRatesSpread(t *testing.T) {
	events, err := Trace(TraceOptions{Users: 30, Horizon: time.Hour, MeanRate: 40, RateSigma: 1.2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	perUser := map[int]int{}
	for _, e := range events {
		perUser[e.User]++
	}
	min, max := math.MaxInt, 0
	for u := 0; u < 30; u++ {
		c := perUser[u]
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	// With sigma 1.2 the busiest user should far outpace the quietest.
	if max < 3*(min+1) {
		t.Fatalf("heterogeneity too weak: min=%d max=%d", min, max)
	}
}

func TestTraceFlashCrowd(t *testing.T) {
	base := TraceOptions{Users: 20, Horizon: time.Hour, MeanRate: 30, Seed: 7}
	flash := base
	flash.FlashStart = 20 * time.Minute
	flash.FlashEnd = 30 * time.Minute
	flash.FlashFactor = 6

	quiet, err := Trace(base)
	if err != nil {
		t.Fatal(err)
	}
	surged, err := Trace(flash)
	if err != nil {
		t.Fatal(err)
	}
	inFlash := func(events []Event) (n int) {
		for _, e := range events {
			if e.Time >= flash.FlashStart && e.Time < flash.FlashEnd {
				n++
			}
		}
		return n
	}
	quietWindow, surgeWindow := inFlash(quiet), inFlash(surged)
	if surgeWindow < 2*quietWindow {
		t.Fatalf("flash crowd too weak: %d vs %d baseline", surgeWindow, quietWindow)
	}
	// Outside the window the two traces should have similar volume.
	quietOut := len(quiet) - quietWindow
	surgeOut := len(surged) - surgeWindow
	if surgeOut < quietOut/2 || surgeOut > quietOut*2 {
		t.Fatalf("off-window volume distorted: %d vs %d", surgeOut, quietOut)
	}
}

func TestTraceDeterministic(t *testing.T) {
	opts := TraceOptions{Users: 5, Horizon: time.Minute, MeanRate: 10, Seed: 9}
	a, _ := Trace(opts)
	b, _ := Trace(opts)
	if len(a) != len(b) {
		t.Fatal("same seed, different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different events")
		}
	}
}
