// Package workload generates invocation arrival processes for the
// adaptation and prediction-service simulations: Poisson arrivals with
// per-user heterogeneous rates, merged multi-user traces, and flash-crowd
// rate surges. The paper's framework consumes "sequentially observed QoS
// data" (Algorithm 1); this package supplies realistic sequences.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Arrivals returns the event times of a homogeneous Poisson process with
// the given rate (events per unit interval) over [0, horizon), via
// exponential inter-arrival gaps. A non-positive rate yields no events.
func Arrivals(rng *rand.Rand, rate float64, horizon time.Duration) []time.Duration {
	if rate <= 0 || horizon <= 0 {
		return nil
	}
	var out []time.Duration
	t := time.Duration(0)
	for {
		gap := time.Duration(rng.ExpFloat64() / rate * float64(horizon))
		// Guard against zero-duration gaps from extreme draws.
		if gap <= 0 {
			gap = 1
		}
		t += gap
		if t >= horizon {
			return out
		}
		out = append(out, t)
	}
}

// PoissonCount draws a Poisson-distributed count with the given mean
// (Knuth's algorithm; fine for the small means used in simulations).
func PoissonCount(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Event is one invocation arrival of a trace.
type Event struct {
	Time time.Duration
	User int
}

// TraceOptions shapes a multi-user invocation trace.
type TraceOptions struct {
	Users   int
	Horizon time.Duration
	// MeanRate is the average per-user event rate per horizon. Each
	// user's own rate is MeanRate scaled by a log-normal factor with
	// the given RateSigma (0 = homogeneous users).
	MeanRate  float64
	RateSigma float64
	// FlashStart/FlashEnd bound an optional surge window during which
	// every rate is multiplied by FlashFactor (ignored unless
	// FlashFactor > 1 and the window is non-empty).
	FlashStart, FlashEnd time.Duration
	FlashFactor          float64
	Seed                 int64
}

// Validate reports the first problem with the options.
func (o TraceOptions) Validate() error {
	switch {
	case o.Users <= 0:
		return fmt.Errorf("workload: Users must be positive, got %d", o.Users)
	case o.Horizon <= 0:
		return fmt.Errorf("workload: Horizon must be positive, got %v", o.Horizon)
	case o.MeanRate <= 0:
		return fmt.Errorf("workload: MeanRate must be positive, got %g", o.MeanRate)
	case o.RateSigma < 0:
		return fmt.Errorf("workload: RateSigma must be non-negative, got %g", o.RateSigma)
	}
	return nil
}

// Trace generates the merged, time-ordered invocation trace.
func Trace(opts TraceOptions) ([]Event, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	flash := opts.FlashFactor > 1 && opts.FlashEnd > opts.FlashStart
	var out []Event
	for u := 0; u < opts.Users; u++ {
		rate := opts.MeanRate
		if opts.RateSigma > 0 {
			// Log-normal heterogeneity, mean-normalized.
			rate *= math.Exp(opts.RateSigma*rng.NormFloat64() - opts.RateSigma*opts.RateSigma/2)
		}
		times := Arrivals(rng, rate, opts.Horizon)
		if flash {
			// Thin a boosted process: draw extra events inside the
			// window at rate·(factor−1), scaled to the window share.
			windowShare := float64(opts.FlashEnd-opts.FlashStart) / float64(opts.Horizon)
			extra := Arrivals(rng, rate*(opts.FlashFactor-1)*windowShare, opts.Horizon)
			for _, t := range extra {
				// Map extra events uniformly into the surge window.
				frac := float64(t) / float64(opts.Horizon)
				times = append(times, opts.FlashStart+time.Duration(frac*float64(opts.FlashEnd-opts.FlashStart)))
			}
		}
		for _, t := range times {
			out = append(out, Event{Time: t, User: u})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		return out[i].User < out[j].User
	})
	return out, nil
}
