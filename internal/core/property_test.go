package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/qoslab/amf/internal/stream"
)

// Property: after any sequence of observations with in-range values, every
// prediction is finite and inside [0, RMax], and every error tracker is a
// finite positive number. This is the safety contract the prediction
// service relies on.
func TestModelInvariantsUnderRandomStreams(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := rtConfig()
		cfg.Seed = seed
		m := MustNew(cfg)
		users := 1 + rng.Intn(6)
		services := 1 + rng.Intn(8)
		n := 50 + rng.Intn(200)
		for i := 0; i < n; i++ {
			// Heavy-tailed values spanning the full range, including
			// values beyond RMax (clamped by the transform).
			v := math.Exp(rng.NormFloat64()*2 - 0.2)
			m.Observe(stream.Sample{
				Time:    time.Duration(i),
				User:    rng.Intn(users),
				Service: rng.Intn(services),
				Value:   v,
			})
		}
		for i := 0; i < 20; i++ {
			m.ReplaySteps(1)
		}
		for u := 0; u < users; u++ {
			for s := 0; s < services; s++ {
				v, err := m.Predict(u, s)
				if err != nil {
					continue // never co-observed is fine
				}
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > cfg.RMax {
					return false
				}
			}
			if ent, ok := m.users.Get(u); ok {
				if e := ent.err.Value(); math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: Observe increments Updates by exactly one and registers both
// endpoints, for any sample.
func TestObserveAccountingProperty(t *testing.T) {
	f := func(user, service uint8, raw uint16) bool {
		m := MustNew(rtConfig())
		before := m.Updates()
		m.Observe(stream.Sample{
			User:    int(user),
			Service: int(service),
			Value:   float64(raw)/1000 + 0.001,
		})
		return m.Updates() == before+1 &&
			m.KnowsUser(int(user)) && m.KnowsService(int(service)) &&
			m.NumUsers() == 1 && m.NumServices() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshot/restore is lossless for predictions regardless of
// the observation history.
func TestSnapshotRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := rtConfig()
		cfg.Seed = seed
		m := MustNew(cfg)
		for i := 0; i < 60; i++ {
			m.Observe(stream.Sample{
				Time:    time.Duration(i),
				User:    rng.Intn(4),
				Service: rng.Intn(6),
				Value:   0.1 + rng.Float64()*10,
			})
		}
		data, err := m.Snapshot()
		if err != nil {
			return false
		}
		r, err := Restore(data)
		if err != nil {
			return false
		}
		for u := 0; u < 4; u++ {
			for s := 0; s < 6; s++ {
				v1, err1 := m.Predict(u, s)
				v2, err2 := r.Predict(u, s)
				if (err1 == nil) != (err2 == nil) {
					return false
				}
				if err1 == nil && v1 != v2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: with adaptive weights, both weights are in [0,1] and training
// on a pair reduces (or at least does not explode) the tracked errors.
// Verified indirectly: after many updates of a constant-valued pair, both
// trackers fall below their initial value 1.
func TestAdaptiveErrorTrackersConvergeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := rtConfig()
		cfg.Seed = seed
		m := MustNew(cfg)
		value := 0.2 + rng.Float64()*10
		m.Observe(stream.Sample{Time: 1, User: 0, Service: 0, Value: value})
		for i := 0; i < 200; i++ {
			m.ReplaySteps(1)
		}
		u, okU := m.users.Get(0)
		s, okS := m.services.Get(0)
		if !okU || !okS {
			return false
		}
		eu, es := u.err.Value(), s.err.Value()
		return eu < 1 && es < 1 && eu >= 0 && es >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFitOptionsDefaults(t *testing.T) {
	o := FitOptions{}.withDefaults()
	if o.MaxEpochs != 200 || o.Tol != 1e-3 || o.MinEpochs != 3 {
		t.Fatalf("defaults = %+v", o)
	}
	custom := FitOptions{MaxEpochs: 5, Tol: 0.1, MinEpochs: 1}.withDefaults()
	if custom.MaxEpochs != 5 || custom.Tol != 0.1 || custom.MinEpochs != 1 {
		t.Fatalf("custom options overridden: %+v", custom)
	}
}

func TestConfigWithDefaults(t *testing.T) {
	cfg := rtConfig()
	cfg.MaxGradNorm = 0
	m := MustNew(cfg)
	if m.cfg.MaxGradNorm != 1 {
		t.Fatalf("MaxGradNorm default = %g, want 1", m.cfg.MaxGradNorm)
	}
	cfg.MaxGradNorm = 7
	if MustNew(cfg).cfg.MaxGradNorm != 7 {
		t.Fatal("explicit MaxGradNorm should be kept")
	}
}
