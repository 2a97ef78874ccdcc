package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/stream"
)

// rtConfig returns the paper's RT hyperparameters against the RT range.
func rtConfig() Config { return DefaultConfig(-0.007, 0, 20) }

func TestConfigValidate(t *testing.T) {
	if err := rtConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	breakers := map[string]func(*Config){
		"rank":    func(c *Config) { c.Rank = 0 },
		"eta":     func(c *Config) { c.LearnRate = 0 },
		"reg":     func(c *Config) { c.RegUser = -1 },
		"beta lo": func(c *Config) { c.Beta = 0 },
		"beta hi": func(c *Config) { c.Beta = 1.5 },
		"range":   func(c *Config) { c.RMax = c.RMin },
		"maxgrad": func(c *Config) { c.MaxGradNorm = -1 },
		"expiry":  func(c *Config) { c.Expiry = -time.Second },
	}
	for name, breakIt := range breakers {
		c := rtConfig()
		breakIt(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
		if _, err := New(c); err == nil {
			t.Errorf("%s: New should refuse invalid config", name)
		}
	}
}

func TestNewModelEmpty(t *testing.T) {
	m := MustNew(rtConfig())
	if m.NumUsers() != 0 || m.NumServices() != 0 || m.Updates() != 0 {
		t.Fatal("new model should be empty")
	}
	if _, err := m.Predict(0, 0); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("predict on empty model: %v", err)
	}
}

func TestObserveRegistersEntities(t *testing.T) {
	m := MustNew(rtConfig())
	m.Observe(stream.Sample{Time: time.Second, User: 3, Service: 7, Value: 1.2})
	if !m.KnowsUser(3) || !m.KnowsService(7) {
		t.Fatal("observe should register user and service")
	}
	if m.NumUsers() != 1 || m.NumServices() != 1 {
		t.Fatal("counts wrong")
	}
	if m.Updates() != 1 {
		t.Fatalf("updates = %d, want 1", m.Updates())
	}
	if _, err := m.Predict(3, 7); err != nil {
		t.Fatalf("predict after observe: %v", err)
	}
	if _, err := m.Predict(3, 99); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("want ErrUnknownService, got %v", err)
	}
}

func TestNewEntityErrorSeededAtOne(t *testing.T) {
	// Algorithm 1 line 7: e_ui ← 1 for a new user. After the very first
	// update the EMA moves off 1 but stays within (0, 1].
	m := MustNew(rtConfig())
	m.Observe(stream.Sample{User: 0, Service: 0, Value: 1.0})
	u, ok := m.users.Get(0)
	if !ok {
		t.Fatal("user should exist")
	}
	if eu := u.err.Value(); eu <= 0 || eu > 1 {
		t.Fatalf("user error = %g after one update, want in (0,1]", eu)
	}
}

func TestPredictionWithinRange(t *testing.T) {
	m := MustNew(rtConfig())
	for i := 0; i < 10; i++ {
		m.Observe(stream.Sample{User: i % 3, Service: i % 4, Value: float64(i%5) + 0.5})
	}
	for u := 0; u < 3; u++ {
		for s := 0; s < 4; s++ {
			v, err := m.Predict(u, s)
			if err != nil {
				t.Fatal(err)
			}
			if v < 0 || v > 20 || math.IsNaN(v) {
				t.Fatalf("prediction %g outside QoS range", v)
			}
		}
	}
}

// Training on a single repeated sample must drive the prediction to the
// observed value: SGD on one point converges.
func TestConvergesOnSinglePair(t *testing.T) {
	cfg := rtConfig()
	// No regularization: the pure SGD fixed point is then exactly the
	// observed value (with λ>0 the shrinkage bias is amplified by the
	// log-like inverse transform).
	cfg.RegUser, cfg.RegService = 0, 0
	m := MustNew(cfg)
	target := 2.5
	m.Observe(stream.Sample{Time: time.Second, User: 0, Service: 0, Value: target})
	for i := 0; i < 500; i++ {
		if !m.ReplayStep() {
			t.Fatal("replay pool should stay live")
		}
	}
	got, err := m.Predict(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got-target) / target; rel > 0.05 {
		t.Fatalf("prediction %g, want ≈ %g (rel err %.3f)", got, target, rel)
	}
}

// The model must recover a structured (rank-consistent) matrix well enough
// to predict held-out entries: the core collaborative-filtering property.
func TestRecoverStructuredMatrix(t *testing.T) {
	cfg := rtConfig()
	cfg.Rank = 4
	m := MustNew(cfg)

	// Ground truth: value(i,j) = a_i * b_j, a multiplicative structure
	// that a rank-1 log-domain model captures.
	users, services := 12, 20
	a := make([]float64, users)
	b := make([]float64, services)
	for i := range a {
		a[i] = 0.5 + float64(i)*0.2
	}
	for j := range b {
		b[j] = 0.4 + float64(j)*0.15
	}
	value := func(i, j int) float64 { return a[i] * b[j] }

	// Observe ~60% of cells; hold out the rest.
	var held [][2]int
	for i := 0; i < users; i++ {
		for j := 0; j < services; j++ {
			if (i*7+j*3)%10 < 6 {
				m.Observe(stream.Sample{Time: time.Second, User: i, Service: j, Value: value(i, j)})
			} else {
				held = append(held, [2]int{i, j})
			}
		}
	}
	res := m.Fit(FitOptions{MaxEpochs: 300, Tol: 1e-4})
	if res.Steps == 0 {
		t.Fatal("fit performed no steps")
	}

	var relErrs []float64
	for _, p := range held {
		got, err := m.Predict(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		truth := value(p[0], p[1])
		relErrs = append(relErrs, math.Abs(got-truth)/truth)
	}
	// Median relative error on held-out entries should be small.
	var sum float64
	for _, e := range relErrs {
		sum += e
	}
	mean := sum / float64(len(relErrs))
	if mean > 0.15 {
		t.Fatalf("mean held-out relative error %.3f too high", mean)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	build := func() *Model {
		m := MustNew(rtConfig())
		for i := 0; i < 50; i++ {
			m.Observe(stream.Sample{Time: time.Duration(i), User: i % 5, Service: i % 7, Value: float64(i%9) + 0.3})
		}
		m.Fit(FitOptions{MaxEpochs: 5, Tol: 1e-9, MinEpochs: 5})
		return m
	}
	m1, m2 := build(), build()
	for u := 0; u < 5; u++ {
		for s := 0; s < 7; s++ {
			v1, err1 := m1.Predict(u, s)
			v2, err2 := m2.Predict(u, s)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if v1 != v2 {
				t.Fatalf("same seed, different predictions at (%d,%d): %g vs %g", u, s, v1, v2)
			}
		}
	}
}

func TestErrorTrackerDecreasesWithTraining(t *testing.T) {
	m := MustNew(rtConfig())
	m.Observe(stream.Sample{Time: time.Second, User: 0, Service: 0, Value: 3})
	u, _ := m.users.Get(0)
	before := u.err.Value()
	for i := 0; i < 300; i++ {
		m.ReplayStep()
	}
	after := u.err.Value()
	if after >= before {
		t.Fatalf("user error should fall with training: %g -> %g", before, after)
	}
}

func TestExpiryStopsReplay(t *testing.T) {
	cfg := rtConfig()
	cfg.Expiry = 15 * time.Minute
	m := MustNew(cfg)
	m.Observe(stream.Sample{Time: 0, User: 0, Service: 0, Value: 1})
	m.AdvanceTo(16 * time.Minute)
	if m.ReplayStep() {
		t.Fatal("expired sample must not be replayed (Algorithm 1 line 15)")
	}
}

func TestRemoveUserAndService(t *testing.T) {
	m := MustNew(rtConfig())
	m.Observe(stream.Sample{Time: time.Second, User: 1, Service: 2, Value: 1})
	m.RemoveUser(1)
	if m.KnowsUser(1) {
		t.Fatal("user should be gone")
	}
	if _, err := m.Predict(1, 2); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("predict after removal: %v", err)
	}
	// Replay must not resurrect the removed user.
	for i := 0; i < 20; i++ {
		m.ReplayStep()
	}
	if m.KnowsUser(1) {
		t.Fatal("replay resurrected a removed user")
	}
	// Nor a removed service, for a sample whose user is still here.
	m.Observe(stream.Sample{Time: time.Second, User: 3, Service: 2, Value: 1})
	m.RemoveService(2)
	if m.KnowsService(2) {
		t.Fatal("service should be gone")
	}
	for i := 0; i < 20; i++ {
		m.ReplayStep()
	}
	if m.KnowsService(2) {
		t.Fatal("replay resurrected a removed service")
	}
}

// TestReplayCountsOnlyUpdates: after a user and a service depart, every
// ReplayStep that reports a step ran exactly one update, the departed
// user's samples are gone from the pool at once, and the departed
// service's leave it as picks meet them — none is picked twice.
func TestReplayCountsOnlyUpdates(t *testing.T) {
	m := MustNew(rtConfig())
	const users, services = 10, 12
	for u := 0; u < users; u++ {
		for s := 0; s < services; s++ {
			m.Observe(stream.Sample{Time: time.Second, User: u, Service: s, Value: 1 + float64((u+s)%5)})
		}
	}
	m.RemoveUser(3)
	if got, want := m.pool.Len(), (users-1)*services; got != want {
		t.Fatalf("pool holds %d samples after the user left, want %d", got, want)
	}
	m.RemoveService(7)
	before, steps := m.Updates(), 0
	for i := 0; i < 2000; i++ {
		if m.ReplayStep() {
			steps++
		}
	}
	if delta := m.Updates() - before; int64(steps) != delta {
		t.Fatalf("%d replay steps reported, %d updates ran", steps, delta)
	}
	if steps != 2000 {
		t.Fatalf("%d of 2000 replay calls found a live pair", steps)
	}
	if got, want := m.pool.Len(), (users-1)*(services-1); got != want {
		t.Fatalf("pool holds %d samples after replay, want the %d live pairs", got, want)
	}
	if m.KnowsUser(3) || m.KnowsService(7) {
		t.Fatal("replay resurrected a departed entity")
	}
	// With every remaining service gone the pool drains and replay waits.
	for s := 0; s < services; s++ {
		m.RemoveService(s)
	}
	if m.ReplayStep() || m.pool.Len() != 0 {
		t.Fatalf("replay over departed pairs only: pool still holds %d", m.pool.Len())
	}
}

// scoreLog is a Scorer that keeps what it was handed: the prior of each
// scored sample, NaN for a miss.
type scoreLog []float64

func (l *scoreLog) Record(prior, _ float64) { *l = append(*l, prior) }
func (l *scoreLog) RecordMiss()             { *l = append(*l, math.NaN()) }

// observePrior observes one sample through ObserveAllScored and returns
// its prior, ok false on a miss.
func observePrior(m *Model, s stream.Sample) (float64, bool) {
	var l scoreLog
	m.ObserveAllScored([]stream.Sample{s}, &l)
	return l[0], !math.IsNaN(l[0])
}

// TestObservePrior: the prior is the float64 model's own prediction just
// before the sample trains it, and a pair is scorable only once both its
// entities have been frozen into a view.
func TestObservePrior(t *testing.T) {
	m := MustNew(rtConfig())
	view := m.BuildView()
	if _, ok := observePrior(m, stream.Sample{Time: time.Second, User: 1, Service: 2, Value: 1.5}); ok {
		t.Fatal("first sighting of both entities reported a prior")
	}
	// Same user, same batch: the user exists in the model by now, but no
	// reader has seen it.
	if _, ok := observePrior(m, stream.Sample{Time: time.Second, User: 1, Service: 3, Value: 2}); ok {
		t.Fatal("a user created since the last publish is still a first sighting")
	}
	view = m.RefreshView(view)
	if _, ok := observePrior(m, stream.Sample{Time: time.Second, User: 1, Service: 4, Value: 2}); ok {
		t.Fatal("a new service under a published user reported a prior")
	}
	want, err := m.Predict(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := observePrior(m, stream.Sample{Time: 2 * time.Second, User: 1, Service: 2, Value: 1.4})
	if !ok || got != want {
		t.Fatalf("prior for a published pair = %g, %v; the model predicted %g", got, ok, want)
	}
	if after, _ := m.Predict(1, 2); after == want {
		t.Fatal("the sample did not train the model")
	}
	// A restored model's entities come from a published state.
	blob, err := m.RefreshView(view).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := observePrior(r, stream.Sample{Time: 3 * time.Second, User: 1, Service: 3, Value: 2}); !ok {
		t.Fatal("a restored pair reported no prior")
	}
}

// TestObserveAllScoredMatchesOneByOne: a batch is scored and trained as
// the same samples one at a time are — each prior after every earlier
// sample of the batch has trained, a newcomer a miss for the rest of its
// batch — and leaves the same model.
func TestObserveAllScoredMatchesOneByOne(t *testing.T) {
	batched, single := MustNew(rtConfig()), MustNew(rtConfig())
	views := [2]*PredictView{batched.BuildView(), single.BuildView()}
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 20; round++ {
		ss := make([]stream.Sample, 64)
		for i := range ss {
			ss[i] = stream.Sample{Time: time.Duration(round) * time.Second, User: rng.Intn(8), Service: rng.Intn(40), Value: 0.1 + 5*rng.Float64()}
		}
		var got, want scoreLog
		batched.ObserveAllScored(ss, &got)
		for _, s := range ss {
			single.ObserveAllScored([]stream.Sample{s}, &want)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d sample %d: batched prior %v, one by one %v", round, i, got[i], want[i])
			}
		}
		views[0], views[1] = batched.RefreshView(views[0]), single.RefreshView(views[1])
	}
	a, err := batched.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := single.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("a batch trained a different model than its samples one by one")
	}
}

func TestGradientClippingGuardsOutliers(t *testing.T) {
	// Feed a pathological mix of extreme values; factors must stay finite.
	cfg := rtConfig()
	m := MustNew(cfg)
	for i := 0; i < 200; i++ {
		v := 0.000001
		if i%2 == 0 {
			v = 20
		}
		m.Observe(stream.Sample{Time: time.Duration(i), User: 0, Service: i % 3, Value: v})
	}
	got, err := m.Predict(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("prediction diverged: %g", got)
	}
}

func TestFitEmptyPool(t *testing.T) {
	m := MustNew(rtConfig())
	res := m.Fit(FitOptions{})
	if res.Epochs != 0 || res.Steps != 0 || res.Converged {
		t.Fatalf("fit on empty pool: %+v", res)
	}
}

func TestFitConverges(t *testing.T) {
	m := MustNew(rtConfig())
	for i := 0; i < 30; i++ {
		m.Observe(stream.Sample{Time: time.Second, User: i % 5, Service: i % 6, Value: 1 + float64(i%4)})
	}
	res := m.Fit(FitOptions{MaxEpochs: 500, Tol: 1e-3})
	if !res.Converged {
		t.Fatalf("fit did not converge: %+v", res)
	}
	if res.FinalError <= 0 {
		t.Fatalf("final error = %g, want positive", res.FinalError)
	}
	// Converged model should fit training data much better than chance.
	if res.FinalError > 0.5 {
		t.Fatalf("final training error %.3f too high", res.FinalError)
	}
}

func TestTrainingErrorEmptyPool(t *testing.T) {
	m := MustNew(rtConfig())
	if got := m.TrainingError(); got != 0 {
		t.Fatalf("empty-pool training error = %g", got)
	}
}

func TestPredictWithConfidence(t *testing.T) {
	m := MustNew(rtConfig())
	m.Observe(stream.Sample{Time: time.Second, User: 0, Service: 0, Value: 2})
	_, confFresh, err := m.PredictWithConfidence(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if confFresh <= 0 || confFresh > 1 {
		t.Fatalf("confidence %g outside (0,1]", confFresh)
	}
	// Training the pair should raise the confidence.
	for i := 0; i < 300; i++ {
		m.ReplayStep()
	}
	_, confTrained, err := m.PredictWithConfidence(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if confTrained <= confFresh {
		t.Fatalf("confidence should rise with training: %g -> %g", confFresh, confTrained)
	}
	if _, _, err := m.PredictWithConfidence(9, 0); !errors.Is(err, ErrUnknownUser) {
		t.Fatal("unknown user")
	}
	if _, _, err := m.PredictWithConfidence(0, 9); !errors.Is(err, ErrUnknownService) {
		t.Fatal("unknown service")
	}
	// Value must agree with Predict.
	v1, _ := m.Predict(0, 0)
	v2, _, _ := m.PredictWithConfidence(0, 0)
	if v1 != v2 {
		t.Fatalf("PredictWithConfidence value %g != Predict %g", v2, v1)
	}
}

func TestSetLearnRate(t *testing.T) {
	m := MustNew(rtConfig())
	m.SetLearnRate(0.3)
	if m.cfg.LearnRate != 0.3 {
		t.Fatalf("learn rate = %g, want 0.3", m.cfg.LearnRate)
	}
	m.SetLearnRate(0) // non-positive rates are ignored
	if m.cfg.LearnRate != 0.3 {
		t.Fatal("non-positive rate must be ignored")
	}
	m.SetLearnRate(-1)
	if m.cfg.LearnRate != 0.3 {
		t.Fatal("negative rate must be ignored")
	}
}
