package core

import (
	"bytes"
	"math"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/stream"
)

// synthSamples builds the structured matrix used across the trainer
// tests: value(i,j) = a_i * b_j, a multiplicative structure the
// log-domain model recovers. Roughly 60% of the cells become samples
// (deterministic pattern); the rest are returned as held-out pairs.
func synthSamples(users, services int) (obs []stream.Sample, held [][2]int) {
	value := synthValue
	for i := 0; i < users; i++ {
		for j := 0; j < services; j++ {
			if (i*7+j*3)%10 < 6 {
				obs = append(obs, stream.Sample{Time: time.Second, User: i, Service: j, Value: value(i, j)})
			} else {
				held = append(held, [2]int{i, j})
			}
		}
	}
	return obs, held
}

func synthValue(i, j int) float64 {
	return (0.5 + float64(i)*0.07) * (0.4 + float64(j)*0.05)
}

func TestTrainerWorkerRounding(t *testing.T) {
	m := MustNew(rtConfig())
	cases := []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 2}, {4, 4}, {5, 4}, {7, 4}, {8, 8},
		{63, 32}, {64, 64}, {100, 64},
	}
	for _, c := range cases {
		tr := NewTrainer(m, TrainerConfig{Workers: c.in})
		if got := tr.Workers(); got != c.want {
			t.Errorf("Workers %d: rounded to %d, want %d", c.in, got, c.want)
		}
		tr.Close()
	}
	// 0 means GOMAXPROCS rounded down; just assert it lands in range.
	tr := NewTrainer(m, TrainerConfig{})
	if w := tr.Workers(); w < 1 || w > MaxTrainWorkers || w&(w-1) != 0 {
		t.Fatalf("default worker count %d not a power of two in [1,%d]", w, MaxTrainWorkers)
	}
	tr.Close()
}

func TestTrainerApplyRegistersAndCounts(t *testing.T) {
	m := MustNew(rtConfig())
	tr := NewTrainer(m, TrainerConfig{Workers: 4})
	defer tr.Close()

	obs, _ := synthSamples(16, 24)
	if n := tr.Apply(obs); n != len(obs) {
		t.Fatalf("Apply returned %d, want %d", n, len(obs))
	}
	if m.NumUsers() != 16 || m.NumServices() != 24 {
		t.Fatalf("entity counts after Apply: %d users, %d services", m.NumUsers(), m.NumServices())
	}
	if m.Updates() != int64(len(obs)) {
		t.Fatalf("Updates() = %d, want %d", m.Updates(), len(obs))
	}
	if tr.PoolLen() != len(obs) {
		t.Fatalf("PoolLen() = %d, want %d", tr.PoolLen(), len(obs))
	}
	// Predictions must be finite and in range for every observed pair.
	for _, s := range obs {
		v, err := m.Predict(s.User, s.Service)
		if err != nil {
			t.Fatalf("predict(%d,%d): %v", s.User, s.Service, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("predict(%d,%d) = %v", s.User, s.Service, v)
		}
	}
	if b := tr.Metrics().Batches.Value(); b == 0 {
		t.Fatal("fan-out counter not incremented")
	}
}

// TestTrainerW1Determinism pins the determinism contract behind
// -train-workers=1: a Workers==1 trainer must reproduce the serial model
// bit for bit (identical snapshots) for the same sample sequence.
func TestTrainerW1Determinism(t *testing.T) {
	obs, _ := synthSamples(12, 18)

	serial := MustNew(rtConfig())
	serial.ObserveAll(obs)
	for i := 0; i < 200; i++ {
		serial.ReplayStep()
	}

	m := MustNew(rtConfig())
	tr := NewTrainer(m, TrainerConfig{Workers: 1})
	defer tr.Close()
	tr.Apply(obs)
	tr.ReplaySteps(200)

	a, err := serial.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("Workers=1 trainer diverged from the serial model (snapshots differ)")
	}
}

// TestTrainerAccuracyParity is the matched-accuracy gate from the PR
// target: the parallel trainer's epoch-end training error (MRE over the
// replay pool) must land within 2% relative of the serial trainer's on
// the synthetic dataset, and held-out accuracy must match too.
func TestTrainerAccuracyParity(t *testing.T) {
	obs, held := synthSamples(24, 32)
	opts := FitOptions{MaxEpochs: 120, Tol: 1e-5, MinEpochs: 5}

	serial := MustNew(rtConfig())
	serial.ObserveAll(obs)
	resSerial := serial.Fit(opts)

	par := MustNew(rtConfig())
	tr := NewTrainer(par, TrainerConfig{Workers: 4})
	defer tr.Close()
	tr.Apply(obs)
	resPar := tr.Fit(opts)

	if resSerial.Steps == 0 || resPar.Steps == 0 {
		t.Fatalf("fit performed no steps: serial %+v parallel %+v", resSerial, resPar)
	}
	relDiff := math.Abs(resSerial.FinalError-resPar.FinalError) / math.Max(resSerial.FinalError, 1e-12)
	if relDiff > 0.02 {
		t.Fatalf("epoch-end training error mismatch: serial %.6f vs parallel %.6f (rel diff %.4f > 0.02)",
			resSerial.FinalError, resPar.FinalError, relDiff)
	}

	meanHeld := func(m *Model) float64 {
		var sum float64
		for _, p := range held {
			got, err := m.Predict(p[0], p[1])
			if err != nil {
				t.Fatalf("predict held-out (%d,%d): %v", p[0], p[1], err)
			}
			truth := synthValue(p[0], p[1])
			sum += math.Abs(got-truth) / truth
		}
		return sum / float64(len(held))
	}
	hs, hp := meanHeld(serial), meanHeld(par)
	if hs > 0.15 || hp > 0.15 {
		t.Fatalf("held-out mean relative error too high: serial %.3f parallel %.3f", hs, hp)
	}
}

// TestModelFitWorkersOption exercises the FitOptions.Workers delegation:
// Model.Fit with Workers > 1 must run the parallel epoch mode end to end
// on a serially observed pool and still converge.
func TestModelFitWorkersOption(t *testing.T) {
	obs, _ := synthSamples(16, 24)
	m := MustNew(rtConfig())
	m.ObserveAll(obs)
	res := m.Fit(FitOptions{MaxEpochs: 150, Tol: 1e-4, Workers: 4})
	if res.Steps == 0 {
		t.Fatal("parallel fit performed no steps")
	}
	if res.FinalError > 0.1 {
		t.Fatalf("parallel fit final error %.4f too high", res.FinalError)
	}
}

func TestTrainerReplayDoesNotResurrect(t *testing.T) {
	m := MustNew(rtConfig())
	tr := NewTrainer(m, TrainerConfig{Workers: 2})
	defer tr.Close()
	obs, _ := synthSamples(8, 8)
	tr.Apply(obs)
	m.RemoveUser(0)
	m.RemoveService(1)
	tr.ReplaySteps(4 * len(obs))
	if m.KnowsUser(0) {
		t.Fatal("replay resurrected a removed user")
	}
	if m.KnowsService(1) {
		t.Fatal("replay resurrected a removed service")
	}
}

func TestTrainerAdvanceToExpires(t *testing.T) {
	cfg := rtConfig()
	cfg.Expiry = 10 * time.Second
	m := MustNew(cfg)
	tr := NewTrainer(m, TrainerConfig{Workers: 2})
	defer tr.Close()
	obs, _ := synthSamples(6, 6)
	tr.Apply(obs)
	if tr.PoolLen() == 0 {
		t.Fatal("pool empty after Apply")
	}
	tr.AdvanceTo(time.Minute)
	if n := tr.ReplaySteps(100); n != 0 {
		t.Fatalf("replay after expiry performed %d picks, want 0", n)
	}
}

// TestTrainerViewTracking verifies parallel updates feed the incremental
// view refresh: entities touched by worker fan-outs must appear in the
// next RefreshView exactly as serial updates would.
func TestTrainerViewTracking(t *testing.T) {
	m := MustNew(rtConfig())
	v0 := m.BuildView() // enables dirty tracking
	tr := NewTrainer(m, TrainerConfig{Workers: 4})
	defer tr.Close()
	obs, _ := synthSamples(10, 14)
	tr.Apply(obs)
	v1 := m.RefreshView(v0)
	if v1.NumUsers() != 10 || v1.NumServices() != 14 {
		t.Fatalf("refreshed view has %d users / %d services, want 10/14", v1.NumUsers(), v1.NumServices())
	}
	for _, s := range obs {
		mv, err1 := m.Predict(s.User, s.Service)
		vv, err2 := v1.Predict(s.User, s.Service)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		valueNear(t, "refreshed view", vv, mv)
	}
}

// TestTrainerStress hammers the full coordinator surface — Apply,
// ReplaySteps, parallel Fit epochs, view publishes between fan-outs —
// with the maximum worker count. Its real assertion is the race
// detector: `go test -race` must not flag the synchronized path.
func TestTrainerStress(t *testing.T) {
	m := MustNew(rtConfig())
	view := m.BuildView()
	tr := NewTrainer(m, TrainerConfig{Workers: 8})
	defer tr.Close()

	const rounds = 30
	obs, _ := synthSamples(32, 48)
	for r := 0; r < rounds; r++ {
		lo := (r * 37) % len(obs)
		hi := lo + 101
		if hi > len(obs) {
			hi = len(obs)
		}
		tr.Apply(obs[lo:hi])
		tr.ReplaySteps(64)
		// Publish between fan-outs, exactly as the engine coordinator
		// does, and read through the published view.
		view = m.RefreshView(view)
		for _, s := range obs[lo:hi] {
			if _, err := view.Predict(s.User, s.Service); err != nil {
				t.Fatalf("round %d: view predict: %v", r, err)
			}
		}
	}
	tr.Fit(FitOptions{MaxEpochs: 5, Tol: 1e-9, MinEpochs: 5})
	if m.NumUsers() == 0 || m.NumServices() == 0 {
		t.Fatal("stress left no entities")
	}
}
