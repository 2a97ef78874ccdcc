package control

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/obs"
)

// synthetic drives the controller with a scripted rejection-rate curve:
// each call to step(rate) adds one epoch's worth of arrivals and sheds
// at that rate, then runs the epoch.
type synthetic struct {
	arrived, shed int64
	queueWait     float64
}

func (s *synthetic) signals() Signals {
	return Signals{
		Arrived:      func() int64 { return s.arrived },
		Shed:         func() int64 { return s.shed },
		QueueWaitP99: func() float64 { return s.queueWait },
		InFlight:     func() float64 { return 4 },
		Staleness:    func() time.Duration { return 80 * time.Millisecond },
	}
}

func (s *synthetic) step(c *Controller, rate float64) {
	const perEpoch = 10000
	s.arrived += perEpoch
	s.shed += int64(rate * perEpoch)
	c.RunEpoch()
}

// TestControllerConvergence is the satellite convergence test: a
// rejection rate above 10% must widen shedding (publish interval grows,
// batch cap grows, sheddable watermark drops), a rate below 1% must
// relax every tunable back to its baseline, and no move may ever leave
// the declared bounds.
func TestControllerConvergence(t *testing.T) {
	reg := NewRegistry()
	pub := reg.Duration("engine.publish_interval", "h", 50*time.Millisecond, time.Millisecond, 2*time.Second, SourceDefault)
	batch := reg.Int("engine.ingest_batch_cap", "h", 256, 64, 16384, SourceDefault)
	wm := reg.Float("engine.admit_sheddable_watermark", "h", 0.9, 0.05, 1.0, SourceDefault)

	c := NewController(ControllerConfig{
		Epoch:         time.Second, // irrelevant: epochs driven manually
		QueueWaitHigh: -1,          // isolate the rejection-rate law
		Signals:       Signals{},   // replaced below
		Rules: []Rule{
			{Tunable: pub, WidenFactor: 1.6, RelaxRate: 0.5},
			{Tunable: batch, WidenFactor: 2.0, RelaxRate: 0.5},
			{Tunable: wm, WidenFactor: 0.6, RelaxRate: 0.5},
		},
	})
	syn := &synthetic{}
	c.cfg.Signals = syn.signals()

	inBounds := func(context string) {
		t.Helper()
		for _, tn := range reg.List() {
			v := tn.Float()
			lo, hi := tn.Bounds()
			if v < lo || v > hi {
				t.Fatalf("%s: %s = %g outside [%g, %g]", context, tn.Name(), v, lo, hi)
			}
		}
	}

	// Phase 1: sustained 25% rejection → every rule widens monotonically
	// until clamped at its bound.
	prevPub, prevWM, prevBatch := pub.Load(), wm.Load(), batch.Load()
	for i := 0; i < 12; i++ {
		syn.step(c, 0.25)
		inBounds("overload epoch")
		if pub.Load() < prevPub || batch.Load() < prevBatch || wm.Load() > prevWM {
			t.Fatalf("epoch %d moved against the overload direction: pub %v batch %d wm %g",
				i, pub.Load(), batch.Load(), wm.Load())
		}
		prevPub, prevWM, prevBatch = pub.Load(), wm.Load(), batch.Load()
	}
	if pub.Load() != 2*time.Second {
		t.Fatalf("publish interval should rail at max: %v", pub.Load())
	}
	if batch.Load() != 16384 {
		t.Fatalf("batch cap should rail at max: %d", batch.Load())
	}
	if wm.Load() != 0.05 {
		t.Fatalf("sheddable watermark should rail at min: %g", wm.Load())
	}
	if c.RejectionRate() != 0.25 {
		t.Fatalf("last epoch rate: %g", c.RejectionRate())
	}
	if c.lastState.Load() != stateOverloaded {
		t.Fatalf("state: %d", c.lastState.Load())
	}

	// Phase 2: steady zone (between thresholds) → hold.
	syn.step(c, 0.05)
	if pub.Load() != prevPub || batch.Load() != prevBatch || wm.Load() != prevWM {
		t.Fatal("steady epoch must not move tunables")
	}
	if c.lastState.Load() != stateSteady {
		t.Fatalf("state after steady epoch: %d", c.lastState.Load())
	}

	// Phase 3: calm (<1%) → geometric relaxation back to baseline.
	for i := 0; i < 40 && (pub.Load() != 50*time.Millisecond ||
		batch.Load() != 256 || wm.Load() != 0.9); i++ {
		syn.step(c, 0.0)
		inBounds("calm epoch")
	}
	if pub.Load() != 50*time.Millisecond || batch.Load() != 256 || wm.Load() != 0.9 {
		t.Fatalf("did not relax to baseline: pub %v batch %d wm %g",
			pub.Load(), batch.Load(), wm.Load())
	}
	if c.lastState.Load() != stateCalm {
		t.Fatalf("state after calm epoch: %d", c.lastState.Load())
	}
	// Relaxation terminates: one more calm epoch makes no further moves.
	syn.step(c, 0.0)
	if pub.Load() != 50*time.Millisecond || batch.Load() != 256 || wm.Load() != 0.9 {
		t.Fatal("relaxation did not terminate at baseline")
	}
}

// TestControllerSkipsOverridden: an API override pins a tunable; the
// controller must not move it in either direction.
func TestControllerSkipsOverridden(t *testing.T) {
	reg := NewRegistry()
	pub := reg.Duration("engine.publish_interval", "h", 50*time.Millisecond, time.Millisecond, 2*time.Second, SourceDefault)
	pinned := reg.Int("engine.ingest_batch_cap", "h", 256, 64, 16384, SourceDefault)
	if err := pinned.SetString("512", SourceOverride); err != nil {
		t.Fatal(err)
	}

	c := NewController(ControllerConfig{
		QueueWaitHigh: -1,
		Rules: []Rule{
			{Tunable: pub, WidenFactor: 1.6, RelaxRate: 0.5},
			{Tunable: pinned, WidenFactor: 2.0, RelaxRate: 0.5},
		},
	})
	syn := &synthetic{}
	c.cfg.Signals = syn.signals()

	syn.step(c, 0.5) // overload
	if pinned.Load() != 512 {
		t.Fatalf("override moved under overload: %d", pinned.Load())
	}
	if pub.Load() == 50*time.Millisecond {
		t.Fatal("unpinned tunable should have widened")
	}
	syn.step(c, 0.0) // calm
	if pinned.Load() != 512 {
		t.Fatalf("override moved during relaxation: %d", pinned.Load())
	}
}

// TestControllerQueueWaitTrigger: a saturated queue marks the epoch
// overloaded even when the rejection rate is still low — the controller
// widens before shedding starts.
func TestControllerQueueWaitTrigger(t *testing.T) {
	reg := NewRegistry()
	pub := reg.Duration("engine.publish_interval", "h", 50*time.Millisecond, time.Millisecond, 2*time.Second, SourceDefault)
	c := NewController(ControllerConfig{
		QueueWaitHigh: 0.25,
		Rules:         []Rule{{Tunable: pub, WidenFactor: 1.6, RelaxRate: 0.5}},
	})
	syn := &synthetic{queueWait: 0.5}
	c.cfg.Signals = syn.signals()
	syn.step(c, 0.0)
	if pub.Load() <= 50*time.Millisecond {
		t.Fatalf("queue-wait overload should widen: %v", pub.Load())
	}
	if c.lastState.Load() != stateOverloaded {
		t.Fatalf("state: %d", c.lastState.Load())
	}
}

// TestControllerMetrics: Register exposes the amf_control_* families
// and they move with epochs.
func TestControllerMetrics(t *testing.T) {
	reg := NewRegistry()
	pub := reg.Duration("engine.publish_interval", "h", 50*time.Millisecond, time.Millisecond, 2*time.Second, SourceDefault)
	c := NewController(ControllerConfig{
		QueueWaitHigh: -1,
		Rules:         []Rule{{Tunable: pub, WidenFactor: 1.6, RelaxRate: 0.5}},
	})
	or := obs.NewRegistry()
	c.Register(or)
	syn := &synthetic{}
	c.cfg.Signals = syn.signals()
	syn.step(c, 0.5)

	var buf bytes.Buffer
	if err := or.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"amf_control_epochs_total 1",
		`amf_control_epoch_adjustments_total{tunable="engine.publish_interval"} 1`,
		`amf_control_tunable{name="engine.publish_interval"} 0.08`,
		"amf_control_epoch_rejection_rate 0.5",
		"amf_control_epoch_state 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	if _, err := obs.ParseMetrics(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
}

// TestControllerStartStop: the ticker loop runs epochs and Stop halts it.
func TestControllerStartStop(t *testing.T) {
	reg := NewRegistry()
	pub := reg.Duration("engine.publish_interval", "h", 50*time.Millisecond, time.Millisecond, 2*time.Second, SourceDefault)
	syn := &synthetic{}
	c := NewController(ControllerConfig{
		Epoch:         2 * time.Millisecond,
		QueueWaitHigh: -1,
		Signals:       syn.signals(),
		Rules:         []Rule{{Tunable: pub, WidenFactor: 1.6, RelaxRate: 0.5}},
	})
	c.Start()
	c.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for c.Epochs() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	c.Stop() // idempotent
	if c.Epochs() == 0 {
		t.Fatal("no epochs ran")
	}
	n := c.Epochs()
	time.Sleep(10 * time.Millisecond)
	if c.Epochs() != n {
		t.Fatal("epochs kept running after Stop")
	}
}
