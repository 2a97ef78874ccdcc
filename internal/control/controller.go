// The epoch controller: once per epoch it reads free signals the
// system already computes (shed/rejection counts, queue-wait p99,
// in-flight gauges, engine staleness), classifies the epoch as
// overloaded / calm / steady, and nudges registered tunables within
// their declared bounds. The adaptation law follows the rejection-rate
// playbook: the rejection rate over the last epoch is a free, online
// congestion signal — ~0% means headroom, above HighThreshold means
// the system is refusing work and should trade freshness/granularity
// for throughput, below LowThreshold means it can relax back toward
// the operator's baseline.

package control

import (
	"io"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/qoslab/amf/internal/obs"
	"github.com/qoslab/amf/internal/obs/trace"
)

// Signals are the controller's inputs, sampled once per epoch. All are
// optional (nil funcs read as zero); Arrived/Shed are cumulative
// counters — the controller differences consecutive epochs itself.
type Signals struct {
	// Arrived is the cumulative count of admission-considered work
	// (gate-evaluated requests plus engine enqueue attempts).
	Arrived func() int64
	// Shed is the cumulative count of refused work (gate sheds,
	// engine queue sheds, and drop-oldest victims).
	Shed func() int64
	// QueueWaitP99 is the engine ingest queue-wait p99 in seconds.
	QueueWaitP99 func() float64
	// InFlight is the number of requests currently being served.
	InFlight func() float64
	// Staleness is the age of the engine's published prediction view.
	Staleness func() time.Duration
}

// Rule binds one tunable to the adaptation law. Under overload the
// controller multiplies the current value by WidenFactor each epoch
// (factors > 1 grow toward max, < 1 shrink toward min — "widen" always
// means "respond to overload"); in calm epochs it recovers RelaxRate
// of the remaining gap back to the tunable's baseline. All moves are
// clamped to the tunable's bounds, and tunables pinned by an API
// override (SourceOverride) are skipped entirely.
type Rule struct {
	Tunable     Tunable
	WidenFactor float64
	RelaxRate   float64
}

// ControllerConfig configures an epoch controller.
type ControllerConfig struct {
	// Epoch is the adaptation period. Default 2s.
	Epoch time.Duration
	// HighThreshold: rejection rate above this marks the epoch
	// overloaded. Default 0.10.
	HighThreshold float64
	// LowThreshold: rejection rate below this (with queue wait also
	// calm) marks the epoch calm. Default 0.01.
	LowThreshold float64
	// QueueWaitHigh: a queue-wait p99 at or above this (seconds) also
	// marks the epoch overloaded, even with a low rejection rate.
	// Default 0.25s; set negative to disable.
	QueueWaitHigh float64

	Signals Signals
	Rules   []Rule

	// Tracer, when set, records one span per epoch that changed at
	// least one tunable, annotated with the epoch's signal readings.
	Tracer *trace.Recorder
	Logger *slog.Logger
}

func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.Epoch <= 0 {
		c.Epoch = 2 * time.Second
	}
	if c.HighThreshold <= 0 {
		c.HighThreshold = 0.10
	}
	if c.LowThreshold <= 0 {
		c.LowThreshold = 0.01
	}
	if c.QueueWaitHigh == 0 {
		c.QueueWaitHigh = 0.25
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Controller runs the epoch loop. Construct with NewController, attach
// metrics with Register, then Start/Stop. RunEpoch is exported for
// tests and amfbench to drive epochs deterministically.
type Controller struct {
	cfg ControllerConfig

	lastArrived int64
	lastShed    int64

	epochs      atomic.Int64
	adjustments map[string]*obs.Counter // by tunable name; nil until Register
	lastRate    atomic.Uint64           // float64 bits
	lastState   atomic.Int32            // 0 steady, 1 overloaded, 2 calm

	mu      sync.Mutex // guards lastArrived/lastShed and Stop vs RunEpoch
	stop    chan struct{}
	done    chan struct{}
	started bool
}

// NewController builds a controller; it does not start the loop.
func NewController(cfg ControllerConfig) *Controller {
	return &Controller{cfg: cfg.withDefaults()}
}

// Epoch reports the configured adaptation period.
func (c *Controller) Epoch() time.Duration { return c.cfg.Epoch }

// Register exposes the controller's metric families on r:
// amf_control_epochs_total, amf_control_epoch_adjustments_total{tunable},
// amf_control_epoch_rejection_rate, amf_control_epoch_state, and one
// amf_control_tunable{name} series per ruled tunable. Call once,
// before Start.
func (c *Controller) Register(r *obs.Registry) {
	r.CounterFunc("amf_control_epochs_total",
		"Adaptation epochs evaluated by the control-plane epoch controller.",
		c.epochs.Load)
	adj := r.NewCounterVec("amf_control_epoch_adjustments_total",
		"Tunable adjustments applied by the epoch controller, by tunable name.",
		"tunable")
	c.adjustments = make(map[string]*obs.Counter, len(c.cfg.Rules))
	tun := r.NewGaugeFuncVec("amf_control_tunable",
		"Live value of each controller-ruled tunable (durations in seconds).",
		"name")
	for _, rule := range c.cfg.Rules {
		t := rule.Tunable
		c.adjustments[t.Name()] = adj.With(t.Name())
		tun.With(t.Name(), t.Float)
	}
	r.GaugeFunc("amf_control_epoch_rejection_rate",
		"Rejection rate observed over the last completed adaptation epoch.",
		c.RejectionRate)
	r.GaugeFunc("amf_control_epoch_state",
		"Last epoch verdict: 0 steady, 1 overloaded, 2 calm.",
		func() float64 { return float64(c.lastState.Load()) })
}

// RejectionRate reports the shed fraction measured over the last
// completed epoch.
func (c *Controller) RejectionRate() float64 {
	return math.Float64frombits(c.lastRate.Load())
}

// Epochs reports how many epochs have been evaluated.
func (c *Controller) Epochs() int64 { return c.epochs.Load() }

// Start launches the epoch loop. Idempotent; Stop ends it.
func (c *Controller) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return
	}
	c.started = true
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	// Seed the deltas so the first epoch measures only its own window.
	c.lastArrived = c.read(c.cfg.Signals.Arrived)
	c.lastShed = c.read(c.cfg.Signals.Shed)
	go func() {
		defer close(c.done)
		t := time.NewTicker(c.cfg.Epoch)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.RunEpoch()
			}
		}
	}()
}

// Stop halts the epoch loop and waits for it to exit.
func (c *Controller) Stop() {
	c.mu.Lock()
	if !c.started {
		c.mu.Unlock()
		return
	}
	c.started = false
	stop, done := c.stop, c.done
	c.mu.Unlock()
	close(stop)
	<-done
}

func (c *Controller) read(fn func() int64) int64 {
	if fn == nil {
		return 0
	}
	return fn()
}

func (c *Controller) readF(fn func() float64) float64 {
	if fn == nil {
		return 0
	}
	return fn()
}

// Epoch states, exposed via amf_control_epoch_state.
const (
	stateSteady int32 = iota
	stateOverloaded
	stateCalm
)

// RunEpoch evaluates one adaptation epoch: difference the cumulative
// arrival/shed counters, classify, and move ruled tunables. Safe to
// call concurrently with the ticker loop (it locks), but meant either
// driven by Start or called directly in tests.
func (c *Controller) RunEpoch() {
	c.mu.Lock()
	arrived := c.read(c.cfg.Signals.Arrived)
	shed := c.read(c.cfg.Signals.Shed)
	dArr := arrived - c.lastArrived
	dShed := shed - c.lastShed
	c.lastArrived = arrived
	c.lastShed = shed
	c.mu.Unlock()

	rate := 0.0
	if dArr > 0 {
		rate = float64(dShed) / float64(dArr)
	}
	c.lastRate.Store(math.Float64bits(rate))

	qwait := c.readF(c.cfg.Signals.QueueWaitP99)
	inflight := c.readF(c.cfg.Signals.InFlight)
	var stale time.Duration
	if c.cfg.Signals.Staleness != nil {
		stale = c.cfg.Signals.Staleness()
	}

	overloaded := rate > c.cfg.HighThreshold ||
		(c.cfg.QueueWaitHigh > 0 && qwait >= c.cfg.QueueWaitHigh)
	calm := !overloaded && rate < c.cfg.LowThreshold

	state := stateSteady
	moved := 0
	switch {
	case overloaded:
		state = stateOverloaded
		for _, rule := range c.cfg.Rules {
			moved += c.widen(rule)
		}
	case calm:
		state = stateCalm
		for _, rule := range c.cfg.Rules {
			moved += c.relax(rule)
		}
	}
	c.lastState.Store(state)
	c.epochs.Add(1)

	if moved > 0 {
		c.cfg.Logger.Debug("control epoch adjusted tunables",
			"rate", rate, "queue_wait_p99", qwait, "state", state, "moved", moved)
		if c.cfg.Tracer != nil {
			sp := c.cfg.Tracer.Start(trace.NewID(), 0, "control-epoch")
			sp.Annotate("rejection-rate", time.Duration(rate*float64(time.Second)))
			sp.Annotate("queue-wait-p99", time.Duration(qwait*float64(time.Second)))
			sp.Annotate("in-flight", time.Duration(inflight))
			sp.Annotate("staleness", stale)
			sp.Annotate("adjustments", time.Duration(moved))
			sp.FinishNow()
		}
	}
}

// widen moves one rule's tunable in its overload direction. Returns 1
// if the stored value changed.
func (c *Controller) widen(rule Rule) int {
	t := rule.Tunable
	if t.Source() == SourceOverride || rule.WidenFactor == 1 || rule.WidenFactor <= 0 {
		return 0
	}
	cur := t.Float()
	next := cur * rule.WidenFactor
	if cur == 0 { // escape a zero floor for growing rules
		min, _ := t.Bounds()
		next = math.Max(min, math.SmallestNonzeroFloat64)
	}
	return c.apply(t, next)
}

// relax recovers part of the gap back to the baseline. Returns 1 if
// the stored value changed.
func (c *Controller) relax(rule Rule) int {
	t := rule.Tunable
	if t.Source() == SourceOverride {
		return 0
	}
	cur, base := t.Float(), t.BaselineFloat()
	if cur == base {
		return 0
	}
	r := rule.RelaxRate
	if r <= 0 || r > 1 {
		r = 0.5
	}
	next := cur + (base-cur)*r
	// Snap when within 1% of baseline so relaxation terminates.
	if math.Abs(next-base) <= 0.01*math.Max(math.Abs(base), math.SmallestNonzeroFloat64) {
		next = base
	}
	return c.apply(t, next)
}

func (c *Controller) apply(t Tunable, next float64) int {
	before := t.Float()
	after := t.SetFloat(next, SourceAdapted)
	if after == before {
		return 0
	}
	if ctr := c.adjustments[t.Name()]; ctr != nil {
		ctr.Inc()
	}
	return 1
}
