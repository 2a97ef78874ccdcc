// Package engine is the serving engine of the QoS prediction service: it
// makes the prediction hot path lock-free and serializes every update on
// the caller's goroutine.
//
// The paper's whole point is *online* prediction that scales to runtime
// adaptation traffic (Sec. III framework, Fig. 13/14); at serving scale
// the prediction-time cost dominates (cf. FES, Chattopadhyay et al.), so
// predictions must never block on SGD updates. The engine achieves that
// with two mechanisms:
//
//   - RCU-style published views. The engine holds an immutable
//     core.PredictView in an atomic pointer. Every read — Predict,
//     PredictWithConfidence, Rank, Snapshot, error reports — loads the
//     pointer and works on the frozen view: zero locks, zero contention.
//     A request-scoped reader pins the view it reads (Pin/Unpin: one
//     atomic add each way); a reader that keeps the view lets it escape
//     (View). Once a replaced view is unpinned, the pages its successor
//     copied away from are recycled into the next publish instead of left
//     to the collector, and so is its header; pages an escaped view can
//     reach, and its header, never are.
//
//   - One mutex for every mutation. Whoever writes — an observe batch
//     from either of the server's doors (HTTP observe, the TCP stream),
//     a replicated or recovered log (ApplyLog), a departure, a replay
//     tick, a restore — takes mu on its own goroutine, mutates, publishes
//     a fresh view and unlocks: the view is never behind the model once
//     a write has returned. Republication is incremental: only the rows
//     of entities touched since the last publish are copied, each into
//     its page's recycled twin, which lags the page by the rows the
//     page's own publish froze; a page with no twin yet is copied whole
//     (see core.Model.RefreshView and Recycle). Training is strictly
//     sequential, as in Algorithm 1: every sample reaches the model
//     through applyLocked and every replay update through replayLocked,
//     one at a time under mu, so the trained model is a function of the
//     seed and the order of samples and replay calls alone
//     (TestEngineDeterministicGivenSeed).
//
// Every write has one shape: lock → journal → mutate → publish → unlock
// (commitLocked for a batch, remove for a departure), then the caller
// waits for the fsync that covers its record (awaitDurable).
// ObserveAllTraced and ApplyLog differ only in that ApplyLog leaves the
// live accuracy tracker alone (a replayed log is not scored —
// SetAccuracy). The engine owns no goroutine, whatever journal is
// attached.
package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/obs"
	"github.com/qoslab/amf/internal/stream"
)

// Config is the engine's construction-time configuration. It has no
// fields: replay runs only when a caller asks for it (ReplaySteps). The
// type stays so that callers spell construction the same way as before.
type Config struct{}

// Stats is a point-in-time accounting snapshot of the engine.
type Stats struct {
	Applied       int64  // samples applied to the model
	Replayed      int64  // replay updates performed by/through the engine
	Published     int64  // views published
	Version       uint64 // current view version
	Updates       int64  // current view's model update count
	JournalErrors int64  // WAL appends that failed (model kept learning)
}

// ObserveTiming is the per-stage breakdown of one observe batch, returned
// by ObserveAllTraced for trace annotation.
type ObserveTiming struct {
	QueueWait  time.Duration // the caller's wait for the engine's mutex
	Journal    time.Duration // WAL append (zero without a journal)
	Apply      time.Duration // model update
	Publish    time.Duration // view rebuild + RCU publish
	CommitWait time.Duration // caller's wait for the covering fsync (zero without a durable journal)
}

// Metrics is the engine's latency instrumentation: two lock-free
// log-bucketed histograms (see internal/obs) that the engine always
// maintains — recording costs a few atomic adds, so there is no off
// switch. The server registers them for /metrics exposition; embedders
// can read quantiles directly.
type Metrics struct {
	// Apply is the per-update model apply latency (seconds): the time
	// inside the model's SGD step and nothing else — not the journal
	// append — for observed samples and replay updates alike. Batches are
	// timed once and the mean is attributed to each update in the batch
	// (obs.Histogram.ObserveN), so a write does not pay two clock reads
	// per SGD update.
	Apply *obs.Histogram
	// Publish is the view refresh+publish latency (seconds): the cost of
	// recloning dirty shards and swinging the RCU pointer.
	Publish *obs.Histogram
}

func newMetrics() *Metrics {
	return &Metrics{
		Apply:   obs.NewHistogram(1e-9, 60, 8),
		Publish: obs.NewHistogram(1e-9, 60, 8),
	}
}

// Engine serves a continuously trained AMF model: lock-free reads from a
// published view, updates serialized on a mutex the read path never
// touches. Construct with New; there is nothing to stop.
type Engine struct {
	// view is the RCU-published read state. Readers only ever Load, and
	// pin what they loaded while they read its pages (Pin).
	view atomic.Pointer[Pinned]

	// retired lists, oldest first, the publishes whose replaced pages have
	// not been recycled yet (recycleLocked); guarded by mu. escaped is the
	// newest version handed out for keeps (View, CheckpointView): no page
	// first published at or before it is recycled.
	retired []retiredView
	escaped atomic.Uint64

	// mu serializes ALL model mutation. The read path never acquires it.
	mu    sync.Mutex
	model *core.Model

	// journal is the optional write-ahead log (see Journal, SetJournal),
	// guarded by mu like all mutation state. journalErrs counts appends
	// that failed — the engine keeps serving, the store's fail-fast makes
	// the gap visible.
	journal     Journal
	journalErrs atomic.Int64

	// durJournal is non-nil when the attached journal implements
	// DurableJournal: whoever asked for a write then waits, after mu is
	// released, for the fsync covering its record. Guarded by mu.
	durJournal DurableJournal

	// acc is the optional live accuracy tracker (see SetAccuracy),
	// guarded by mu; the tracker itself is lock-free.
	acc *obs.AccuracyTracker

	applied   atomic.Int64
	replayed  atomic.Int64
	published atomic.Int64

	// metrics is read by scrapers without any lock.
	metrics *Metrics
}

// New wraps a model in a serving engine. The caller must not use the
// model directly afterwards.
func New(model *core.Model, _ Config) *Engine {
	e := &Engine{model: model, metrics: newMetrics()}
	e.view.Store(&Pinned{PredictView: model.BuildView()})
	return e
}

// SetAccuracy attaches the live accuracy tracker: from then on every
// sample that arrives through ObserveAllTraced is handed to it with the model's
// prediction from just before the sample was applied and the observed
// value — or as a miss when the user or the service is in no published
// view yet. Call it before serving traffic, like SetJournal.
func (e *Engine) SetAccuracy(t *obs.AccuracyTracker) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.acc = t
}

// Pinned is a published view as Pin hands it out: the view, whose methods
// it has, and the count of readers pinning it.
type Pinned struct {
	*core.PredictView
	pins atomic.Int32
}

// Pin returns the current published view and keeps the pages it can reach
// from being recycled until the matching Unpin. It is how a request-scoped
// reader — predict, batch, rank, flagged — reads: pin once per request for
// internally consistent results, unpin as soon as the answers are out of
// the view. A pinned view never changes. A reader that keeps the view
// past that uses View instead.
func (e *Engine) Pin() *Pinned {
	for {
		p := e.view.Load()
		p.pins.Add(1)
		// Dekker with the writer, which stores p's successor before
		// recycleLocked ever reads p's pins: if p is still current here,
		// that read comes after the add and sees it; if not, the writer
		// may have read the count before the add, so let go of p and take
		// its successor.
		if e.view.Load() == p {
			return p
		}
		p.pins.Add(-1)
	}
}

// Unpin releases a Pin; the view must not be read after it.
func (e *Engine) Unpin(p *Pinned) { p.pins.Add(-1) }

// View returns the current published view for keeps: it is immutable and
// stays valid however long it is held and however many publishes follow,
// because the pages it can reach are never recycled (it escapes the pin
// accounting). A reader done with the view within its request should Pin
// instead, so that recycling goes on.
func (e *Engine) View() *core.PredictView {
	p := e.Pin()
	e.escape(p.Version())
	e.Unpin(p)
	return p.PredictView
}

// escape raises the escape watermark to version: no page first published
// by a view at or before it is recycled from now on.
func (e *Engine) escape(version uint64) {
	for cur := e.escaped.Load(); cur < version && !e.escaped.CompareAndSwap(cur, version); cur = e.escaped.Load() {
	}
}

// ---------------------------------------------------------------------------
// Write paths.

// ObserveAllTraced applies a batch of observations on the caller's
// goroutine: it returns after the batch has been applied to the model, a
// fresh view has been published and — under a durable journal — the
// batch is on stable storage, so a subsequent View() reflects the
// observations: read-your-writes for both of the server's observe doors.
// It returns the per-stage breakdown of the call for distributed tracing:
// how long the batch waited for the mutex, the journal append, model
// apply and view publish durations, and the caller's own wait for the
// covering fsync.
func (e *Engine) ObserveAllTraced(ss []stream.Sample) ObserveTiming {
	return e.observe(ss, true)
}

// ApplyLog is ObserveAllTraced for samples that are someone's log being
// replayed into this engine — WAL recovery, a follower tailing its leader
// — rather than measurements a client just made: the same commit, except
// that the live accuracy tracker does not score them (the process that
// first accepted them did).
func (e *Engine) ApplyLog(ss []stream.Sample) { e.observe(ss, false) }

func (e *Engine) observe(ss []stream.Sample, scored bool) (t ObserveTiming) {
	start := time.Now()
	e.mu.Lock()
	t.QueueWait = time.Since(start)
	seq, dj := e.commitLocked(ss, scored, &t)
	e.mu.Unlock()
	start = time.Now()
	e.awaitDurable(dj, seq)
	t.CommitWait = time.Since(start)
	return t
}

// commitLocked takes one batch through every stage of a write that runs
// under mu — journal, apply, publish — timing each into t, and
// returns what its caller needs to wait for durability after the unlock.
// The publish is what gives callers read-your-writes.
func (e *Engine) commitLocked(ss []stream.Sample, scored bool, t *ObserveTiming) (uint64, DurableJournal) {
	var seq uint64
	seq, t.Journal, t.Apply = e.applyLocked(ss, scored)
	t.Publish = e.publishLocked()
	return seq, e.durJournal
}

// awaitDurable returns once record seq is durable (dj nil without a
// durable journal; seq 0 when nothing was journaled). It is the one place
// the engine waits for an fsync, and it is called without mu by whoever
// asked for the write — an observer, a remover — so no other write is
// stalled behind the disk, and the caller runs (or shares) the covering
// fsync itself, on its own goroutine. A rejection (fence, WAL failure,
// close) is counted, not returned: the engine keeps serving and the
// store's fail-fast makes the gap visible.
func (e *Engine) awaitDurable(dj DurableJournal, seq uint64) {
	if dj != nil && seq > 0 {
		if err := dj.WaitDurable(seq); err != nil {
			e.journalErrs.Add(1)
		}
	}
}

// ---------------------------------------------------------------------------
// Control operations: serialized with every write via mu, each publishes
// so their effects are immediately visible to readers.

// ReplaySteps performs up to n replay updates (Algorithm 1's inner loop)
// and republishes. It returns the number of steps performed.
func (e *Engine) ReplaySteps(n int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	done := e.replayLocked(n)
	if done > 0 {
		e.publishLocked()
	}
	return done
}

// AdvanceTo moves the model clock forward, expiring old replay samples.
func (e *Engine) AdvanceTo(t time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.model.AdvanceTo(t)
}

// RemoveUser forgets a user (churn departure) and republishes so the
// departure is immediately visible to readers. Like ObserveAllTraced it
// returns only once the removal is durable: acked ⇒ durable holds for
// departures too.
func (e *Engine) RemoveUser(id int) {
	e.remove(id, Journal.AppendRemoveUser, (*core.Model).RemoveUser)
}

// RemoveService forgets a service and republishes (see RemoveUser).
func (e *Engine) RemoveService(id int) {
	e.remove(id, Journal.AppendRemoveService, (*core.Model).RemoveService)
}

func (e *Engine) remove(id int, journal func(Journal, int) (uint64, error), purge func(*core.Model, int)) {
	e.mu.Lock()
	var seq uint64
	if e.journal != nil { // journal the departure before purging it
		if s, err := journal(e.journal, id); err != nil {
			e.journalErrs.Add(1)
		} else {
			seq = s
		}
	}
	purge(e.model, id)
	e.publishLocked()
	dj := e.durJournal
	e.mu.Unlock()
	e.awaitDurable(dj, seq)
}

// Restore atomically replaces the model with one reconstructed from a
// Snapshot and publishes a full rebuilt view. Readers see either the old
// or the new view, never an intermediate state.
func (e *Engine) Restore(data []byte) error {
	m, err := core.Restore(data)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.model = m
	// The old model's pages are nothing the new one can write into.
	clear(e.retired)
	e.retired = e.retired[:0]
	e.publishLocked() // RefreshView detects the swap and fully rebuilds
	return nil
}

// ---------------------------------------------------------------------------
// Read side: everything is served from Pin() or View(); what follows is
// accounting. It reads the current view's header fields, never its pages,
// under a pin — a publish writes its view into the header of one nobody
// pins — and never escapes it: a scraper polling it leaves recycling
// alone.

// Updates returns the published view's model update count.
func (e *Engine) Updates() int64 {
	p := e.Pin()
	defer e.Unpin(p)
	return p.Updates()
}

// Metrics returns the engine's latency histograms (always maintained;
// see Metrics). The server registers them on its /metrics registry.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// Stats returns the engine's accounting counters.
func (e *Engine) Stats() Stats {
	v := e.Pin()
	defer e.Unpin(v)
	return Stats{
		Applied:       e.applied.Load(),
		Replayed:      e.replayed.Load(),
		Published:     e.published.Load(),
		Version:       v.Version(),
		Updates:       v.Updates(),
		JournalErrors: e.journalErrs.Load(),
	}
}

// ---------------------------------------------------------------------------
// Under mu: the stages of a write.

// applyLocked is the one place samples reach the model, whichever door
// they came through (HTTP observe, the TCP stream, a replayed log): it
// journals the batch as one record BEFORE any of it touches the model —
// journal-before-apply, the recovery invariant (see Journal) — applies it
// in order, and books it. The model resolves the batch's users and
// services in one pass before it trains any sample, so their lookups'
// cache misses overlap. A scored batch (everything but ApplyLog) also
// feeds the live accuracy tracker, here rather than on the request's way
// in because the SGD step starts from the very prediction the tracker
// wants: each observed value is held against what the model predicted for
// the pair just before the sample trained it. It returns the journal
// sequence number covering the batch (0 when nothing was journaled) and
// how long the append and the model update took.
func (e *Engine) applyLocked(ss []stream.Sample, scored bool) (seq uint64, journal, apply time.Duration) {
	if len(ss) == 0 {
		return 0, 0, 0
	}
	jStart := time.Now()
	seq = e.journalSamplesLocked(ss)
	start := time.Now()
	if acc := e.acc; scored && acc != nil {
		e.model.ObserveAllScored(ss, acc)
	} else {
		e.model.ObserveAll(ss)
	}
	apply = time.Since(start)
	e.bookLocked(&e.applied, len(ss), apply)
	return seq, start.Sub(jStart), apply
}

// replayLocked performs up to n replay updates (Algorithm 1's "randomly
// pick an existing sample") and returns how many it did; it is the one
// caller of Model.ReplaySteps.
func (e *Engine) replayLocked(n int) int {
	if n <= 0 {
		return 0
	}
	start := time.Now()
	done := e.model.ReplaySteps(n)
	if done > 0 {
		e.bookLocked(&e.replayed, done, time.Since(start))
	}
	return done
}

// bookLocked accounts for n model updates that took dur together: the
// batch mean goes to the Apply histogram once per update.
func (e *Engine) bookLocked(counter *atomic.Int64, n int, dur time.Duration) {
	e.metrics.Apply.ObserveN(dur.Seconds()/float64(n), int64(n))
	counter.Add(int64(n))
}

// publishLocked recycles what earlier publishes replaced and no reader
// holds any more, builds the next view incrementally from the current one
// — into those pages — swings the atomic pointer (the RCU publish) and
// queues the view it replaced for a later publish to recycle. It returns
// how long that took.
func (e *Engine) publishLocked() time.Duration {
	start := time.Now()
	e.recycleLocked()
	prev := e.view.Load()
	v := e.model.RefreshView(prev.PredictView)
	e.view.Store(&Pinned{PredictView: v})
	e.retired = append(e.retired, retiredView{prev, v})
	e.published.Add(1)
	dur := time.Since(start)
	e.metrics.Publish.Observe(dur.Seconds())
	return dur
}

// retireBound is how many replaced views may wait behind a pinned one
// before recycleLocked stops waiting for it.
const retireBound = 64

// retiredView is one publish awaiting recycling: the view it replaced and
// the view that replaced it, which lists the pages of prev it copied away
// from.
type retiredView struct {
	prev *Pinned
	next *core.PredictView
}

// recycleLocked walks the retired publishes in publish order and recycles
// each whose replaced view no reader pins: core.Model.Recycle takes the
// pages it copied away from, less those an escaped view can reach, and the
// replaced view's header, unless that view escaped, for the next publish
// to write into. It runs at the start of a publish, so the
// readers of the view the last publish replaced have had a whole publish
// interval to unpin it. A pinned view stops the walk, since pages the
// publishes after it replaced can be ones it holds too. Once more than
// retireBound publishes wait behind it, it is escaped instead — its reader
// keeps a view that never changes, and only reuse is lost — so a leaked
// or slow pin costs neither memory nor safety.
func (e *Engine) recycleLocked() {
	n := 0
	for _, r := range e.retired {
		prev := r.prev.PredictView
		if r.prev.pins.Load() != 0 {
			if len(e.retired)-n <= retireBound {
				break
			}
			e.escape(r.prev.Version())
			prev = nil // its reader still reads the header
		}
		e.model.Recycle(prev, r.next, e.escaped.Load())
		n++
	}
	rest := copy(e.retired, e.retired[n:])
	clear(e.retired[rest:])
	e.retired = e.retired[:rest]
}
