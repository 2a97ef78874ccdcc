// Package engine is the serving engine of the QoS prediction service: it
// makes the prediction hot path lock-free and the update path
// asynchronous.
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
//     to the collector; pages an escaped view can reach never are.
//     Readers simply observe slightly stale factors, bounded by the
//     publish policy below.
//
//   - A single-coordinator update loop with sharded ingest. Observations
//     enter bounded per-shard channels (drop-oldest under overload, with
//     accounting), are drained in batches by one writer goroutine that
//     applies them to the model, interleaves ReplayStep work
//     (Algorithm 1 lines 11-15), and republishes a fresh view every
//     PublishEvery updates or PublishInterval, whichever comes first.
//     Republication is incremental: only the factor pages holding an
//     entity touched since the last publish are copied (see
//     core.Model.RefreshView). Training is strictly sequential, as in
//     Algorithm 1: every sample reaches the model through applyLocked
//     and every replay update through replayLocked, one at a time under
//     the writer's mutex, so the trained model is a function of the
//     seed and the order of samples and replay calls alone
//     (TestEngineDeterministicGivenSeed).
//
// Two doors into that loop exist on purpose. EnqueueClass is
// fire-and-forget with backpressure accounting — the high-frequency
// stream-ingest path, one sample at a time (the TCP ingest sink is its
// one product caller). ObserveAll is synchronous: it hands the batch to
// the writer and waits until the batch is applied AND a fresh view is
// published, giving HTTP clients read-your-writes semantics; replication
// apply and WAL replay take the same commit under the name ApplyLog,
// which differs only in leaving the live accuracy tracker alone (the
// writer scores what clients measured, not a log being replayed —
// SetAccuracy). Control operations (Restore, RemoveUser, ReplaySteps,
// ...) serialize with the writer on a mutex that the read path never
// touches.
//
// Every synchronous write has one shape: under the mutex, drain what was
// accepted earlier → journal → mutate → publish (commitLocked for a
// batch, remove for a departure); then the mutex is released and the
// caller — never the writer — waits for the fsync that covers its record
// (awaitDurable). The engine owns exactly one goroutine, whatever
// journal is attached.
package engine

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/qoslab/amf/internal/control"
	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/obs"
	"github.com/qoslab/amf/internal/stream"
)

// Config tunes the serving engine. The zero value gets sensible defaults,
// and the defaults are what ships: no amfserver flag feeds these fields
// (the tunables they seed move at runtime through PUT /api/v1/config and
// the epoch controller). They stay because tests set them to reach the
// queue-overflow, shard-routing and publish-cadence edges.
type Config struct {
	// QueueSize bounds each ingest shard's channel. When a shard is
	// full, Enqueue drops the oldest queued sample to admit the new one
	// (freshest-data-wins, matching the model's own expiry semantics).
	// Default 4096.
	QueueSize int
	// IngestShards is the number of ingest channels; producers are
	// sharded by user ID to spread channel-lock contention. Rounded up
	// to a power of two. Default 8.
	IngestShards int
	// PublishEvery republishes the read view after this many model
	// updates (K). Default 256.
	PublishEvery int
	// PublishInterval republishes at least this often while updates are
	// pending (T); the worst-case staleness of the published view is
	// ~2·T. Also the writer's housekeeping tick. Default 50ms.
	PublishInterval time.Duration
	// ReplayPerBatch interleaves up to this many ReplayStep updates
	// (Algorithm 1's "randomly pick an existing sample") after each
	// drained ingest batch, keeping the model converging between
	// arrivals without a separate replay loop. Default 0 (replay is
	// driven externally via ReplaySteps / server.RunReplay).
	ReplayPerBatch int
	// Control, when non-nil, is the runtime-tunable registry the engine
	// declares its adaptive knobs on (publish interval/quantum, ingest
	// batch cap, replay per batch, per-class admission watermarks). The
	// Config fields above seed the *baselines*; after construction the
	// writer loop reads the live values through the registry, so an
	// epoch controller or the config API can move them within bounds at
	// runtime. Nil gets a private registry — the engine then behaves
	// exactly like the frozen-Config engine it replaced.
	Control *control.Registry
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 4096
	}
	if c.IngestShards <= 0 {
		c.IngestShards = 8
	}
	// Round shards up to a power of two so sharding is a mask.
	n := 1
	for n < c.IngestShards {
		n <<= 1
	}
	c.IngestShards = n
	if c.PublishEvery <= 0 {
		c.PublishEvery = 256
	}
	if c.PublishInterval <= 0 {
		c.PublishInterval = 50 * time.Millisecond
	}
	if c.ReplayPerBatch < 0 {
		c.ReplayPerBatch = 0
	}
	return c
}

// Stats is a point-in-time accounting snapshot of the engine.
type Stats struct {
	Enqueued      int64  // samples accepted into the ingest queue
	Dropped       int64  // samples dropped under overload (DroppedNew + DroppedOldest)
	DroppedNew    int64  // incoming samples shed after the drop-oldest spin gave up
	DroppedOldest int64  // queued samples evicted to admit fresher ones
	ShedStandard  int64  // standard-class samples refused at the admission watermark
	ShedSheddable int64  // sheddable-class samples refused at the admission watermark
	Applied       int64  // samples applied to the model (ingest + sync batches)
	Replayed      int64  // replay updates performed by/through the engine
	Published     int64  // views published
	QueueLen      int    // samples currently queued across all shards
	QueueCap      int    // total queue capacity across all shards
	Version       uint64 // current view version
	Updates       int64  // current view's model update count
	JournalErrors int64  // WAL appends that failed (model kept learning)
}

// syncBatch is one synchronous observe on its way through the writer. It
// travels by pointer: the caller fills samples, scored and enq,
// commitLocked fills the rest, and the caller reads it back once done is
// closed.
type syncBatch struct {
	samples []stream.Sample
	scored  bool      // a client measured these: score them live (SetAccuracy)
	enq     time.Time // when the caller handed it over
	done    chan struct{}

	timing ObserveTiming
	// seq is the journal record covering the batch (0 when nothing was
	// journaled) and dj the durable journal it went to (nil otherwise):
	// what the caller passes to awaitDurable.
	seq uint64
	dj  DurableJournal
}

// ObserveTiming is the per-stage breakdown of one synchronous observe
// batch, returned by ObserveAllTraced for trace annotation.
type ObserveTiming struct {
	QueueWait  time.Duration // enqueue → writer starts applying the batch
	Journal    time.Duration // WAL append (zero without a journal)
	Apply      time.Duration // model update
	Publish    time.Duration // view rebuild + RCU publish
	CommitWait time.Duration // caller's wait for the covering fsync (zero unless fsync=group)
}

// queued is one ingest-queue entry: the sample plus its enqueue time
// (UnixNano), so the writer can attribute queue-wait latency on drain.
type queued struct {
	s   stream.Sample
	enq int64
}

// Metrics is the engine's latency instrumentation: three lock-free
// log-bucketed histograms (see internal/obs) that the engine always
// maintains — recording costs a few atomic adds, so there is no off
// switch. The server registers them for /metrics exposition; embedders
// can read quantiles directly.
type Metrics struct {
	// QueueWait is the time samples spent in the ingest queue between
	// Enqueue and the writer picking them up (seconds).
	QueueWait *obs.Histogram
	// Apply is the per-update model apply latency (seconds): the time
	// inside the model's SGD step and nothing else — not the channel
	// drain, not the journal append — for observed samples and replay
	// updates alike. Batches are timed once and the mean is attributed to
	// each update in the batch (obs.Histogram.ObserveN), so the writer
	// does not pay two clock reads per SGD update.
	Apply *obs.Histogram
	// Publish is the view refresh+publish latency (seconds): the cost of
	// recloning dirty shards and swinging the RCU pointer.
	Publish *obs.Histogram
}

func newMetrics() *Metrics {
	return &Metrics{
		QueueWait: obs.NewHistogram(1e-9, 60, 8),
		Apply:     obs.NewHistogram(1e-9, 60, 8),
		Publish:   obs.NewHistogram(1e-9, 60, 8),
	}
}

// Engine serves a continuously trained AMF model: lock-free reads from a
// published view, asynchronous single-writer updates. Construct with New,
// stop with Close.
type Engine struct {
	cfg Config

	// view is the RCU-published read state. Readers only ever Load, and
	// pin what they loaded while they read its pages (Pin).
	view atomic.Pointer[Pinned]

	// retired lists, oldest first, the publishes whose replaced pages have
	// not been recycled yet (recycleLocked); guarded by mu. escaped is the newest version handed out for keeps
	// (View, CheckpointView): no page first published at or before it is
	// recycled.
	retired []retiredView
	escaped atomic.Uint64

	// mu serializes ALL model mutation: the writer loop's batch applies
	// and every control operation. The read path never acquires it.
	mu    sync.Mutex
	model *core.Model

	// journal is the optional write-ahead log (see Journal, SetJournal),
	// guarded by mu like all mutation state. drainBuf is the writer
	// loop's reusable scratch for collecting a drained batch, so that it
	// is journaled as one record and applied as one batch. journalErrs
	// counts appends that failed — the engine keeps serving, the store's
	// fail-fast makes the gap visible.
	journal     Journal
	drainBuf    []stream.Sample
	journalErrs atomic.Int64

	// durJournal is non-nil when the attached journal implements
	// DurableJournal: whoever asked for a write then waits, after mu is
	// released, for the fsync covering its record. Guarded by mu.
	durJournal DurableJournal

	// acc is the optional live accuracy tracker (see SetAccuracy),
	// guarded by mu; the tracker itself is lock-free.
	acc *obs.AccuracyTracker

	// publish bookkeeping, guarded by mu.
	sincePublish int       // model updates since the last publish
	lastPublish  time.Time // wall time of the last publish

	shards []chan queued
	syncCh chan *syncBatch
	wake   chan struct{}
	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	enqueued      atomic.Int64
	droppedNew    atomic.Int64
	droppedOldest atomic.Int64
	shedStandard  atomic.Int64
	shedSheddable atomic.Int64
	applied       atomic.Int64
	replayed      atomic.Int64
	published     atomic.Int64

	// Control-plane tunables (see Config.Control). The writer loop and
	// admission checks read these with one atomic load each; the Config
	// fields they were seeded from are never consulted again after New.
	ctl                *control.Registry
	tunPublishInterval *control.Duration
	tunPublishEvery    *control.Int
	tunBatchCap        *control.Int
	tunReplayPerBatch  *control.Int
	tunAdmitStandard   *control.Float
	tunAdmitSheddable  *control.Float

	// Observability (read by scrapers without any lock): latency
	// histograms plus atomic mirrors of the mu-guarded publish
	// bookkeeping so Staleness never contends with the writer.
	metrics         *Metrics
	pending         atomic.Int64 // updates since the last publish (mirror of sincePublish)
	lastPublishNano atomic.Int64 // UnixNano of the last publish
}

// New wraps a model in a serving engine and starts its writer goroutine.
// The caller must not use the model directly afterwards. Close releases
// the writer.
func New(model *core.Model, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:     cfg,
		model:   model,
		shards:  make([]chan queued, cfg.IngestShards),
		syncCh:  make(chan *syncBatch),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		metrics: newMetrics(),
	}
	e.registerTunables()
	for i := range e.shards {
		e.shards[i] = make(chan queued, cfg.QueueSize)
	}
	e.view.Store(&Pinned{PredictView: model.BuildView()})
	e.lastPublish = time.Now()
	e.lastPublishNano.Store(e.lastPublish.UnixNano())
	e.wg.Add(1)
	go e.loop()
	return e
}

// registerTunables declares the engine's adaptive knobs on the control
// registry (cfg.Control, or a private one). Bounds scale with the
// operator's baseline — a controller may trade freshness for throughput
// by up to 64× in either direction, but never invert the operator's
// intent by orders of magnitude.
func (e *Engine) registerTunables() {
	ctl := e.cfg.Control
	if ctl == nil {
		ctl = control.NewRegistry()
	}
	e.ctl = ctl
	ivl := e.cfg.PublishInterval
	e.tunPublishInterval = ctl.Duration("engine.publish_interval",
		"View republish deadline T; the epoch controller widens it under overload to spend less writer time recloning views.",
		ivl, ivl/64, ivl*64, control.SourceDefault)
	every := e.cfg.PublishEvery
	minEvery := every / 64
	if minEvery < 1 {
		minEvery = 1
	}
	e.tunPublishEvery = ctl.Int("engine.publish_every",
		"View republish quantum K (updates between republishes).",
		every, minEvery, every*64, control.SourceDefault)
	batch := every
	if batch < 64 {
		batch = 64
	}
	e.tunBatchCap = ctl.Int("engine.ingest_batch_cap",
		"Max queued samples drained per writer pass; the epoch controller raises it under overload to amortize per-batch costs.",
		batch, 64, batch*64, control.SourceDefault)
	replay := e.cfg.ReplayPerBatch
	maxReplay := replay * 64
	if maxReplay < 1024 {
		maxReplay = 1024
	}
	e.tunReplayPerBatch = ctl.Int("engine.replay_per_batch",
		"Replay updates interleaved after each drained ingest batch; shed first under overload (replay is optional work).",
		replay, 0, maxReplay, control.SourceDefault)
	e.tunAdmitStandard = ctl.Float("engine.admit_standard_watermark",
		"Ingest-shard occupancy above which standard-class enqueues are refused.",
		0.95, 0.05, 1.0, control.SourceDefault)
	e.tunAdmitSheddable = ctl.Float("engine.admit_sheddable_watermark",
		"Ingest-shard occupancy above which sheddable-class enqueues are refused; the epoch controller lowers it to widen shedding.",
		0.90, 0.05, 1.0, control.SourceDefault)
}

// SetAccuracy attaches the live accuracy tracker: from then on the writer
// hands it, for every sample that arrives through ObserveAll or the
// ingest queue, the model's prediction from just before the sample was
// applied and the observed value — or a miss when the user or the service
// is in no published view yet. Call it before serving traffic, like
// SetJournal.
func (e *Engine) SetAccuracy(t *obs.AccuracyTracker) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.acc = t
}

// Control returns the engine's runtime-tunable registry (the one passed
// in Config.Control, or the private default). The server hangs its own
// admission tunables, the config API, and the epoch controller off it.
func (e *Engine) Control() *control.Registry { return e.ctl }

// Closed reports whether Close has begun. Ingest producers use it to
// distinguish "engine shutting down" (fall back to ObserveAll) from
// "admission refused" (shed the sample).
func (e *Engine) Closed() bool { return e.closed.Load() }

// Close stops the writer goroutine after a final drain-and-publish, so
// samples accepted before Close are reflected in the last published view.
// The engine remains readable after Close; ObserveAll and control
// operations fall back to applying inline.
func (e *Engine) Close() {
	if e.closed.CompareAndSwap(false, true) {
		close(e.stop)
	}
	e.wg.Wait()
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
// Ingest (async) and observe (sync) write paths.

func (e *Engine) shardFor(user int) chan queued {
	return e.shards[user&(len(e.shards)-1)]
}

// Enqueue admits one observation into the bounded ingest queue without
// waiting for it to be applied — the high-frequency streaming path. Under
// overload the oldest queued sample in the shard is dropped to admit the
// new one (the model prefers fresh data anyway; its replay pool expires
// old samples). It reports whether the new sample was admitted; drops of
// either kind are counted in Stats.Dropped.
func (e *Engine) Enqueue(s stream.Sample) bool {
	return e.EnqueueClass(s, control.Critical)
}

// EnqueueClass is Enqueue with bounded-queue admission by SLO class:
// critical samples are always admitted (up to drop-oldest, exactly the
// old Enqueue semantics), standard and sheddable samples are refused —
// not enqueued, counted in Stats.ShedStandard/ShedSheddable — once
// their shard's occupancy crosses the class watermark tunable. Refusing
// at a watermark below 100% keeps headroom for more important classes
// and sheds *new* low-value work instead of churning the queue with
// drop-oldest evictions.
func (e *Engine) EnqueueClass(s stream.Sample, class control.Class) bool {
	if e.closed.Load() {
		return false
	}
	ch := e.shardFor(s.User)
	if !e.admitOn(ch, class) {
		return false
	}
	if !e.enqueueOn(ch, queued{s: s, enq: time.Now().UnixNano()}) {
		return false
	}
	e.signal()
	return true
}

// admitOn checks one shard's occupancy against the class watermark,
// counting refused samples per class.
func (e *Engine) admitOn(ch chan queued, class control.Class) bool {
	var wm float64
	switch class {
	case control.Critical:
		return true
	case control.Standard:
		wm = e.tunAdmitStandard.Load()
	default:
		wm = e.tunAdmitSheddable.Load()
	}
	if float64(len(ch)) < wm*float64(cap(ch)) {
		return true
	}
	if class == control.Standard {
		e.shedStandard.Add(1)
	} else {
		e.shedSheddable.Add(1)
	}
	return false
}

// enqueueOn admits one entry into a shard channel with drop-oldest
// semantics, without signaling the writer. Drops are split by reason:
// droppedOldest counts queued samples evicted to admit fresher ones,
// droppedNew counts incoming samples shed after the eviction spin gave up.
func (e *Engine) enqueueOn(ch chan queued, q queued) bool {
	for tries := 0; ; tries++ {
		select {
		case ch <- q:
			e.enqueued.Add(1)
			return true
		default:
		}
		if tries >= 4 {
			// Contended producers kept refilling the slot we freed;
			// shed the new sample instead of spinning.
			e.droppedNew.Add(1)
			return false
		}
		// Drop the oldest queued sample to make room.
		select {
		case <-ch:
			e.droppedOldest.Add(1)
		default:
		}
	}
}

// ObserveAll applies a batch synchronously: it returns after the batch
// (and what was queued before it) has been applied to the model, a fresh
// view has been published and — under a durable journal — the batch
// is on stable storage, so a subsequent View() reflects the observations:
// read-your-writes for the HTTP observe endpoint. The batch is applied by
// the writer goroutine; callers only wait.
func (e *Engine) ObserveAll(ss []stream.Sample) { e.ObserveAllTraced(ss) }

// ObserveAllTraced is ObserveAll returning the per-stage breakdown of the
// call for distributed tracing: how long the batch waited for the writer,
// the journal append, model apply and view publish durations, and the
// caller's own wait for the covering fsync.
func (e *Engine) ObserveAllTraced(ss []stream.Sample) ObserveTiming {
	return e.observe(ss, true)
}

// ApplyLog is ObserveAll for samples that are someone's log being
// replayed into this engine — WAL recovery, a leader's replication stream
// — rather than measurements a client just made: the same commit, except
// that the live accuracy tracker does not score them (the process that
// first accepted them did).
func (e *Engine) ApplyLog(ss []stream.Sample) { e.observe(ss, false) }

func (e *Engine) observe(ss []stream.Sample, scored bool) ObserveTiming {
	sb := &syncBatch{samples: ss, scored: scored, enq: time.Now(), done: make(chan struct{})}
	select {
	case e.syncCh <- sb:
		// The channel is unbuffered, so the writer has the batch, and it
		// finishes what it has taken before it looks at stop again.
		<-sb.done
	case <-e.stop:
		// Post-Close fallback: the writer is gone, so commit under mu
		// directly once it has exited.
		e.wg.Wait()
		e.mu.Lock()
		e.commitLocked(sb)
		e.mu.Unlock()
	}
	start := time.Now()
	e.awaitDurable(sb.dj, sb.seq)
	sb.timing.CommitWait = time.Since(start)
	return sb.timing
}

// commitLocked takes one synchronous batch through every stage of a write
// that runs under mu — drain what was accepted before it, journal, apply,
// replay, publish — timing each, and leaves on the batch what its caller
// needs to wait for durability after the unlock. The force-publish is
// what gives sync callers read-your-writes.
func (e *Engine) commitLocked(sb *syncBatch) {
	e.drainLocked(e.tunBatchCap.Load()) // queue order: async samples first
	t := &sb.timing
	// Queue wait = hand-over until the writer turns to the batch, the
	// async backlog drained ahead of it included.
	t.QueueWait = time.Since(sb.enq)
	sb.seq, t.Journal, t.Apply = e.applyLocked(sb.samples, sb.scored)
	e.replayLocked(e.tunReplayPerBatch.Load())
	t.Publish = e.publishLocked()
	sb.dj = e.durJournal
}

// awaitDurable returns once record seq is as durable as the journal's
// policy promises (dj nil without a durable journal; seq 0 when nothing
// was journaled). It is the one place the engine waits for an fsync, and
// it is called without mu by whoever asked for the write — an observer, a
// remover — so the writer is never stalled behind the disk, and under
// fsync=group the caller runs (or shares) the covering fsync itself, on
// its own goroutine. A rejection (fence, WAL failure, close) is counted,
// not returned: the engine keeps serving and the store's fail-fast makes
// the gap visible.
func (e *Engine) awaitDurable(dj DurableJournal, seq uint64) {
	if dj != nil && seq > 0 {
		if err := dj.WaitDurable(seq); err != nil {
			e.journalErrs.Add(1)
		}
	}
}

// ---------------------------------------------------------------------------
// Control operations: serialized with the writer via mu, each force-publishes
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
// departure is immediately visible to readers. Like ObserveAll it
// returns only once the removal is as durable as the journal's policy
// promises: acked ⇒ durable holds for departures too.
func (e *Engine) RemoveUser(id int) {
	e.remove(id, Journal.AppendRemoveUser, (*core.Model).RemoveUser)
}

// RemoveService forgets a service and republishes (see RemoveUser).
func (e *Engine) RemoveService(id int) {
	e.remove(id, Journal.AppendRemoveService, (*core.Model).RemoveService)
}

func (e *Engine) remove(id int, journal func(Journal, int) (uint64, error), purge func(*core.Model, int)) {
	e.mu.Lock()
	// Everything accepted before the departure goes first, whatever the
	// backlog: a queued sample applied after the purge would re-create the
	// entity under an id nothing resolves to, in the model and in the WAL.
	e.drainLocked(math.MaxInt)
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
// so it neither pins nor escapes: a scraper polling it leaves recycling
// alone.

// Updates returns the published view's model update count.
func (e *Engine) Updates() int64 { return e.view.Load().Updates() }

// Metrics returns the engine's latency histograms (always maintained;
// see Metrics). The server registers them on its /metrics registry.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// Staleness reports how far behind the published view is: the age of the
// last publish while model updates are pending, and 0 when the view is
// current. It reads two atomics and never contends with the writer, so
// scrapers can poll it freely; under the default publish policy it stays
// below ~2·PublishInterval.
func (e *Engine) Staleness() time.Duration {
	if e.pending.Load() == 0 {
		return 0
	}
	d := time.Duration(time.Now().UnixNano() - e.lastPublishNano.Load())
	if d < 0 {
		d = 0
	}
	return d
}

// Stats returns accounting counters for the ingest queue and publisher.
func (e *Engine) Stats() Stats {
	v := e.view.Load()
	queued := 0
	for _, ch := range e.shards {
		queued += len(ch)
	}
	dn, do := e.droppedNew.Load(), e.droppedOldest.Load()
	return Stats{
		Enqueued:      e.enqueued.Load(),
		Dropped:       dn + do,
		DroppedNew:    dn,
		DroppedOldest: do,
		ShedStandard:  e.shedStandard.Load(),
		ShedSheddable: e.shedSheddable.Load(),
		Applied:       e.applied.Load(),
		Replayed:      e.replayed.Load(),
		Published:     e.published.Load(),
		QueueLen:      queued,
		QueueCap:      len(e.shards) * e.cfg.QueueSize,
		Version:       v.Version(),
		Updates:       v.Updates(),
		JournalErrors: e.journalErrs.Load(),
	}
}

// ---------------------------------------------------------------------------
// The writer loop.

func (e *Engine) signal() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

func (e *Engine) loop() {
	defer e.wg.Done()
	ivl := e.tunPublishInterval.Load()
	ticker := time.NewTicker(ivl)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			// Final drain so accepted samples make the last view.
			e.mu.Lock()
			e.drainLocked(e.tunBatchCap.Load())
			e.publishLocked()
			e.mu.Unlock()
			return
		case sb := <-e.syncCh:
			e.mu.Lock()
			e.commitLocked(sb)
			e.mu.Unlock()
			// Released before the covering fsync lands: the caller waits
			// for that itself, this loop moves straight on to the next batch.
			close(sb.done)
		case <-e.wake:
			e.mu.Lock()
			e.drainLocked(e.tunBatchCap.Load())
			e.replayLocked(e.tunReplayPerBatch.Load())
			e.publishIfDueLocked()
			e.mu.Unlock()
		case <-ticker.C:
			// The housekeeping tick is where an adapted publish interval
			// takes effect: cheap (one atomic load per tick), and an
			// epoch's worth of delay to react is fine for a knob that
			// trades freshness for throughput.
			if cur := e.tunPublishInterval.Load(); cur != ivl {
				ivl = cur
				ticker.Reset(ivl)
			}
			e.mu.Lock()
			e.drainLocked(e.tunBatchCap.Load())
			e.publishIfDueLocked()
			e.mu.Unlock()
		}
	}
}

// drainLocked collects up to budget queued samples into drainBuf and hands
// them to applyLocked as one batch: one journal record, one timed apply.
// The writer's passes spend the ingest_batch_cap tunable (baseline: one
// publish quantum K) so a firehose cannot monopolize the writer and starve
// publication; leftovers re-signal the loop, which publishes between
// drains via publishIfDueLocked. Each shard gives up what it holds as the
// sweep reaches it and no more — everything accepted before the drain
// began, and a bound no producer can move, which is what lets a removal
// drain without a budget. Queue-wait latency is measured against the
// drain start (a lower bound for samples drained later in the batch).
func (e *Engine) drainLocked(budget int) {
	startNano := time.Now().UnixNano()
	e.drainBuf = e.drainBuf[:0]
	for _, ch := range e.shards {
		for n := min(len(ch), budget-len(e.drainBuf)); n > 0; n-- {
			select {
			case q := <-ch:
				if wait := startNano - q.enq; wait > 0 {
					e.metrics.QueueWait.Observe(float64(wait) / 1e9)
				} else {
					e.metrics.QueueWait.Observe(0)
				}
				e.drainBuf = append(e.drainBuf, q.s)
			default: // a drop-oldest producer evicted it first
			}
		}
	}
	e.applyLocked(e.drainBuf, true) // the async door is a client door
	if len(e.drainBuf) >= budget {
		// Budget exhausted with samples possibly remaining: come back soon.
		e.signal()
	}
}

// applyLocked is the one place samples reach the model, whichever door
// they came through (drained ingest, sync batch, post-Close inline): it
// journals the batch as one record BEFORE any of it touches the model —
// journal-before-apply, the recovery invariant (see Journal) — applies it
// in order, and books it. A scored batch (every door but ApplyLog) also
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
		for _, s := range ss {
			if prior, ok := e.model.ObservePrior(s); ok {
				acc.Record(prior, s.Value)
			} else {
				acc.RecordMiss()
			}
		}
	} else {
		e.model.ObserveAll(ss)
	}
	apply = time.Since(start)
	e.bookLocked(&e.applied, len(ss), apply)
	return seq, start.Sub(jStart), apply
}

// replayLocked performs up to n replay updates (Algorithm 1's "randomly
// pick an existing sample") and returns how many it did; it is the one
// caller of Model.ReplayStep.
func (e *Engine) replayLocked(n int) int {
	if n <= 0 {
		return 0
	}
	start := time.Now()
	done := 0
	for done < n && e.model.ReplayStep() {
		done++
	}
	if done > 0 {
		e.bookLocked(&e.replayed, done, time.Since(start))
	}
	return done
}

// bookLocked accounts for n model updates that took dur together: the
// batch mean goes to the Apply histogram once per update, and the updates
// count towards the next publish.
func (e *Engine) bookLocked(counter *atomic.Int64, n int, dur time.Duration) {
	e.metrics.Apply.ObserveN(dur.Seconds()/float64(n), int64(n))
	counter.Add(int64(n))
	e.sincePublish += n
	e.pending.Add(int64(n))
}

// publishIfDueLocked republishes when K updates have accumulated or the
// oldest pending update is older than T.
func (e *Engine) publishIfDueLocked() {
	if e.sincePublish == 0 {
		return
	}
	if e.sincePublish >= e.tunPublishEvery.Load() || time.Since(e.lastPublish) >= e.tunPublishInterval.Load() {
		e.publishLocked()
	}
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
	e.sincePublish = 0
	e.lastPublish = time.Now()
	dur := e.lastPublish.Sub(start)
	e.metrics.Publish.Observe(dur.Seconds())
	e.pending.Store(0)
	e.lastPublishNano.Store(e.lastPublish.UnixNano())
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
// pages it copied away from, less those an escaped view can reach, for the
// next publish to write into. It runs at the start of a publish, so the
// readers of the view the last publish replaced have had a whole publish
// interval to unpin it. A pinned view stops the walk, since pages the
// publishes after it replaced can be ones it holds too. Once more than
// retireBound publishes wait behind it, it is escaped instead — its reader
// keeps a view that never changes, and only reuse is lost — so a leaked
// or slow pin costs neither memory nor safety.
func (e *Engine) recycleLocked() {
	n := 0
	for _, r := range e.retired {
		if r.prev.pins.Load() != 0 {
			if len(e.retired)-n <= retireBound {
				break
			}
			e.escape(r.prev.Version())
		}
		e.model.Recycle(r.next, e.escaped.Load())
		n++
	}
	rest := copy(e.retired, e.retired[n:])
	clear(e.retired[rest:])
	e.retired = e.retired[:rest]
}
