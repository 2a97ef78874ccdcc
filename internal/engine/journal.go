package engine

import (
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/stream"
)

// Journal is the engine's write-ahead log hook, satisfied by
// *store.WAL. The writer loop journals every drained/synchronous batch
// BEFORE applying it to the model, and every churn removal before
// purging it — journal-before-apply, the invariant the recovery path
// depends on. Because journaling and applying happen under the same
// writer lock, "applied to the model" always implies "present in the
// journal", so a checkpoint that records the journal's last sequence
// number while the model is quiescent covers exactly the records it
// claims to (see CheckpointView).
//
// With the journal's fsync policy set to always, ObserveAll's ack
// additionally implies the batch is on stable storage: read-your-writes
// becomes durable-your-writes.
//
// The engine keeps serving when a journal append fails (availability
// over durability — the model still learns); failures are counted in
// Stats.JournalErrors and in the store's own error metric, and the
// store fails the log fast after the first lost write so the damage is
// visible rather than a silent gap.
type Journal interface {
	// AppendSamples journals one batch of observations, returning the
	// sequence number of the last record written. Implementations must
	// accept a batch of ANY size (store.WAL splits batches that exceed
	// its record bound across several records) — an acked batch must
	// never be rejected for its size, or durability silently breaks.
	AppendSamples(ss []stream.Sample) (seq uint64, err error)
	// AppendRemoveUser journals a user churn departure.
	AppendRemoveUser(id int) (seq uint64, err error)
	// AppendRemoveService journals a service churn departure.
	AppendRemoveService(id int) (seq uint64, err error)
	// LastSeq returns the sequence number of the newest record.
	LastSeq() uint64
}

// DurableJournal is the optional group-commit extension of Journal,
// satisfied by *store.WAL. When the attached journal implements it AND
// reports GroupCommit(), the engine pipelines synchronous acks: the
// writer loop journals a batch, applies it, and moves on to the next
// batch while the covering fsync is in flight; a separate completer
// parks on WaitDurable and releases each ObserveAll caller only once
// its records are on stable storage. Acked still implies durable — N
// concurrent observers just share one fsync instead of queueing one
// each under the writer lock.
type DurableJournal interface {
	Journal
	// GroupCommit reports whether appends are covered by a batched
	// fsync whose completion must be awaited via WaitDurable.
	GroupCommit() bool
	// WaitDurable blocks until the record with the given sequence
	// number is on stable storage (or the log is fenced/failed/closed,
	// in which case it returns the rejection).
	WaitDurable(seq uint64) error
}

// SetJournal attaches (or detaches, with nil) the write-ahead log. Call
// it after recovery replay and before serving traffic: replayed samples
// go through the normal observe path and must not be re-journaled, so
// the recovery sequence is replay first, attach second. (It must also
// not race Close — the same before-serving rule covers that.)
//
// A journal that implements DurableJournal with group commit enabled
// switches the engine to pipelined acks (see DurableJournal).
func (e *Engine) SetJournal(j Journal) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.journal = j
	e.durJournal = nil
	if dj, ok := j.(DurableJournal); ok && dj.GroupCommit() {
		e.durJournal = dj
		if e.acks == nil && !e.closed.Load() {
			e.acks = make(chan ackEntry, ackQueueDepth)
			e.wg.Add(1)
			go e.ackLoop(e.acks)
		}
	}
}

// journalSamplesLocked appends one batch to the journal, counting (and
// tolerating) failures, and returns the sequence number of the last
// record written (0 when nothing was journaled). Called under mu,
// always before the batch is applied to the model.
func (e *Engine) journalSamplesLocked(ss []stream.Sample) uint64 {
	if e.journal == nil || len(ss) == 0 {
		return 0
	}
	seq, err := e.journal.AppendSamples(ss)
	if err != nil {
		e.journalErrs.Add(1)
		return 0
	}
	return seq
}

// ackQueueDepth bounds the completer's queue of in-flight synchronous
// batches. When it fills (more concurrent observers than slots), the
// writer completes the batch inline — backpressure, not loss.
const ackQueueDepth = 1024

// ackEntry is one synchronous batch whose caller is waiting for the
// covering group fsync.
type ackEntry struct {
	seq uint64
	sb  syncBatch
	j   DurableJournal
}

// ackLoop is the pipelined-ack completer: it parks on the durable
// commit index for each journaled sync batch, in writer order, and
// releases the ObserveAll caller once the batch is on stable storage.
// The writer closes the channel at exit after its final drain, so every
// taken batch's done channel is guaranteed closed once e.wg drains —
// the invariant observeAll's shutdown fallback relies on.
func (e *Engine) ackLoop(acks chan ackEntry) {
	defer e.wg.Done()
	for a := range acks {
		e.completeAck(a)
	}
}

// completeAck waits out the covering fsync and releases the caller. A
// WaitDurable rejection (fence, WAL failure, close) is counted like any
// other journal error — the engine keeps serving; the store's fail-fast
// makes the durability gap visible.
func (e *Engine) completeAck(a ackEntry) {
	var start time.Time
	if a.sb.timing != nil {
		start = time.Now()
	}
	if err := a.j.WaitDurable(a.seq); err != nil {
		e.journalErrs.Add(1)
	}
	if a.sb.timing != nil {
		a.sb.timing.CommitWait = time.Since(start)
	}
	close(a.sb.done)
}

// CheckpointView publishes any pending model updates and returns, from
// a single critical section, the journal's last sequence number paired
// with the just-published view. Because the writer journals and applies
// under the same lock, the returned view reflects every record with
// seq <= the returned value and — crucially — no sample or removal
// record with a greater one. Snapshotting THAT view (not whatever view
// is current when the caller gets around to serializing) is what makes
// a checkpoint's (seq, blob) pair consistent: a drain that lands
// between reading the sequence number and snapshotting would otherwise
// train samples with seq > checkpoint-seq into the blob, and recovery
// would replay those same records into the restored model — double-
// training. This is the capture hook the store.Manager checkpointer
// builds on. Seq is 0 when no journal is attached.
func (e *Engine) CheckpointView() (uint64, *core.PredictView) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sincePublish > 0 {
		e.publishLocked()
	}
	var seq uint64
	if e.journal != nil {
		seq = e.journal.LastSeq()
	}
	return seq, e.view.Load()
}
