package engine

import (
	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/stream"
)

// Journal is the engine's write-ahead log hook, satisfied by
// *store.WAL. Every write journals its batch BEFORE applying it to the
// model, and every churn removal before purging it — journal-before-apply,
// the invariant the recovery path depends on. Because journaling and
// applying happen under the same lock, "applied to the model" always implies "present in the
// journal", so a checkpoint that records the journal's last sequence
// number while the model is quiescent covers exactly the records it
// claims to (see CheckpointView).
//
// With a DurableJournal whose policy promises durability (store.WAL
// under fsync=group), an ack — an observe's or a removal's — additionally
// implies the record is on stable storage: read-your-writes becomes
// durable-your-writes. The caller waits for the covering fsync after it
// has let go of the engine's lock (see DurableJournal).
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

// DurableJournal is the optional durability extension of Journal,
// satisfied by *store.WAL. When the attached journal implements it, acks
// are pipelined: a write journals its batch, applies it, publishes and
// unlocks, so the next write can start; each caller — observer or remover
// — then calls WaitDurable itself (Engine.awaitDurable) and returns only
// once its record is as durable as the journal's policy promises. The
// engine does not know the policy: store.WAL runs (or shares) the
// covering fsync under fsync=group and returns at once under interval.
type DurableJournal interface {
	Journal
	// WaitDurable blocks until the record with the given sequence
	// number is durable by the journal's policy (or the log is
	// fenced/failed/closed, in which case it returns the rejection).
	WaitDurable(seq uint64) error
}

// SetJournal attaches (or detaches, with nil) the write-ahead log. Call
// it after recovery replay and before serving traffic: replayed samples
// go through the normal observe path and must not be re-journaled, so
// the recovery sequence is replay first, attach second.
//
// A journal that implements DurableJournal makes every acked write wait
// in its WaitDurable (see DurableJournal); nothing else about the engine
// changes.
func (e *Engine) SetJournal(j Journal) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.journal = j
	e.durJournal, _ = j.(DurableJournal)
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

// CheckpointView returns, from a single critical section, the journal's
// last sequence number paired with the published view. Because every
// write journals, applies and publishes under the same lock, the returned
// view reflects every record with
// seq <= the returned value and — crucially — no sample or removal
// record with a greater one. Snapshotting THAT view (not whatever view
// is current when the caller gets around to serializing) is what makes
// a checkpoint's (seq, blob) pair consistent: a write that lands
// between reading the sequence number and snapshotting would otherwise
// train samples with seq > checkpoint-seq into the blob, and recovery
// would replay those same records into the restored model — double-
// training. This is the capture hook the store.Manager checkpointer
// builds on. Seq is 0 when no journal is attached. The view escapes, as
// View's does: it stays valid however long serializing it takes.
func (e *Engine) CheckpointView() (uint64, *core.PredictView) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var seq uint64
	if e.journal != nil {
		seq = e.journal.LastSeq()
	}
	v := e.view.Load()
	e.escape(v.Version()) // before mu is released: no publish can recycle first
	return seq, v.PredictView
}
