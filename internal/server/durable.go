package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"

	"github.com/qoslab/amf/internal/store"
	"github.com/qoslab/amf/internal/stream"
)

// This file wires the durable-state layer (internal/store) through the
// service: crash recovery on startup, ack-after-journal on the observe
// path, background checkpoints, the /metrics families, and the manual
// checkpoint endpoint.

// replayChunk bounds how many replayed samples are batched into one
// synchronous engine apply during recovery. Chunking keeps memory flat
// on long WAL tails while amortizing the engine's publish-per-ApplyLog
// over thousands of samples.
const replayChunk = 8192

// AttachDurable wires a store.Manager into the server. It must be called
// once, before serving traffic, and performs the full recovery protocol
// in order:
//
//  1. Recover: restore the newest valid checkpoint via LoadState, then
//     replay the WAL tail — registrations rebuild the name⇄ID
//     directories, sample batches re-train the model through the normal
//     observe path, removals purge churned entities.
//  2. Attach the WAL as the engine's journal. Attachment happens after
//     replay on purpose: replayed samples are already in the log and
//     must not be re-journaled.
//  3. Register the amf_wal_* / amf_checkpoint_* / amf_recovery_*
//     metric families.
//  4. Start the background checkpointer. Each checkpoint captures the
//     engine's covered sequence number AND the model view from one
//     critical section (CheckpointView: the published view and journal
//     LastSeq under the engine lock), then serializes that immutable view — so the
//     blob reflects exactly the records its sequence number claims.
//
// The returned stats describe what recovery found. On error the server
// is left not journaling; the caller should treat the data directory as
// unusable rather than serve with silent non-durability.
func (s *Server) AttachDurable(m *store.Manager) (store.RecoveryStats, error) {
	if s.durable.Load() != nil {
		return store.RecoveryStats{}, errors.New("server: durable store already attached")
	}
	apply, flush := s.walApplier()
	rs, err := m.Recover(s.LoadState, apply)
	if err != nil {
		return rs, err
	}
	flush()

	s.durable.Store(m)
	s.eng.SetJournal(m.WAL())
	// If another process claims the data directory out from under us (a
	// failover promoted a replica while we were partitioned, see store
	// fencing), step down instead of acking writes onto a dead lineage.
	m.SetOnFence(func() { s.Demote("") })
	s.registerDurableMetrics(m)
	m.Start(s.captureState)
	s.log.Info("durable state attached",
		"dir", m.Dir(),
		"checkpoint", rs.HaveCheckpoint, "checkpoint_seq", rs.CheckpointSeq,
		"replayed_entries", rs.Entries, "replayed_samples", rs.Samples,
		"replayed_registrations", rs.Registrations, "replayed_removals", rs.Removals)
	return rs, nil
}

// walApplier returns a pair of functions that feed WAL entries through
// the normal serving pipeline: registrations rebuild the name⇄ID
// directories, sample batches re-train the model (chunked, so memory
// stays flat on long tails while amortizing the engine's
// publish-per-ApplyLog), removals purge churned entities. It is the
// shared apply path under crash recovery (AttachDurable) and follower
// replication (Replicator.apply) — both are "replay a log into this
// server", and both read it through the same traversal (store.ReplayDir).
// A journaled time is on the model clock (Server.clock), so it means the
// same moment here as in the process that wrote it.
// Callers must invoke flush after the final entry; apply itself flushes
// before removals so samples for a purged ID train first.
func (s *Server) walApplier() (apply func(store.Entry) error, flush func()) {
	var buf []stream.Sample
	flush = func() {
		if len(buf) > 0 {
			s.eng.ApplyLog(buf)
			buf = buf[:0]
		}
	}
	apply = func(e store.Entry) error {
		switch e.Kind {
		case store.EntrySamples:
			// A journaled time later than this server's now (the writer's
			// clock ran ahead) is clamped to now, as sampleTime clamps one
			// at the write door: otherwise it would carry the replay pool's
			// clock past every sample still to come.
			now := s.clock()
			for _, sm := range e.Samples {
				sm.Time = min(sm.Time, now)
				buf = append(buf, sm)
			}
			if len(buf) >= replayChunk {
				flush()
			}
		case store.EntryRegisterUser:
			return s.users.RegisterID(e.Name, e.ID)
		case store.EntryRegisterService:
			return s.services.RegisterID(e.Name, e.ID)
		case store.EntryRemoveUser:
			flush() // samples for this ID must train before the purge
			if name, ok := s.users.NameOf(e.ID); ok {
				s.users.Deregister(name)
			}
			s.eng.RemoveUser(e.ID)
		case store.EntryRemoveService:
			flush()
			if name, ok := s.services.NameOf(e.ID); ok {
				s.services.Deregister(name)
			}
			s.eng.RemoveService(e.ID)
		default:
			return fmt.Errorf("server: unknown wal entry kind %d", e.Kind)
		}
		return nil
	}
	return apply, flush
}

// Durable returns the attached store manager, or nil.
func (s *Server) Durable() *store.Manager { return s.durable.Load() }

// captureState is the checkpointer's capture hook. The covered sequence
// number and the model view are taken from ONE engine critical section
// (CheckpointView): the returned view is immutable, so sample batches
// and removals journaled while we serialize below can never leak into
// the blob — if they could, recovery would replay those records into a
// model that already contains them (double-training). The registry
// directories are listed after the view capture, so a registration
// journaled with seq > checkpoint-seq may appear in the blob AND be
// replayed; RegisterID is idempotent for exactly that record kind, so
// the race is harmless — and it is the only one left.
func (s *Server) captureState() (uint64, []byte, error) {
	seq, view := s.eng.CheckpointView()
	var buf bytes.Buffer
	if err := s.encodeStateView(&buf, view); err != nil {
		return 0, nil, err
	}
	return seq, buf.Bytes(), nil
}

// journalRegistration appends a name⇄ID registration to the WAL before
// the samples that reference the new ID are journaled. Failures are
// logged and counted in the store's error metric but do not fail the
// request — same availability-over-durability stance as the engine's
// journal (and once the WAL has poisoned itself, the batch append right
// after this will surface the failure too).
func (s *Server) journalRegistration(appendFn func(*store.WAL, int, string) (uint64, error), id int, name string) {
	m := s.durable.Load()
	if m == nil {
		return
	}
	if _, err := appendFn(m.WAL(), id, name); err != nil {
		s.log.Warn("journal registration failed", "name", name, "id", id, "err", err)
	}
}

// registerDurableMetrics exposes the durable-state layer on /metrics.
func (s *Server) registerDurableMetrics(m *store.Manager) {
	r := s.reg
	met := m.Metrics()
	r.RegisterHistogram("amf_wal_fsync_seconds",
		"WAL fsync latency.", met.Fsync)
	r.CounterFunc("amf_wal_appends_total", "Records appended to the WAL.",
		met.Appends.Load)
	r.CounterFunc("amf_wal_bytes_total", "Bytes appended to the WAL (record headers included).",
		met.Bytes.Load)
	r.CounterFunc("amf_wal_errors_total", "Failed WAL operations (append, flush, fsync).",
		met.Errors.Load)
	r.CounterFunc("amf_wal_torn_truncations_total",
		"Torn WAL tails truncated at open (each one is a crash the log recovered from).",
		met.TornTruncations.Load)
	r.GaugeFunc("amf_wal_segments", "Live WAL segment files.",
		func() float64 { return float64(met.Segments.Load()) })
	r.RegisterHistogram("amf_wal_group_commit_records",
		"Records made durable per covering fsync — the batching factor concurrent writers achieved (_count is the fsync count).",
		met.GroupBatch)
	r.RegisterHistogram("amf_checkpoint_seconds",
		"End-to-end checkpoint latency (capture + atomic write + WAL truncation).", met.Checkpoint)
	r.GaugeFunc("amf_checkpoint_age_seconds",
		"Seconds since the last successful checkpoint (the WAL-replay exposure window).",
		met.CheckpointAge)
	r.CounterFunc("amf_recovery_replayed_total",
		"Observations replayed from the WAL tail during crash recovery.",
		met.RecoveryReplayed.Load)
	r.CounterFunc("amf_journal_errors_total",
		"Engine journal appends that failed (the model kept learning).",
		func() int64 { return s.eng.Stats().JournalErrors })
}

// durableRoutes registers the checkpoint trigger; called from routes().
func (s *Server) durableRoutes() {
	s.handle("POST /api/v1/checkpoint", s.handleCheckpoint)
}

// handleCheckpoint forces a checkpoint now — the operational lever for
// "about to deploy, bound my replay window to zero".
func (s *Server) handleCheckpoint(w http.ResponseWriter, _ *http.Request) {
	if s.rejectFollowerWrite(w) {
		return
	}
	m := s.durable.Load()
	if m == nil {
		s.countError(w, http.StatusNotImplemented, "no durable store attached")
		return
	}
	if err := m.Checkpoint(); err != nil {
		s.countError(w, http.StatusInternalServerError, "checkpoint: %v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":      "checkpointed",
		"checkpoints": m.Metrics().Checkpoints.Load(),
		"wal_seq":     m.WAL().LastSeq(),
	})
}
