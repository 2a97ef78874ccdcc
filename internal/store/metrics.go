package store

import (
	"sync/atomic"
	"time"

	"github.com/qoslab/amf/internal/obs"
)

// Metrics is the durable-state layer's instrumentation sink: lock-free
// histograms and atomic counters that the WAL, checkpointer, and
// recovery path record into unconditionally (a few atomic adds — there
// is no off switch). The server registers one Metrics instance on its
// /metrics registry as the amf_wal_* / amf_checkpoint_* /
// amf_recovery_* families.
type Metrics struct {
	// Fsync is the latency of WAL fsyncs (seconds).
	Fsync *obs.Histogram
	// Checkpoint is the end-to-end checkpoint latency (state capture +
	// atomic write + WAL truncation), in seconds.
	Checkpoint *obs.Histogram
	// GroupBatch is the number of records each advance of the durable
	// commit index covered — the batching factor concurrent writers
	// actually achieved. Its count is the number of covering fsyncs.
	GroupBatch *obs.Histogram

	// Appends counts records appended to the WAL.
	Appends atomic.Int64
	// Bytes counts bytes appended to the WAL (headers included).
	Bytes atomic.Int64
	// Errors counts failed WAL operations (append, flush, fsync).
	Errors atomic.Int64
	// TornTruncations counts torn tails truncated at open — each one is
	// a crash the log recovered from.
	TornTruncations atomic.Int64
	// Segments gauges the live WAL segment files.
	Segments atomic.Int64

	// Checkpoints counts checkpoints successfully written.
	Checkpoints atomic.Int64
	// LastCheckpointNano is the UnixNano of the last successful
	// checkpoint (0 until the first).
	LastCheckpointNano atomic.Int64
	// RecoveryReplayed counts observations replayed from the WAL tail
	// during crash recovery.
	RecoveryReplayed atomic.Int64

	startNano int64
}

// NewMetrics creates an empty sink. Fsyncs land in [1µs, 60s);
// checkpoints in [100µs, 10min).
func NewMetrics() *Metrics {
	return &Metrics{
		Fsync:      obs.NewHistogram(1e-6, 60, 8),
		Checkpoint: obs.NewHistogram(1e-4, 600, 8),
		GroupBatch: obs.NewHistogram(1, 1e6, 8),
		startNano:  time.Now().UnixNano(),
	}
}

// CheckpointAge returns the seconds since the last successful
// checkpoint, or since the sink was created when none has been written
// yet — either way, the age of the state an operator would lose the WAL
// tail's worth of replay over.
func (m *Metrics) CheckpointAge() float64 {
	last := m.LastCheckpointNano.Load()
	if last == 0 {
		last = m.startNano
	}
	age := time.Now().UnixNano() - last
	if age < 0 {
		age = 0
	}
	return float64(age) / 1e9
}
