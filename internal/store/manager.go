package store

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Options tunes a Manager. The zero value gets defaults. amfserver sets
// only CheckpointInterval and Logger from its flags; SegmentBytes
// ships at its default and stays a field because tests set it to reach
// the rotation edges.
type Options struct {
	// SegmentBytes is the WAL rotation threshold (default 64 MiB).
	SegmentBytes int64
	// Sync is unread (see SyncPolicy).
	Sync SyncPolicy
	// CheckpointInterval is the background checkpoint cadence
	// (default 1 minute).
	CheckpointInterval time.Duration
	// FenceCheckInterval is how often the manager re-reads the LOCK
	// file to detect that another process claimed the directory
	// (default DefaultFenceCheckInterval; see fence.go).
	FenceCheckInterval time.Duration
	// Logger receives lifecycle and warning events (default slog.Default()).
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.CheckpointInterval <= 0 {
		o.CheckpointInterval = time.Minute
	}
	if o.FenceCheckInterval <= 0 {
		o.FenceCheckInterval = DefaultFenceCheckInterval
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// RecoveryStats summarizes one recovery pass.
type RecoveryStats struct {
	// HaveCheckpoint reports whether a checkpoint was restored.
	HaveCheckpoint bool
	// CheckpointSeq is the restored checkpoint's sequence number.
	CheckpointSeq uint64
	// Entries is the number of WAL records replayed past the checkpoint.
	Entries int
	// Samples is the number of observations those records carried.
	Samples int
	// Removals is the number of churn-departure records replayed.
	Removals int
	// Registrations is the number of name⇄ID registration records
	// replayed.
	Registrations int
}

// Manager owns one service's durable state: a segmented WAL under
// <dir>/wal plus checkpoints under <dir>/checkpoints, and the background
// checkpointer that ties them together. Lifecycle:
//
//	m, _ := store.Open(dir, opts)
//	stats, _ := m.Recover(restoreState, replayEntry) // before serving
//	engine.SetJournal(m.WAL())                       // start journaling
//	m.Start(captureState)                            // periodic checkpoints
//	...
//	m.Checkpoint()                                   // final, on shutdown
//	m.Close()
type Manager struct {
	dir     string
	ckptDir string
	wal     *WAL
	met     *Metrics
	log     *slog.Logger
	opts    Options

	// ckptMu serializes checkpoints (background loop, HTTP trigger,
	// shutdown) and guards capture.
	ckptMu  sync.Mutex
	capture func() (seq uint64, data []byte, err error)

	// Directory claim (see fence.go): epoch and owner token from the
	// LOCK file written at Open; fenced flips when another claimant
	// appears (or Fence is called) and permanently disables mutations.
	epoch     uint64
	lockOwner string
	fenced    atomic.Bool
	onFence   atomic.Value // func()
	fenceStop chan struct{}
	fenceWG   sync.WaitGroup

	stop    chan struct{}
	wg      sync.WaitGroup
	started bool
	closed  bool
}

// The two halves of a durable directory, under its root.
const (
	walDirName  = "wal"
	ckptDirName = "checkpoints"
)

// Open creates or reopens a durable-state directory. Opening claims the
// directory: the LOCK file's epoch is bumped and a previous owner still
// running (a partitioned ex-leader on shared storage) fences itself
// within one FenceCheckInterval — see fence.go.
func Open(dir string, opts Options) (*Manager, error) {
	opts = opts.withDefaults()
	if dir == "" {
		return nil, errors.New("store: empty data directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create data dir: %w", err)
	}
	lock, err := acquireLock(dir)
	if err != nil {
		return nil, err
	}
	ckptDir := filepath.Join(dir, ckptDirName)
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create checkpoint dir: %w", err)
	}
	met := NewMetrics()
	wal, err := OpenWAL(filepath.Join(dir, walDirName), WALOptions{
		SegmentBytes: opts.SegmentBytes,
		Metrics:      met,
		Logger:       opts.Logger,
	})
	if err != nil {
		return nil, err
	}
	m := &Manager{
		dir:       dir,
		ckptDir:   ckptDir,
		wal:       wal,
		met:       met,
		log:       opts.Logger,
		opts:      opts,
		epoch:     lock.Epoch,
		lockOwner: lock.Owner,
		fenceStop: make(chan struct{}),
		stop:      make(chan struct{}),
	}
	m.fenceWG.Add(1)
	go m.fenceWatch()
	return m, nil
}

// WAL returns the manager's journal (the engine's Journal).
func (m *Manager) WAL() *WAL { return m.wal }

// Metrics returns the shared instrumentation sink.
func (m *Manager) Metrics() *Metrics { return m.met }

// Dir returns the data directory.
func (m *Manager) Dir() string { return m.dir }

// LoadCheckpoint returns the newest valid checkpoint of the durable
// directory dir, which another process owns (see ReplayDir): it takes no
// claim and writes nothing. ok is false while the directory holds no
// checkpoint yet; a directory with no log at all is an error, so a
// mistyped path fails at once instead of reading as an empty leader.
func LoadCheckpoint(dir string, log *slog.Logger) (seq uint64, data []byte, ok bool, err error) {
	if _, err := os.Stat(filepath.Join(dir, walDirName)); err != nil {
		return 0, nil, false, fmt.Errorf("store: %s is not a durable directory: %w", dir, err)
	}
	return loadNewestCheckpoint(filepath.Join(dir, ckptDirName), log)
}

// Recover rebuilds service state: it loads the newest valid checkpoint
// (calling restore with its blob), then replays every WAL record past
// the checkpoint's sequence number through replay, verifying sequence
// continuity. Call before serving and before the engine starts
// journaling — replayed entries are already in the log and must not be
// re-journaled.
func (m *Manager) Recover(restore func(data []byte) error, replay func(Entry) error) (RecoveryStats, error) {
	var rs RecoveryStats
	seq, data, ok, err := loadNewestCheckpoint(m.ckptDir, m.log)
	if err != nil {
		return rs, err
	}
	if ok {
		if err := restore(data); err != nil {
			return rs, fmt.Errorf("store: restore checkpoint seq %d: %w", seq, err)
		}
		rs.HaveCheckpoint = true
		rs.CheckpointSeq = seq
	}
	if last := m.wal.LastSeq(); ok && seq > last {
		// The durable checkpoint claims sequence numbers the log no
		// longer has (lost WAL tail, wiped wal directory). The
		// checkpointed state itself is intact — every record <= seq is
		// reflected in the blob just restored — but any record that was
		// journaled AFTER the checkpoint is gone, and the WAL counter
		// sits below the covered range: left alone, fresh acked appends
		// would reuse sequence numbers <= seq and the next recovery
		// would silently skip them. Shout, then advance the counter past
		// the covered range so a collision is structurally impossible.
		m.log.Error("wal tail missing: checkpoint covers sequences beyond the log; "+
			"records journaled after the checkpoint are lost",
			"checkpoint_seq", seq, "wal_last_seq", last)
		if err := m.wal.AdvanceTo(seq); err != nil {
			return rs, fmt.Errorf("store: advance wal past checkpoint seq %d: %w", seq, err)
		}
	}
	err = m.wal.Replay(seq, func(e Entry) error {
		if err := replay(e); err != nil {
			return err
		}
		rs.Entries++
		switch e.Kind {
		case EntrySamples:
			rs.Samples += len(e.Samples)
			m.met.RecoveryReplayed.Add(int64(len(e.Samples)))
		case EntryRegisterUser, EntryRegisterService:
			rs.Registrations++
		default:
			rs.Removals++
		}
		return nil
	})
	if err != nil {
		return rs, err
	}
	if rs.HaveCheckpoint || rs.Entries > 0 {
		m.log.Info("durable state recovered",
			"checkpoint_seq", rs.CheckpointSeq, "wal_entries", rs.Entries,
			"samples_replayed", rs.Samples, "removals_replayed", rs.Removals)
	}
	return rs, nil
}

// Start launches the background checkpointer. capture must return a
// state blob plus the WAL sequence number it covers — every record with
// seq <= the returned value must be reflected in the blob. The engine
// provides exactly that via CheckpointSeq (journal-then-apply under one
// lock) followed by a view snapshot.
func (m *Manager) Start(capture func() (seq uint64, data []byte, err error)) {
	m.ckptMu.Lock()
	if m.started || m.closed {
		m.ckptMu.Unlock()
		return
	}
	m.capture = capture
	m.started = true
	m.ckptMu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		ticker := time.NewTicker(m.opts.CheckpointInterval)
		defer ticker.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-ticker.C:
				if err := m.Checkpoint(); err != nil {
					m.log.Warn("background checkpoint failed", "err", err)
				}
			}
		}
	}()
}

// Checkpoint captures the current state, writes it atomically, prunes
// old checkpoints, and truncates WAL segments the new checkpoint wholly
// covers. Safe to call concurrently with serving traffic; checkpoints
// themselves serialize.
func (m *Manager) Checkpoint() error {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	if m.capture == nil {
		return errors.New("store: no capture function; call Start first")
	}
	if m.fenced.Load() {
		return ErrFenced
	}
	start := time.Now()
	seq, data, err := m.capture()
	if err != nil {
		return fmt.Errorf("store: capture state: %w", err)
	}
	// Fsync the WAL before durably publishing the checkpoint. The blob
	// reflects every record with seq <= the captured sequence number, but
	// a record is applied before its waiter's fsync lands, so the capture
	// can hold records still sitting in the WAL's buffer: without this
	// barrier a crash could reopen the WAL below seq, hand the SAME
	// sequence numbers to fresh acked appends, and the next recovery (this
	// checkpoint still sorting newest) would silently skip them in Replay.
	// The invariant is: the WAL's durable tail is always >= any durable
	// checkpoint's claimed sequence.
	if err := m.wal.Sync(); err != nil {
		return fmt.Errorf("store: sync wal before checkpoint: %w", err)
	}
	// Re-verify the directory claim at the last moment: the fence
	// watcher only polls, and a checkpoint written (plus WAL segments
	// truncated) after a takeover would corrupt the new owner's
	// directory. One small file read against a multi-megabyte durable
	// write is cheap insurance.
	if m.checkFence() {
		return ErrFenced
	}
	if err := writeCheckpoint(m.ckptDir, seq, data); err != nil {
		return err
	}
	if err := pruneCheckpoints(m.ckptDir); err != nil {
		return err
	}
	if err := m.wal.TruncateThrough(seq); err != nil {
		return err
	}
	dur := time.Since(start)
	m.met.Checkpoint.Observe(dur.Seconds())
	m.met.Checkpoints.Add(1)
	m.met.LastCheckpointNano.Store(time.Now().UnixNano())
	m.log.Info("checkpoint written",
		"seq", seq, "bytes", len(data), "duration", dur,
		"wal_segments", m.wal.SegmentCount())
	return nil
}

// SetCaptureForTest installs the capture function without starting the
// background loop (manual Checkpoint calls only).
func (m *Manager) SetCaptureForTest(capture func() (uint64, []byte, error)) {
	m.ckptMu.Lock()
	m.capture = capture
	m.ckptMu.Unlock()
}

// Close stops the checkpointer and closes the WAL. It does NOT write a
// final checkpoint — callers that shut down gracefully should call
// Checkpoint first (amfserver does), so restart replays nothing.
func (m *Manager) Close() error {
	m.ckptMu.Lock()
	if m.closed {
		m.ckptMu.Unlock()
		return nil
	}
	m.closed = true
	started := m.started
	m.ckptMu.Unlock()
	close(m.fenceStop)
	m.fenceWG.Wait()
	if started {
		close(m.stop)
		m.wg.Wait()
	}
	return m.wal.Close()
}
