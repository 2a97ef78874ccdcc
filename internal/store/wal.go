package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/qoslab/amf/internal/stream"
)

// SyncPolicy is unread: group commit is the WAL's one fsync policy, so
// an acked write is a durable write (see WaitDurable). The type, its one
// constant and the Sync fields of WALOptions and Options remain only
// because the repository benchmark still names them (ROADMAP item 1 (a)).
type SyncPolicy int

// SyncGroup is the one fsync policy, which is also the zero value.
const SyncGroup SyncPolicy = 0

const (
	segMagic  = "AMFWAL1\n"
	segPrefix = "wal-"
	segSuffix = ".seg"

	// DefaultSegmentBytes is the rotation threshold: ~64 MiB keeps
	// truncation granular without drowning the directory in files.
	DefaultSegmentBytes = int64(64 << 20)
)

// ErrWALFailed is returned by appends after a write error has poisoned
// the log: continuing to assign sequence numbers past an undefined tail
// would turn one bad write into an undetectable gap.
var ErrWALFailed = errors.New("store: wal failed; a previous append did not reach the log")

// WALOptions tunes a segmented log. The zero value gets defaults.
type WALOptions struct {
	// SegmentBytes rotates to a fresh segment once the current one
	// exceeds this size. Default DefaultSegmentBytes.
	SegmentBytes int64
	// Sync is unread (see SyncPolicy).
	Sync SyncPolicy
	// Metrics is an optional shared sink (fsync latency, bytes,
	// segment gauge). NewMetrics() is used when nil.
	Metrics *Metrics
	// Logger receives torn-tail warnings (default slog.Default()).
	Logger *slog.Logger
}

func (o WALOptions) withDefaults() WALOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.Metrics == nil {
		o.Metrics = NewMetrics()
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

type walSegment struct {
	name  string // file name within dir
	first uint64 // first sequence number the segment may contain
}

// WAL is a segmented, CRC-protected, length-prefixed binary log with
// contiguous sequence numbers. It is safe for concurrent use; appends
// serialize on one mutex (the engine has a single writer anyway).
type WAL struct {
	dir  string
	opts WALOptions
	met  *Metrics
	log  *slog.Logger

	mu       sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	size     int64 // bytes in the current segment (incl. magic)
	seq      uint64
	segments []walSegment // sorted; last is the open one
	dirty    bool         // unflushed or un-fsynced bytes pending
	failed   bool
	fenced   bool // another process claimed the directory; see fence.go
	closed   bool

	// scratch is the payload buffer the typed appends encode into and
	// hdr the record header appendLocked frames with; both under mu.
	scratch []byte
	hdr     [recHeaderSize]byte

	// Commit state (see WaitDurable). durable is the commit index: every
	// record with seq <= durable is on stable storage. subs are
	// commit-notification subscribers (a follower's status long-poll,
	// see SubscribeCommits). syncing marks an fsync in flight outside the
	// mutex; syncDone is broadcast when it lands (and on fence).
	durable   uint64
	durableAt atomic.Uint64 // mirror of durable for lock-free reads
	subs      []chan struct{}
	syncing   bool
	syncDone  *sync.Cond // on mu
}

// OpenWAL opens (or creates) a segmented log in dir. The final segment's
// torn tail — a record cut short by a crash — is truncated away with a
// warning; the log then appends after the last intact record.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create wal dir: %w", err)
	}
	w := &WAL{dir: dir, opts: opts, met: opts.Metrics, log: opts.Logger}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	w.segments = segs
	if len(segs) == 0 {
		if err := w.createSegmentLocked(1); err != nil {
			return nil, err
		}
		w.seq = 0
	} else {
		last := segs[len(segs)-1]
		path := filepath.Join(dir, last.name)
		validSize, lastSeq, torn, err := scanSegmentFile(path, last.first, nil)
		if err != nil {
			return nil, fmt.Errorf("store: open wal: %w", err)
		}
		if lastSeq == 0 {
			// No intact record in the final segment: the log's last
			// sequence number is whatever preceded this segment.
			lastSeq = last.first - 1
		}
		if torn > 0 {
			w.log.Warn("wal: truncating torn tail",
				"segment", last.name, "valid_bytes", validSize, "torn_bytes", torn)
			w.met.TornTruncations.Add(1)
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("store: open wal segment: %w", err)
		}
		if torn > 0 {
			if err := f.Truncate(validSize); err != nil {
				f.Close()
				return nil, fmt.Errorf("store: truncate torn tail: %w", err)
			}
		}
		if _, err := f.Seek(validSize, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: seek wal segment: %w", err)
		}
		w.f = f
		w.bw = bufio.NewWriterSize(f, 1<<16)
		w.size = validSize
		w.seq = lastSeq
		if validSize == 0 {
			// The whole file (magic included) was torn: rewrite the header.
			if _, err := w.bw.WriteString(segMagic); err != nil {
				f.Close()
				return nil, fmt.Errorf("store: rewrite segment magic: %w", err)
			}
			w.size = int64(len(segMagic))
			w.dirty = true
		}
	}
	w.met.Segments.Store(int64(len(w.segments)))
	w.syncDone = sync.NewCond(&w.mu)
	// Everything intact on disk at open is durable by definition.
	w.durable = w.seq
	w.durableAt.Store(w.seq)
	return w, nil
}

func segmentName(first uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, first, segSuffix)
}

func listSegments(dir string) ([]walSegment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: list wal dir: %w", err)
	}
	var segs []walSegment
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		first, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("store: malformed segment name %s", name)
		}
		segs = append(segs, walSegment{name: name, first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	for i := 1; i < len(segs); i++ {
		if segs[i].first <= segs[i-1].first {
			return nil, fmt.Errorf("store: overlapping segments %s and %s", segs[i-1].name, segs[i].name)
		}
	}
	return segs, nil
}

// scanSegmentFile walks a segment's records. For each intact record it
// calls fn (if non-nil). It returns the byte offset just past the last
// intact record, the last intact sequence number (0 if none), and how
// many trailing bytes form a torn (invalid) tail. Scanning stops at the
// first invalid byte; the caller decides whether a torn tail is
// tolerable (final segment) or fatal (interior segment).
func scanSegmentFile(path string, first uint64, fn func(seq uint64, payload []byte) error) (validSize int64, lastSeq uint64, torn int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("store: open segment: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("store: stat segment: %w", err)
	}
	fileSize := fi.Size()
	br := bufio.NewReaderSize(f, 1<<16)

	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != segMagic {
		// Torn or missing header: nothing in this file is valid.
		return 0, 0, fileSize, nil
	}
	off := int64(len(segMagic))
	expected := first
	header := make([]byte, recHeaderSize)
	var payload []byte
	for {
		if _, err := io.ReadFull(br, header); err != nil {
			if err == io.EOF {
				return off, seqBefore(expected, first), 0, nil
			}
			return off, seqBefore(expected, first), fileSize - off, nil // torn header
		}
		plen, wantCRC, seq := decodeRecordHeader(header)
		if plen < 0 || plen > MaxRecordBytes || seq != expected {
			return off, seqBefore(expected, first), fileSize - off, nil
		}
		if cap(payload) < plen {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return off, seqBefore(expected, first), fileSize - off, nil // torn payload
		}
		if recordCRC(seq, payload) != wantCRC {
			return off, seqBefore(expected, first), fileSize - off, nil
		}
		if fn != nil {
			if err := fn(seq, payload); err != nil {
				return off, seqBefore(expected, first), 0, err
			}
		}
		off += int64(recHeaderSize + plen)
		expected++
	}
}

// seqBefore converts the next-expected sequence back to the last seen
// one (0 when the segment held no intact records yet).
func seqBefore(expected, first uint64) uint64 {
	if expected == first {
		return 0
	}
	return expected - 1
}

// createSegmentLocked opens a fresh segment whose first record will be
// sequence number first, and fsyncs the directory so the file itself
// survives a crash.
func (w *WAL) createSegmentLocked(first uint64) error {
	name := segmentName(first)
	f, err := os.OpenFile(filepath.Join(w.dir, name), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 1<<16)
	if _, err := w.bw.WriteString(segMagic); err != nil {
		return fmt.Errorf("store: write segment magic: %w", err)
	}
	w.size = int64(len(segMagic))
	w.dirty = true
	w.segments = append(w.segments, walSegment{name: name, first: first})
	w.met.Segments.Store(int64(len(w.segments)))
	if err := syncDir(w.dir); err != nil {
		return err
	}
	return nil
}

// ---------------------------------------------------------------------------
// Appends. These satisfy the engine's Journal interface.

// AppendSamples journals a batch of observations and returns the
// sequence number of the last record written. Batches that fit under
// MaxRecordBytes (the overwhelmingly common case — the bound is two
// orders of magnitude above a drain batch) become one record; larger
// batches are split into maximal chunks so NO batch size is ever
// rejected — an acked batch must always reach the log. A crash between
// chunks durably keeps a prefix of the batch, which recovery replays;
// the caller waits on the returned (last) sequence number, so an ack
// still covers every chunk.
func (w *WAL) AppendSamples(ss []stream.Sample) (uint64, error) {
	return w.appendSamplesChunked(ss, maxSamplesPerRecord)
}

// appendSamplesChunked is AppendSamples with an explicit chunk bound,
// separated so tests can exercise the multi-record path without
// materializing half-gigabyte batches. The chunks are consecutive
// records: no other append lands between them.
func (w *WAL) appendSamplesChunked(ss []stream.Sample, maxPerRecord int) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var seq uint64
	for {
		n := min(len(ss), maxPerRecord)
		s, err := w.appendScratchLocked(encodeSamples(w.scratch[:0], ss[:n]))
		if err != nil {
			return seq, err
		}
		if seq, ss = s, ss[n:]; len(ss) == 0 {
			return seq, nil
		}
	}
}

// AppendRemoveUser journals a user churn departure.
func (w *WAL) AppendRemoveUser(id int) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendScratchLocked(encodeRemove(w.scratch[:0], EntryRemoveUser, id))
}

// AppendRemoveService journals a service churn departure.
func (w *WAL) AppendRemoveService(id int) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendScratchLocked(encodeRemove(w.scratch[:0], EntryRemoveService, id))
}

// AppendRegisterUser journals a user name⇄ID registration.
func (w *WAL) AppendRegisterUser(id int, name string) (uint64, error) {
	return w.appendRegister(EntryRegisterUser, id, name)
}

// AppendRegisterService journals a service name⇄ID registration.
func (w *WAL) AppendRegisterService(id int, name string) (uint64, error) {
	return w.appendRegister(EntryRegisterService, id, name)
}

func (w *WAL) appendRegister(kind EntryKind, id int, name string) (uint64, error) {
	if len(name) == 0 || len(name) > MaxNameBytes {
		return 0, fmt.Errorf("store: register: name of %d bytes out of range", len(name))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendScratchLocked(encodeRegister(w.scratch[:0], kind, id, name))
}

// maxScratchBytes is the largest payload buffer the log keeps between
// appends; a bigger one, grown for a batch far past the served shape,
// is left to the collector.
const maxScratchBytes = 1 << 20

// appendScratchLocked appends a payload encoded into w.scratch and keeps
// the buffer, grown as it may be, for the next one.
func (w *WAL) appendScratchLocked(payload []byte) (uint64, error) {
	w.scratch = payload[:0]
	if cap(payload) > maxScratchBytes {
		w.scratch = nil
	}
	return w.appendLocked(payload)
}

// appendLocked frames payload as the next record — its header built in
// w.hdr — and writes both into the segment's buffer, which copies them:
// the payload is the caller's again on return. A payload the scanner
// would refuse (empty, or past MaxRecordBytes) is refused here first.
func (w *WAL) appendLocked(payload []byte) (uint64, error) {
	if len(payload) == 0 || len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("store: append: payload of %d bytes out of range", len(payload))
	}
	if w.closed {
		return 0, errors.New("store: append on closed wal")
	}
	if w.fenced {
		w.met.Errors.Add(1)
		return 0, ErrFenced
	}
	if w.failed {
		w.met.Errors.Add(1)
		return 0, ErrWALFailed
	}
	recSize := int64(recHeaderSize + len(payload))
	if w.size > int64(len(segMagic)) && w.size+recSize > w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			w.failed = true
			w.met.Errors.Add(1)
			return 0, err
		}
	}
	encodeRecordHeader(&w.hdr, w.seq+1, payload)
	_, err := w.bw.Write(w.hdr[:])
	if err == nil {
		_, err = w.bw.Write(payload)
	}
	if err != nil {
		w.failed = true
		w.met.Errors.Add(1)
		return 0, fmt.Errorf("store: append: %w", err)
	}
	w.seq++
	w.size += recSize
	w.dirty = true
	w.met.Appends.Add(1)
	w.met.Bytes.Add(recSize)
	return w.seq, nil
}

// WaitDurable blocks until the record with the given sequence number is
// on stable storage. It is leader/follower group commit with no
// coordinator: when no fsync is in flight the caller runs the covering
// one itself (commitLocked); otherwise it waits for the one in flight to
// land and checks again, so every caller that arrived during an fsync
// shares the next. ErrFenced, ErrWALFailed or a closed-log error means
// the record may never be durable — the ack MUST NOT be sent — and so
// does a seq past the tail, which no append has assigned yet.
func (w *WAL) WaitDurable(seq uint64) error {
	if w.durableAt.Load() >= seq {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		switch {
		case seq <= w.durable:
			return nil
		case w.fenced:
			return ErrFenced
		case w.failed:
			return ErrWALFailed
		case seq > w.seq:
			return fmt.Errorf("store: wait-durable on seq %d past the tail %d", seq, w.seq)
		case w.syncing:
			w.syncDone.Wait()
		case w.f == nil:
			return errors.New("store: wait-durable on closed wal")
		default:
			w.commitLocked()
		}
	}
}

// DurableSeq returns the durable commit index: the highest sequence
// number known to be on stable storage. It is the
// newest record a follower may apply.
func (w *WAL) DurableSeq() uint64 {
	return w.durableAt.Load()
}

// SubscribeCommits registers a commit-notification channel: it receives
// (coalesced, non-blocking) signals whenever the durable commit index
// advances, and on fence, failure, or close. An append alone signals
// nothing: no follower may read its record until an fsync covers it. The
// returned cancel func unregisters the channel.
func (w *WAL) SubscribeCommits() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	w.mu.Lock()
	w.subs = append(w.subs, ch)
	w.mu.Unlock()
	cancel := func() {
		w.mu.Lock()
		for i, c := range w.subs {
			if c == ch {
				w.subs = append(w.subs[:i], w.subs[i+1:]...)
				break
			}
		}
		w.mu.Unlock()
	}
	return ch, cancel
}

func (w *WAL) notifySubsLocked() {
	for _, ch := range w.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// advanceDurableLocked publishes a new durable commit index, records how
// many records the fsync behind it covered, and wakes commit subscribers.
func (w *WAL) advanceDurableLocked(seq uint64) {
	if seq <= w.durable {
		return
	}
	w.met.GroupBatch.Observe(float64(seq - w.durable))
	w.durable = seq
	w.durableAt.Store(seq)
	w.notifySubsLocked()
}

// failLocked poisons the log after a lost flush or fsync and wakes
// subscribers so they observe the terminal state; waiters see the flag
// on their next check.
func (w *WAL) failLocked() {
	w.failed = true
	w.met.Errors.Add(1)
	w.notifySubsLocked()
}

// awaitSyncLocked blocks (releasing the mutex) until no caller-run fsync
// is in flight. Rotation, Close, AdvanceTo, and inline syncs must not
// flush, close, or reuse the segment file underneath one.
func (w *WAL) awaitSyncLocked() {
	for w.syncing {
		w.syncDone.Wait()
	}
}

// commitLocked runs one covering fsync on the calling goroutine: flush
// under mu, fsync OUTSIDE it — appends keep landing in the buffer for the
// next commit while the device round-trip is in flight, which is what
// lets concurrent waiters share one fsync — then advance the commit index
// and wake everyone parked on syncDone. Called with mu held and no fsync
// in flight; returns with mu held.
func (w *WAL) commitLocked() {
	target := w.seq
	if err := w.bw.Flush(); err != nil {
		w.failLocked()
		w.log.Warn("wal: flush failed", "err", err)
		return
	}
	f := w.f
	w.syncing = true
	w.dirty = false
	w.mu.Unlock()

	start := time.Now()
	err := f.Sync()

	w.mu.Lock()
	w.syncing = false
	w.syncDone.Broadcast()
	if err != nil {
		w.failLocked()
		w.log.Warn("wal: fsync failed", "err", err)
		return
	}
	w.met.Fsync.Observe(time.Since(start).Seconds())
	// A fence that raced the fsync abandoned this lineage: the bytes
	// reached disk, but the commit index of a log we no longer own never
	// advances.
	if !w.fenced {
		w.advanceDurableLocked(target)
	}
}

// Sync flushes buffered appends and fsyncs the current segment.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.f == nil {
		return nil
	}
	return w.syncLocked()
}

// Fence permanently disables mutations: appends, flushes, rotations,
// and truncations return ErrFenced, and bytes still sitting in the
// write buffer are dropped rather than flushed — the segment file's
// tail now belongs to the directory's new owner, and writing our
// buffered records over it would corrupt their log. See fence.go.
func (w *WAL) Fence() {
	w.mu.Lock()
	w.fenced = true
	// Drop — never flush — the displaced owner's buffered records, and
	// wake every WaitDurable parked behind an in-flight fsync: they return
	// ErrFenced without waiting for it to land.
	w.dirty = false
	w.syncDone.Broadcast()
	w.notifySubsLocked()
	w.mu.Unlock()
}

// syncLocked flushes and fsyncs with the mutex held throughout: the
// inline form for rotation, AdvanceTo and Sync, which close or reuse the
// segment file right after.
func (w *WAL) syncLocked() error {
	// Never flush or fsync underneath an in-flight caller-run fsync: its
	// caller owns the file until it lands.
	w.awaitSyncLocked()
	if w.fenced {
		return ErrFenced
	}
	if w.failed {
		// A poisoned log must not report a clean sync: callers like the
		// checkpoint barrier would otherwise claim sequence numbers past
		// an undefined tail.
		return ErrWALFailed
	}
	if !w.dirty {
		w.advanceDurableLocked(w.seq)
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		w.failLocked()
		return fmt.Errorf("store: flush wal: %w", err)
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		w.failLocked()
		return fmt.Errorf("store: fsync wal: %w", err)
	}
	w.met.Fsync.Observe(time.Since(start).Seconds())
	w.dirty = false
	w.advanceDurableLocked(w.seq)
	return nil
}

func (w *WAL) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: close segment: %w", err)
	}
	return w.createSegmentLocked(w.seq + 1)
}

// AdvanceTo raises the WAL's sequence counter to at least seq, rotating
// to a fresh segment (named seq+1) so per-segment numbering stays
// continuous. It is the recovery escape hatch for a durable checkpoint
// whose claimed sequence number exceeds the log's tail (a lost WAL tail
// or wiped wal directory): after the bump, fresh appends can never
// reuse sequence numbers the checkpoint already covers, so a later
// recovery can never mistake them for already-checkpointed records and
// silently skip them. No-op when seq <= LastSeq.
func (w *WAL) AdvanceTo(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("store: advance on closed wal")
	}
	if w.fenced {
		return ErrFenced
	}
	if seq <= w.seq {
		return nil
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: close segment: %w", err)
	}
	w.seq = seq
	return w.createSegmentLocked(seq + 1)
}

// TruncateThrough removes segments whose records all have sequence
// numbers <= seq — the durable cleanup after a checkpoint. The open
// segment is never removed, so sequence numbering stays continuous.
func (w *WAL) TruncateThrough(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fenced {
		return ErrFenced
	}
	removed := 0
	for len(w.segments) > 1 && w.segments[1].first <= seq+1 {
		path := filepath.Join(w.dir, w.segments[0].name)
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("store: truncate wal: %w", err)
		}
		w.segments = w.segments[1:]
		removed++
	}
	if removed > 0 {
		w.met.Segments.Store(int64(len(w.segments)))
		if err := syncDir(w.dir); err != nil {
			return err
		}
	}
	return nil
}

// Replay fsyncs the log once, then walks every record with sequence
// number > from up to the durable commit index (replayDir). The
// recovery path calls it before the engine starts journaling.
func (w *WAL) Replay(from uint64, fn func(Entry) error) error {
	if err := w.Sync(); err != nil {
		return err
	}
	return replayDir(w.dir, from, w.DurableSeq(), fn)
}

// ReplayDir is Replay over the log of a durable directory that another
// process owns and keeps appending to: a follower tailing its leader's
// directory. It takes no claim and writes nothing. bound must be a
// commit index the owner has published — bytes past it may sit in a
// segment file before their fsync lands, and a crash of the owner could
// erase them and reuse their sequence numbers. A log that no longer
// reaches back to from+1 (the owner checkpointed and truncated past it)
// is an error, as is a segment removed while the walk reads the log.
func ReplayDir(dir string, from, bound uint64, fn func(Entry) error) error {
	return replayDir(filepath.Join(dir, walDirName), from, bound, fn)
}

// errPastBound is the internal sentinel replayDir uses to stop the
// segment walk at the caller's bound.
var errPastBound = errors.New("store: replay bound reached")

// replayDir is the one traversal of a log: recovery (Replay) and a
// follower (ReplayDir) both read through it. It lists the segment files
// in walDir and hands every intact record with sequence number in
// (from, bound] to fn, in order, decoded into an Entry. It verifies
// continuity: the first delivered record must be from+1 and each
// subsequent one must follow directly — a gap means acked data was lost
// (or truncated away) and the caller must not pretend otherwise. Every
// record up to bound is already flushed, so the walk never needs a sync
// of its own and never races the appending tail: a torn tail is
// tolerated in the last segment only.
//
// The Entry handed to fn reuses one decode buffer across records:
// e.Samples is only valid during the callback, so a callback that
// retains samples must copy them out (recovery appliers copy element-
// wise anyway; this is what keeps a million-record replay at a handful
// of allocations instead of one slice per record).
func replayDir(walDir string, from, bound uint64, fn func(Entry) error) error {
	if bound <= from {
		return nil
	}
	segs, err := listSegments(walDir)
	if err != nil {
		return err
	}
	var scratch []stream.Sample
	next := from + 1
	for i, seg := range segs {
		if next > bound {
			return nil
		}
		if i+1 < len(segs) && segs[i+1].first <= next {
			continue // wholly below the replay point
		}
		if seg.first > next {
			return fmt.Errorf("store: wal gap: expected seq %d, %s starts at %d", next, seg.name, seg.first)
		}
		last := i == len(segs)-1
		_, _, torn, err := scanSegmentFile(filepath.Join(walDir, seg.name), seg.first, func(seq uint64, payload []byte) error {
			if seq <= from {
				return nil
			}
			if seq > bound {
				return errPastBound
			}
			if seq != next {
				return fmt.Errorf("store: wal gap: expected seq %d, found %d in %s", next, seq, seg.name)
			}
			e, err := decodeEntryInto(scratch, seq, payload)
			if err != nil {
				return fmt.Errorf("store: wal seq %d: %w", seq, err)
			}
			if cap(e.Samples) > cap(scratch) {
				scratch = e.Samples[:cap(e.Samples)]
			}
			if err := fn(e); err != nil {
				return err
			}
			next = seq + 1
			return nil
		})
		if errors.Is(err, errPastBound) {
			return nil
		}
		if err != nil {
			return err
		}
		if torn > 0 && !last {
			return fmt.Errorf("store: wal corruption inside %s (%d bytes unreadable mid-log)", seg.name, torn)
		}
	}
	return nil
}

// LastSeq returns the sequence number of the most recent append.
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// SegmentCount returns the number of live segment files.
func (w *WAL) SegmentCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.segments)
}

// Close flushes, fsyncs, and closes the log. Idempotent.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	w.awaitSyncLocked()
	var err error
	if w.f != nil {
		// A fenced log closes without flushing: the buffered bytes
		// belong to a lineage the directory's new owner has already
		// diverged from, and writing them would corrupt that log.
		if !w.fenced {
			if ferr := w.bw.Flush(); ferr != nil && err == nil {
				err = fmt.Errorf("store: close wal: %w", ferr)
			}
			if w.dirty {
				start := time.Now()
				if serr := w.f.Sync(); serr != nil && err == nil {
					err = fmt.Errorf("store: close wal: %w", serr)
				} else if serr == nil {
					w.met.Fsync.Observe(time.Since(start).Seconds())
				}
				w.dirty = false
			}
			if err == nil && !w.failed {
				// The close fsync covered the whole tail.
				w.advanceDurableLocked(w.seq)
			}
		}
		if cerr := w.f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("store: close wal: %w", cerr)
		}
		w.f = nil
	}
	// Subscribers observe the terminal state; a waiter still checking
	// finds either its record durable or the file gone.
	w.notifySubsLocked()
	return err
}
