package store

import (
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/stream"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func testWAL(t *testing.T, dir string, opts WALOptions) *WAL {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = quietLogger()
	}
	w, err := OpenWAL(dir, opts)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	return w
}

func sampleBatch(base, n int) []stream.Sample {
	out := make([]stream.Sample, n)
	for i := range out {
		out[i] = stream.Sample{
			Time:    time.Duration(base+i) * time.Millisecond,
			User:    (base + i) % 97,
			Service: (base + i) % 31,
			Value:   float64(base+i) * 0.5,
		}
	}
	return out
}

// appendPayload journals one opaque payload as the next record.
func (w *WAL) appendPayload(payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(payload)
}

func replayAll(t *testing.T, w *WAL, from uint64) []Entry {
	t.Helper()
	var out []Entry
	if err := w.Replay(from, func(e Entry) error {
		// Replay reuses its decode buffer across records; retained
		// entries must copy their samples out.
		e.Samples = append([]stream.Sample(nil), e.Samples...)
		out = append(out, e)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{})
	want := [][]stream.Sample{sampleBatch(0, 3), sampleBatch(100, 1), sampleBatch(200, 7)}
	for i, b := range want {
		seq, err := w.AppendSamples(b)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d, want %d", i, seq, i+1)
		}
	}
	if _, err := w.AppendRemoveUser(42); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendRemoveService(7); err != nil {
		t.Fatal(err)
	}

	got := replayAll(t, w, 0)
	if len(got) != 5 {
		t.Fatalf("replayed %d entries, want 5", len(got))
	}
	for i, b := range want {
		e := got[i]
		if e.Kind != EntrySamples || e.Seq != uint64(i+1) {
			t.Fatalf("entry %d: kind=%d seq=%d", i, e.Kind, e.Seq)
		}
		if len(e.Samples) != len(b) {
			t.Fatalf("entry %d: %d samples, want %d", i, len(e.Samples), len(b))
		}
		for j := range b {
			if e.Samples[j] != b[j] {
				t.Fatalf("entry %d sample %d: %+v != %+v", i, j, e.Samples[j], b[j])
			}
		}
	}
	if got[3].Kind != EntryRemoveUser || got[3].ID != 42 {
		t.Fatalf("entry 3: %+v", got[3])
	}
	if got[4].Kind != EntryRemoveService || got[4].ID != 7 {
		t.Fatalf("entry 4: %+v", got[4])
	}

	// Partial replay skips covered entries.
	tail := replayAll(t, w, 3)
	if len(tail) != 2 || tail[0].Seq != 4 {
		t.Fatalf("tail replay: %+v", tail)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{})
	for i := 0; i < 5; i++ {
		if _, err := w.AppendSamples(sampleBatch(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := testWAL(t, dir, WALOptions{})
	if w2.LastSeq() != 5 {
		t.Fatalf("reopened LastSeq=%d, want 5", w2.LastSeq())
	}
	seq, err := w2.AppendSamples(sampleBatch(50, 1))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("append after reopen: seq %d, want 6", seq)
	}
	if got := replayAll(t, w2, 0); len(got) != 6 {
		t.Fatalf("replayed %d, want 6", len(got))
	}
	w2.Close()
}

func TestWALRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every batch of 4 samples (~150B) rotates quickly.
	w := testWAL(t, dir, WALOptions{SegmentBytes: 256})
	for i := 0; i < 10; i++ {
		if _, err := w.AppendSamples(sampleBatch(i*10, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if n := w.SegmentCount(); n < 3 {
		t.Fatalf("expected rotation to produce >=3 segments, got %d", n)
	}
	if got := replayAll(t, w, 0); len(got) != 10 {
		t.Fatalf("replay across segments: %d entries, want 10", len(got))
	}

	// Truncation through seq 6 must keep everything > 6 replayable.
	before := w.SegmentCount()
	if err := w.TruncateThrough(6); err != nil {
		t.Fatal(err)
	}
	if after := w.SegmentCount(); after >= before {
		t.Fatalf("truncate removed nothing (%d -> %d segments)", before, after)
	}
	got := replayAll(t, w, 6)
	if len(got) != 4 || got[0].Seq != 7 {
		t.Fatalf("post-truncate tail: %d entries, first seq %v", len(got), got)
	}
	// The open segment is never removed.
	if err := w.TruncateThrough(1 << 60); err != nil {
		t.Fatal(err)
	}
	if w.SegmentCount() != 1 {
		t.Fatalf("full truncate left %d segments, want 1", w.SegmentCount())
	}
	w.Close()

	// Reopen after truncation: sequence numbering continues.
	w2 := testWAL(t, dir, WALOptions{})
	if w2.LastSeq() != 10 {
		t.Fatalf("LastSeq after truncate+reopen = %d, want 10", w2.LastSeq())
	}
	w2.Close()
}

// TestWALTornTailTruncatedAtEveryOffset is the torn-tail property test:
// however many bytes of the final record made it to disk, open must
// recover exactly the intact prefix and keep appending from there.
func TestWALTornTailTruncatedAtEveryOffset(t *testing.T) {
	build := func(t *testing.T, dir string) (lastPath string, intactSize int64) {
		w := testWAL(t, dir, WALOptions{})
		for i := 0; i < 3; i++ {
			if _, err := w.AppendSamples(sampleBatch(i*10, 2)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		segs, err := listSegments(dir)
		if err != nil || len(segs) != 1 {
			t.Fatalf("segments: %v %v", segs, err)
		}
		lastPath = filepath.Join(dir, segs[0].name)
		fi, err := os.Stat(lastPath)
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		return lastPath, fi.Size()
	}

	probe := t.TempDir()
	_, full := build(t, probe)
	// Size of the last record = total - size after two records.
	recSize := int64(recHeaderSize + 5 + 2*sampleWire)
	intact := full - recSize

	for cut := intact; cut < full; cut++ {
		dir := t.TempDir()
		path, _ := build(t, dir)
		if err := os.Truncate(path, cut); err != nil {
			t.Fatal(err)
		}
		w := testWAL(t, dir, WALOptions{})
		got := replayAll(t, w, 0)
		if len(got) != 2 {
			t.Fatalf("cut=%d: replayed %d entries, want 2", cut, len(got))
		}
		if w.LastSeq() != 2 {
			t.Fatalf("cut=%d: LastSeq=%d, want 2", cut, w.LastSeq())
		}
		// Appends continue with the next sequence number.
		seq, err := w.AppendSamples(sampleBatch(99, 1))
		if err != nil || seq != 3 {
			t.Fatalf("cut=%d: append seq=%d err=%v", cut, seq, err)
		}
		if got := replayAll(t, w, 0); len(got) != 3 {
			t.Fatalf("cut=%d: after repair replayed %d, want 3", cut, len(got))
		}
		w.Close()
	}
}

func TestWALTornTailCountsMetric(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{})
	if _, err := w.AppendSamples(sampleBatch(0, 2)); err != nil {
		t.Fatal(err)
	}
	w.Sync()
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0].name)
	fi, _ := os.Stat(path)
	w.Close()
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	met := NewMetrics()
	w2 := testWAL(t, dir, WALOptions{Metrics: met})
	defer w2.Close()
	if met.TornTruncations.Load() != 1 {
		t.Fatalf("TornTruncations=%d, want 1", met.TornTruncations.Load())
	}
}

// TestWALMidLogCorruptionIsFatal: flipping a byte in a non-final segment
// must fail replay loudly rather than silently skipping records.
func TestWALMidLogCorruptionIsFatal(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{SegmentBytes: 200})
	for i := 0; i < 8; i++ {
		if _, err := w.AppendSamples(sampleBatch(i*10, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if w.SegmentCount() < 2 {
		t.Fatalf("need >=2 segments, got %d", w.SegmentCount())
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	first := filepath.Join(dir, segs[0].name)
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0xff // corrupt the first (non-final) segment
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.Replay(0, func(Entry) error { return nil }); err == nil {
		t.Fatal("replay over mid-log corruption must error")
	}
	w.Close()
}

// TestWALGapDetection: deleting an interior segment is a gap, and replay
// must refuse to paper over it.
func TestWALGapDetection(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{SegmentBytes: 200})
	for i := 0; i < 8; i++ {
		if _, err := w.AppendSamples(sampleBatch(i*10, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if w.SegmentCount() < 3 {
		t.Fatalf("need >=3 segments, got %d", w.SegmentCount())
	}
	w.Close()
	segs, _ := listSegments(dir)
	if err := os.Remove(filepath.Join(dir, segs[1].name)); err != nil {
		t.Fatal(err)
	}
	w2 := testWAL(t, dir, WALOptions{})
	defer w2.Close()
	if err := w2.Replay(0, func(Entry) error { return nil }); err == nil {
		t.Fatal("replay across a missing segment must error")
	}
}

// TestWALSyncPolicies runs the WAL's one fsync policy, group commit (the
// zero-value WALOptions): a lone writer has nobody to share an fsync with
// and no flusher runs, so each wait finds its record un-fsynced and runs
// one; a graceful close leaves every record readable.
func TestWALSyncPolicies(t *testing.T) {
	t.Run("group", func(t *testing.T) {
		dir := t.TempDir()
		w := testWAL(t, dir, WALOptions{})
		met := w.met
		for i := 0; i < 4; i++ {
			seq, err := w.AppendSamples(sampleBatch(i, 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := w.WaitDurable(seq); err != nil {
				t.Fatal(err)
			}
		}
		if met.Fsync.Count() != 4 || w.DurableSeq() != 4 {
			t.Fatalf("%d fsyncs, DurableSeq %d; want 4 and 4", met.Fsync.Count(), w.DurableSeq())
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w2 := testWAL(t, dir, WALOptions{})
		if got := replayAll(t, w2, 0); len(got) != 4 {
			t.Fatalf("replayed %d, want 4", len(got))
		}
		w2.Close()
	})
}

func TestWALRejectsOversizedAndEmptyPayloads(t *testing.T) {
	w := testWAL(t, t.TempDir(), WALOptions{})
	defer w.Close()
	if _, err := w.appendPayload(nil); err == nil {
		t.Fatal("empty payload must error")
	}
	if _, err := w.appendPayload(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatal("oversized payload must error")
	}
	if w.LastSeq() != 0 {
		t.Fatalf("rejected appends must not consume sequence numbers, LastSeq=%d", w.LastSeq())
	}
}

// TestWALAdvanceTo: the recovery escape hatch for a checkpoint claiming
// sequences beyond the tail — the counter jumps forward onto a fresh
// segment, so fresh appends can never collide with a covered range.
func TestWALAdvanceTo(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{})
	for i := 0; i < 3; i++ {
		if _, err := w.AppendSamples(sampleBatch(i*10, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AdvanceTo(2); err != nil { // below the tail: no-op
		t.Fatal(err)
	}
	if got := w.LastSeq(); got != 3 {
		t.Fatalf("LastSeq=%d after no-op advance, want 3", got)
	}
	if err := w.AdvanceTo(10); err != nil {
		t.Fatal(err)
	}
	if got := w.LastSeq(); got != 10 {
		t.Fatalf("LastSeq=%d after advance, want 10", got)
	}
	seq, err := w.AppendSamples(sampleBatch(500, 2))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 11 {
		t.Fatalf("append after advance got seq %d, want 11", seq)
	}
	got := replayAll(t, w, 10)
	if len(got) != 1 || got[0].Seq != 11 || len(got[0].Samples) != 2 {
		t.Fatalf("replay past the advanced range: %+v", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: numbering continues past the advanced range.
	w2 := testWAL(t, dir, WALOptions{})
	if got := w2.LastSeq(); got != 11 {
		t.Fatalf("reopened LastSeq=%d, want 11", got)
	}
	w2.Close()
}

// TestWALAppendSamplesChunked: batches whose encoding exceeds the
// per-record bound are split across records instead of rejected — an
// acked batch must always reach the log. Exercised against a small
// bound so the test does not materialize a half-GiB batch.
func TestWALAppendSamplesChunked(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{})
	defer w.Close()
	batch := sampleBatch(0, 10)
	seq, err := w.appendSamplesChunked(batch, 3)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 || w.LastSeq() != 4 { // ceil(10/3) records
		t.Fatalf("seq=%d LastSeq=%d, want 4 records", seq, w.LastSeq())
	}
	var got []stream.Sample
	var sizes []int
	for _, e := range replayAll(t, w, 0) {
		if e.Kind != EntrySamples {
			t.Fatalf("unexpected kind %d", e.Kind)
		}
		sizes = append(sizes, len(e.Samples))
		got = append(got, e.Samples...)
	}
	if len(sizes) != 4 || sizes[0] != 3 || sizes[1] != 3 || sizes[2] != 3 || sizes[3] != 1 {
		t.Fatalf("chunk sizes %v, want [3 3 3 1]", sizes)
	}
	if len(got) != len(batch) {
		t.Fatalf("replayed %d samples, want %d", len(got), len(batch))
	}
	for i := range got {
		if got[i] != batch[i] {
			t.Fatalf("sample %d reordered: got %+v want %+v", i, got[i], batch[i])
		}
	}
}

// TestMaxSamplesPerRecordBound: the chunk bound is the exact maximum —
// one more sample would overflow MaxRecordBytes.
func TestMaxSamplesPerRecordBound(t *testing.T) {
	if 5+maxSamplesPerRecord*sampleWire > MaxRecordBytes {
		t.Fatal("maxSamplesPerRecord encodes past MaxRecordBytes")
	}
	if 5+(maxSamplesPerRecord+1)*sampleWire <= MaxRecordBytes {
		t.Fatal("maxSamplesPerRecord is not maximal")
	}
}

// TestGroupCommitReplayDirStopsAtCommitIndex: a follower reads its
// leader's segment files while the leader appends, and a file can hold a
// record before the fsync covering it lands. Bounded at the commit index,
// ReplayDir hands over only what an fsync covered — even with the next
// record's bytes already in the file — and runs no fsync of its own.
func TestGroupCommitReplayDirStopsAtCommitIndex(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, filepath.Join(dir, walDirName), WALOptions{})
	defer w.Close()
	if _, err := w.AppendSamples(sampleBatch(0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	commit := w.DurableSeq()
	// A record larger than the write buffer goes to the file at
	// once, fsync or no fsync.
	big, err := w.AppendSamples(sampleBatch(10, 8000))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk uint64
	if _, _, _, err := scanSegmentFile(filepath.Join(dir, walDirName, segmentName(1)), 1, func(seq uint64, _ []byte) error {
		onDisk = seq
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if onDisk != big || w.DurableSeq() != commit {
		t.Fatalf("segment file holds through seq %d, commit index %d; want %d past commit %d",
			onDisk, w.DurableSeq(), big, commit)
	}
	fsyncs := w.met.Fsync.Count()
	var got []uint64
	collect := func(e Entry) error { got = append(got, e.Seq); return nil }
	if err := ReplayDir(dir, 0, w.DurableSeq(), collect); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != commit {
		t.Fatalf("ReplayDir to the commit index read seqs %v, want [%d]", got, commit)
	}
	if n := w.met.Fsync.Count() - fsyncs; n != 0 {
		t.Fatalf("ReplayDir ran %d fsync(s)", n)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	got = nil
	if err := ReplayDir(dir, commit, w.DurableSeq(), collect); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != big {
		t.Fatalf("ReplayDir after the fsync read seqs %v, want [%d]", got, big)
	}
}

// replayDirLog writes 20 records of every kind — a user registration, a
// service removal and 18 sample batches — across several 256-byte
// segments and fsyncs them; it returns the data directory and the WAL.
func replayDirLog(t *testing.T) (string, *WAL) {
	t.Helper()
	dir := t.TempDir()
	w := testWAL(t, filepath.Join(dir, walDirName), WALOptions{SegmentBytes: 256})
	t.Cleanup(func() { w.Close() })
	if _, err := w.AppendRegisterUser(0, "u0"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendRemoveService(9); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 18; i++ {
		if _, err := w.AppendSamples(sampleBatch(i*2, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if w.SegmentCount() < 2 {
		t.Fatalf("want multiple segments, got %d", w.SegmentCount())
	}
	return dir, w
}

// TestReplayDirRoundTrip: every record kind reads back from another
// process's directory with its sequence number and payload.
func TestReplayDirRoundTrip(t *testing.T) {
	dir, w := replayDirLog(t)
	var all []Entry
	if err := ReplayDir(dir, 0, w.DurableSeq(), func(e Entry) error {
		e.Samples = append([]stream.Sample(nil), e.Samples...)
		all = append(all, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(all) != 20 || all[0].Kind != EntryRegisterUser || all[0].Name != "u0" ||
		all[1].Kind != EntryRemoveService || all[1].ID != 9 {
		t.Fatalf("read %d entries, head %+v %+v", len(all), all[0], all[1])
	}
	for i, e := range all {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
	}
	if s := all[19].Samples; len(s) != 2 || s[0] != sampleBatch(34, 2)[0] {
		t.Fatalf("last samples %+v", s)
	}
}

// TestReplayDirFrom: the lower bound is exclusive, and a read from the
// middle of the log carries on across segment rotations to the bound.
func TestReplayDirFrom(t *testing.T) {
	dir, w := replayDirLog(t)
	next := uint64(16)
	if err := ReplayDir(dir, 15, w.DurableSeq(), func(e Entry) error {
		if e.Seq != next {
			t.Fatalf("seq %d, want %d", e.Seq, next)
		}
		next++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if next != 21 {
		t.Fatalf("read ended at %d, want 21", next)
	}
}

// TestReplayDirGapAfterTruncate: once the owner truncates past a
// reader's position — before the walk starts, or by removing a segment
// the walk has listed but not yet opened — ReplayDir fails rather than
// skip the records in between.
func TestReplayDirGapAfterTruncate(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, filepath.Join(dir, walDirName), WALOptions{SegmentBytes: 200})
	defer w.Close()
	for i := 0; i < 12; i++ {
		if _, err := w.AppendSamples(sampleBatch(i*10, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if w.SegmentCount() < 4 {
		t.Fatalf("need >=4 segments, got %d", w.SegmentCount())
	}
	nop := func(Entry) error { return nil }

	// Mid-read: the first callback truncates through the record being
	// read, removing segments the walk listed before it began.
	err := ReplayDir(dir, 0, w.DurableSeq(), func(e Entry) error {
		if e.Seq == 1 {
			return w.TruncateThrough(w.DurableSeq())
		}
		return nil
	})
	if err == nil {
		t.Fatal("a walk across removed segments succeeded")
	}
	// Before the walk: the log now starts past the reader's position.
	if err := ReplayDir(dir, 0, w.DurableSeq(), nop); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("walk from before the log's first record: %v, want a gap error", err)
	}
	// From inside what is left, it reads on.
	segs, _ := listSegments(filepath.Join(dir, walDirName))
	if err := ReplayDir(dir, segs[0].first-1, w.DurableSeq(), nop); err != nil {
		t.Fatalf("walk from the first kept record: %v", err)
	}
}

// TestLoadCheckpointTakesNoClaim: a reader loads the owner's newest
// checkpoint without bumping the claim epoch (which would fence the
// owner), and a path with no log is an error, not an empty directory.
func TestLoadCheckpointTakesNoClaim(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, Options{})
	defer m.Close()
	if _, _, ok, err := LoadCheckpoint(dir, quietLogger()); ok || err != nil {
		t.Fatalf("fresh directory: ok=%v err=%v, want no checkpoint", ok, err)
	}
	if err := writeCheckpoint(filepath.Join(dir, ckptDirName), 7, []byte("state@7")); err != nil {
		t.Fatal(err)
	}
	lockBefore, _ := os.ReadFile(filepath.Join(dir, lockFileName))
	seq, data, ok, err := LoadCheckpoint(dir, quietLogger())
	if err != nil || !ok || seq != 7 || string(data) != "state@7" {
		t.Fatalf("LoadCheckpoint = %d %q %v %v", seq, data, ok, err)
	}
	if lockAfter, _ := os.ReadFile(filepath.Join(dir, lockFileName)); string(lockAfter) != string(lockBefore) {
		t.Fatal("LoadCheckpoint rewrote the LOCK file")
	}
	if m.Fenced() {
		t.Fatal("a reader fenced the owner")
	}
	if _, _, _, err := LoadCheckpoint(t.TempDir(), quietLogger()); err == nil {
		t.Fatal("a directory with no log loaded as an empty leader")
	}
}

// TestAppendSamplesAllocations: once the log's payload buffer has grown
// to the batch, journaling a 64-sample observe — the served shape —
// allocates nothing. The payload is encoded into the log's own buffer
// and framed by a header the log keeps, and both are copied into the
// segment's write buffer.
func TestAppendSamplesAllocations(t *testing.T) {
	w := testWAL(t, t.TempDir(), WALOptions{})
	defer w.Close()
	batch := sampleBatch(0, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := w.AppendSamples(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a 64-sample AppendSamples allocates %v objects, want 0", allocs)
	}
}
