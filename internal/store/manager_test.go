package store

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/stream"
)

func openManager(t *testing.T, dir string, opts Options) *Manager {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = quietLogger()
	}
	m, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return m
}

// TestManagerCheckpointAndRecover runs the full durable-state cycle:
// journal, checkpoint, journal a tail, crash (no final checkpoint),
// recover = restore + tail replay only.
func TestManagerCheckpointAndRecover(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, Options{})

	// "Apply" = collect samples into state; capture serializes it.
	var state []stream.Sample
	for i := 0; i < 5; i++ {
		if _, err := m.WAL().AppendSamples(sampleBatch(i*10, 2)); err != nil {
			t.Fatal(err)
		}
		state = append(state, sampleBatch(i*10, 2)...)
	}
	m.SetCaptureForTest(func() (uint64, []byte, error) {
		return m.WAL().LastSeq(), encodeSamples(nil, state), nil
	})
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if m.Metrics().Checkpoints.Load() != 1 {
		t.Fatal("checkpoint counter not bumped")
	}
	// Tail past the checkpoint, acked the way the engine acks it.
	seq, err := m.WAL().AppendSamples(sampleBatch(900, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WAL().WaitDurable(seq); err != nil {
		t.Fatal(err)
	}
	// Crash: abandon without Close (everything acked is on disk).

	m2 := openManager(t, dir, Options{})
	var restored []stream.Sample
	var tail []stream.Sample
	rs, err := m2.Recover(
		func(data []byte) error {
			ss, err := decodeSamplesInto(nil, data)
			restored = ss
			return err
		},
		func(e Entry) error {
			if e.Kind != EntrySamples {
				return fmt.Errorf("unexpected kind %d", e.Kind)
			}
			tail = append(tail, e.Samples...)
			return nil
		})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !rs.HaveCheckpoint || rs.CheckpointSeq != 5 {
		t.Fatalf("stats: %+v", rs)
	}
	if rs.Entries != 1 || rs.Samples != 3 {
		t.Fatalf("tail stats: %+v", rs)
	}
	if len(restored) != 10 {
		t.Fatalf("restored %d samples, want 10", len(restored))
	}
	want := sampleBatch(900, 3)
	if len(tail) != 3 || tail[0] != want[0] || tail[2] != want[2] {
		t.Fatalf("tail: %+v", tail)
	}
	if m2.Metrics().RecoveryReplayed.Load() != 3 {
		t.Fatalf("RecoveryReplayed=%d, want 3", m2.Metrics().RecoveryReplayed.Load())
	}
	m2.Close()
}

func TestManagerCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, Options{SegmentBytes: 200})
	for i := 0; i < 10; i++ {
		if _, err := m.WAL().AppendSamples(sampleBatch(i*10, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if m.WAL().SegmentCount() < 3 {
		t.Fatalf("need rotation, got %d segments", m.WAL().SegmentCount())
	}
	m.SetCaptureForTest(func() (uint64, []byte, error) {
		return m.WAL().LastSeq(), []byte("full-state"), nil
	})
	before := m.WAL().SegmentCount()
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after := m.WAL().SegmentCount(); after >= before {
		t.Fatalf("checkpoint did not truncate segments (%d -> %d)", before, after)
	}
	// Recovery after the checkpoint replays nothing.
	m.Close()
	m2 := openManager(t, dir, Options{})
	var blob []byte
	rs, err := m2.Recover(func(d []byte) error { blob = d; return nil }, func(Entry) error {
		t.Fatal("nothing should replay after a covering checkpoint")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rs.HaveCheckpoint || !bytes.Equal(blob, []byte("full-state")) {
		t.Fatalf("recover: %+v blob=%q", rs, blob)
	}
	m2.Close()
}

func TestManagerBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, Options{CheckpointInterval: 10 * time.Millisecond})
	if _, err := m.WAL().AppendSamples(sampleBatch(0, 1)); err != nil {
		t.Fatal(err)
	}
	m.Start(func() (uint64, []byte, error) {
		return m.WAL().LastSeq(), []byte("bg"), nil
	})
	deadline := time.Now().Add(2 * time.Second)
	for m.Metrics().Checkpoints.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if m.Metrics().Checkpoints.Load() == 0 {
		t.Fatal("background checkpointer never fired")
	}
	if m.Metrics().CheckpointAge() > 60 {
		t.Fatalf("checkpoint age implausible: %v", m.Metrics().CheckpointAge())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent and Start after Close is a no-op.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m.Start(func() (uint64, []byte, error) { return 0, nil, nil })
}

// TestCheckpointSyncsWALBeforeWrite: the WAL's durable tail must be >=
// any durable checkpoint's claimed sequence number. Under group with
// nobody waiting nothing flushes on its own, so Checkpoint itself must
// sync the log before publishing the checkpoint — otherwise a crash right
// after would reopen the WAL below the checkpoint's seq, hand already-
// covered sequence numbers to fresh acked appends, and the next recovery
// would silently skip them.
func TestCheckpointSyncsWALBeforeWrite(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if _, err := m.WAL().AppendSamples(sampleBatch(i*10, 2)); err != nil {
			t.Fatal(err)
		}
	}
	m.SetCaptureForTest(func() (uint64, []byte, error) {
		return m.WAL().LastSeq(), []byte("state"), nil
	})
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// "Crash": reopen the wal directory without Close. Only bytes that
	// reached disk before the crash are visible; the checkpoint durably
	// claims seq 3, so the reopened log must already hold seq 3.
	w2 := testWAL(t, filepath.Join(dir, "wal"), WALOptions{})
	if got := w2.LastSeq(); got != 3 {
		t.Fatalf("durable wal tail at seq %d < checkpoint seq 3 — Checkpoint did not sync the log first", got)
	}
	w2.Close()
	m.Close()
}

// TestRecoverCheckpointBeyondWALTail: a durable checkpoint claiming
// sequence numbers past the log's tail (lost WAL tail, wiped wal dir)
// must not leave the sequence counter below the covered range —
// otherwise fresh acked appends would reuse covered numbers and the
// NEXT recovery would silently skip them.
func TestRecoverCheckpointBeyondWALTail(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, Options{})
	if _, err := m.WAL().AppendSamples(sampleBatch(0, 2)); err != nil { // seq 1
		t.Fatal(err)
	}
	// A checkpoint whose covering WAL tail is gone: claims seq 10.
	if err := writeCheckpoint(filepath.Join(dir, "checkpoints"), 10, []byte("state@10")); err != nil {
		t.Fatal(err)
	}
	var blob []byte
	rs, err := m.Recover(func(d []byte) error { blob = d; return nil }, func(Entry) error {
		t.Fatal("records below the checkpoint must not replay")
		return nil
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !rs.HaveCheckpoint || rs.CheckpointSeq != 10 || string(blob) != "state@10" {
		t.Fatalf("recover: %+v blob=%q", rs, blob)
	}
	if got := m.WAL().LastSeq(); got != 10 {
		t.Fatalf("LastSeq=%d after recover, want 10 (counter must clear the covered range)", got)
	}
	seq, err := m.WAL().AppendSamples(sampleBatch(100, 3))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 11 {
		t.Fatalf("fresh append got seq %d, want 11", seq)
	}
	m.Close()

	// The point of the bump: a second recovery replays the post-restart
	// append instead of skipping it as already-checkpointed.
	m2 := openManager(t, dir, Options{})
	var tail []stream.Sample
	rs2, err := m2.Recover(func([]byte) error { return nil }, func(e Entry) error {
		tail = append(tail, e.Samples...)
		return nil
	})
	if err != nil {
		t.Fatalf("second Recover: %v", err)
	}
	if rs2.CheckpointSeq != 10 || rs2.Entries != 1 || len(tail) != 3 {
		t.Fatalf("second recovery lost the post-restart append: %+v tail=%d", rs2, len(tail))
	}
	m2.Close()
}

func TestManagerCheckpointWithoutCapture(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{})
	defer m.Close()
	if err := m.Checkpoint(); err == nil {
		t.Fatal("checkpoint without capture must error")
	}
}

func TestRecoverRemovalEntries(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, Options{})
	if _, err := m.WAL().AppendSamples(sampleBatch(0, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WAL().AppendRemoveUser(1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WAL().AppendRemoveService(2); err != nil {
		t.Fatal(err)
	}
	m.WAL().Sync()

	var kinds []EntryKind
	rs, err := m.Recover(func([]byte) error { return nil }, func(e Entry) error {
		kinds = append(kinds, e.Kind)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Removals != 2 || rs.Samples != 2 || len(kinds) != 3 {
		t.Fatalf("stats: %+v kinds=%v", rs, kinds)
	}
	if kinds[1] != EntryRemoveUser || kinds[2] != EntryRemoveService {
		t.Fatalf("kinds: %v", kinds)
	}
	m.Close()
}
