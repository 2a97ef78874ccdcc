package store

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/stream"
)

func testSamples(n, base int) []stream.Sample {
	ss := make([]stream.Sample, n)
	for i := range ss {
		ss[i] = stream.Sample{
			Time:    time.Duration(base+i) * time.Second,
			User:    base + i,
			Service: base + i + 1,
			Value:   float64(base+i) + 0.5,
		}
	}
	return ss
}

// TestStreamSinceRoundTrip ships every record kind across the wire and
// decodes it back, verifying seq, order, and payload fidelity.
func TestStreamSinceRoundTrip(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{Sync: SyncGroup, Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	if _, err := w.AppendRegisterUser(0, "u0"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendRegisterService(1, "s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendSamples(testSamples(5, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendRemoveUser(7); err != nil {
		t.Fatal(err)
	}
	last, err := w.AppendRemoveService(9)
	if err != nil {
		t.Fatal(err)
	}

	if err := w.Sync(); err != nil { // only durable records ship
		t.Fatal(err)
	}
	var buf bytes.Buffer
	got, err := w.StreamSince(0, &buf, 0)
	if err != nil {
		t.Fatalf("StreamSince: %v", err)
	}
	if got != last {
		t.Fatalf("StreamSince returned seq %d, want %d", got, last)
	}

	rr := NewRecordReader(&buf)
	var entries []Entry
	for {
		e, err := rr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		e.Samples = append([]stream.Sample(nil), e.Samples...)
		entries = append(entries, e)
	}
	if len(entries) != 5 {
		t.Fatalf("decoded %d entries, want 5", len(entries))
	}
	wantKinds := []EntryKind{EntryRegisterUser, EntryRegisterService, EntrySamples, EntryRemoveUser, EntryRemoveService}
	for i, e := range entries {
		if e.Kind != wantKinds[i] {
			t.Errorf("entry %d: kind %d, want %d", i, e.Kind, wantKinds[i])
		}
		if e.Seq != uint64(i+1) {
			t.Errorf("entry %d: seq %d, want %d", i, e.Seq, i+1)
		}
	}
	if got := entries[2].Samples; len(got) != 5 || got[0].User != 10 || got[4].Value != 14.5 {
		t.Errorf("samples payload corrupted in transit: %+v", got)
	}
	if entries[0].Name != "u0" || entries[3].ID != 7 {
		t.Errorf("registration/removal payload corrupted: %+v / %+v", entries[0], entries[3])
	}
}

// parkFlusher stops an interval WAL's background flusher, so no tick can
// fsync between a test's steps; Close then skips the stopped loop.
func parkFlusher(w *WAL) {
	close(w.stopFlush)
	w.flushWG.Wait()
	w.mu.Lock()
	w.stopFlush = nil
	w.mu.Unlock()
}

// TestStreamSinceIntervalShipsOnlyDurable: under interval, as under
// group, a record ships only once an fsync covers it. Before any tick the
// stream ships nothing, runs no fsync of its own and no subscriber has
// been woken; after Sync the record ships.
func TestStreamSinceIntervalShipsOnlyDurable(t *testing.T) {
	w := testWAL(t, t.TempDir(), WALOptions{Sync: SyncInterval})
	defer w.Close()
	parkFlusher(w)
	commits, cancel := w.SubscribeCommits()
	defer cancel()
	seq, err := w.AppendSamples(testSamples(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	fsyncs := w.met.Fsync.Count()
	var buf bytes.Buffer
	last, err := w.StreamSince(0, &buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if last != 0 || buf.Len() != 0 || w.DurableSeq() != 0 {
		t.Fatalf("StreamSince before any fsync shipped through %d (%d bytes), DurableSeq %d; want nothing past 0",
			last, buf.Len(), w.DurableSeq())
	}
	if got := w.met.Fsync.Count(); got != fsyncs {
		t.Fatalf("StreamSince ran %d fsync(s) of its own", got-fsyncs)
	}
	select {
	case <-commits:
		t.Fatal("an append woke a commit subscriber before any fsync")
	default:
	}

	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-commits:
	default:
		t.Fatal("no commit notification after Sync")
	}
	if last, err := w.StreamSince(0, &buf, 0); err != nil || last != seq {
		t.Fatalf("StreamSince after Sync = %d, %v; want %d, nil", last, err, seq)
	}
}

// TestStreamSinceFrom verifies the from bound is exclusive and spans
// segment rotations.
func TestStreamSinceFrom(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{Sync: SyncGroup, SegmentBytes: 256, Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 20; i++ {
		if _, err := w.AppendSamples(testSamples(2, i*2)); err != nil {
			t.Fatal(err)
		}
	}
	if w.SegmentCount() < 2 {
		t.Fatalf("want multiple segments, got %d", w.SegmentCount())
	}

	if err := w.Sync(); err != nil { // only durable records ship
		t.Fatal(err)
	}
	var buf bytes.Buffer
	last, err := w.StreamSince(15, &buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if last != 20 {
		t.Fatalf("last = %d, want 20", last)
	}
	rr := NewRecordReader(&buf)
	next := uint64(16)
	for {
		e, err := rr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if e.Seq != next {
			t.Fatalf("seq %d, want %d", e.Seq, next)
		}
		next++
	}
	if next != 21 {
		t.Fatalf("stream ended at %d, want 21", next)
	}
}

// TestStreamSinceByteBudget: the stream cuts on a record boundary at the
// budget but always ships at least one record so a poll can't starve.
func TestStreamSinceByteBudget(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{Sync: SyncGroup, Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 10; i++ {
		if _, err := w.AppendSamples(testSamples(4, i*4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil { // only durable records ship
		t.Fatal(err)
	}
	var buf bytes.Buffer
	last, err := w.StreamSince(0, &buf, 1) // budget below one record
	if err != nil {
		t.Fatal(err)
	}
	if last != 1 {
		t.Fatalf("tiny budget shipped through seq %d, want exactly 1", last)
	}
	rr := NewRecordReader(&buf)
	if e, err := rr.Next(); err != nil || e.Seq != 1 {
		t.Fatalf("Next = (%+v, %v), want seq 1", e, err)
	}
	if _, err := rr.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF after budgeted record, got %v", err)
	}

	// A mid-range budget ships a strict prefix.
	buf.Reset()
	last, err = w.StreamSince(0, &buf, 400)
	if err != nil {
		t.Fatal(err)
	}
	if last == 0 || last >= 10 {
		t.Fatalf("mid budget shipped through seq %d, want a strict prefix", last)
	}
}

// TestRecordReaderRejectsCorruption: flipped payload bytes and spliced
// gaps must fail loudly, never decode.
func TestRecordReaderRejectsCorruption(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{Sync: SyncGroup, Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 3; i++ {
		if _, err := w.AppendSamples(testSamples(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil { // only durable records ship
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := w.StreamSince(0, &buf, 0); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()

	// Flip one payload byte: CRC must catch it.
	bad := append([]byte(nil), wire...)
	bad[recHeaderSize+3] ^= 0xFF
	rr := NewRecordReader(bytes.NewReader(bad))
	if _, err := rr.Next(); err == nil {
		t.Fatal("corrupted record decoded cleanly")
	}

	// Splice out the middle record: continuity check must catch it.
	recLen := len(wire) / 3
	spliced := append(append([]byte(nil), wire[:recLen]...), wire[2*recLen:]...)
	rr = NewRecordReader(bytes.NewReader(spliced))
	if _, err := rr.Next(); err != nil {
		t.Fatalf("first record: %v", err)
	}
	if _, err := rr.Next(); err == nil {
		t.Fatal("gap in stream decoded cleanly")
	}
}
