package store

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestGroupCommitRoundTrip: appends become durable
// (WaitDurable returns nil), survive a reopen, and the commit metrics
// record at least one batched fsync.
func TestGroupCommitRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seq, err := w.AppendSamples(sampleBatch(i*10, 4))
			if err != nil {
				errs <- err
				return
			}
			errs <- w.WaitDurable(seq)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("append/wait: %v", err)
		}
	}
	if got := w.DurableSeq(); got != 16 {
		t.Fatalf("DurableSeq = %d, want 16", got)
	}
	if n := w.met.GroupBatch.Count(); n == 0 || n > 16 {
		t.Fatalf("%d commit-index advances recorded for 16 records, want 1..16", n)
	}
	if got := w.met.GroupBatch.Sum(); got != 16 {
		t.Fatalf("commit-index advances covered %v records, want 16", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := testWAL(t, dir, WALOptions{})
	defer w2.Close()
	if got := len(replayAll(t, w2, 0)); got != 16 {
		t.Fatalf("replayed %d records after reopen, want 16", got)
	}
}

// TestGroupWALOwnsNoGoroutine: every record has a waiter that runs or shares
// its covering fsync, so the log starts no flusher — opening a WAL with
// zero-value options, writing through it and closing it never raises the
// goroutine count (an earlier test's goroutine may still be exiting, so
// the count may fall).
func TestGroupWALOwnsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	owns := func(what string) {
		t.Helper()
		if got := runtime.NumGoroutine(); got > before {
			t.Fatalf("%s took the process from %d to %d goroutines", what, before, got)
		}
	}
	w := testWAL(t, t.TempDir(), WALOptions{})
	owns("OpenWAL")
	seq, err := w.AppendSamples(sampleBatch(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(seq); err != nil {
		t.Fatal(err)
	}
	owns("an append and its wait")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	owns("Close")
}

// waitDurableWithin runs WaitDurable on its own goroutine and fails the
// test if it has not returned within 5s — a hung waiter is the bug these
// tests exist to catch, and it must fail, not stall the suite.
func waitDurableWithin(t *testing.T, w *WAL, seq uint64) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- w.WaitDurable(seq) }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("WaitDurable(%d) still parked after 5s", seq)
		return nil
	}
}

// TestGroupCommitWaitDurablePast: waiting on an already-durable (or
// never-assigned) low sequence number returns immediately, and waiting on
// one past the tail — no append has assigned it — is an error, not a spin
// or a park that nothing will ever release.
func TestGroupCommitWaitDurablePast(t *testing.T) {
	w := testWAL(t, t.TempDir(), WALOptions{})
	defer w.Close()
	if err := w.WaitDurable(0); err != nil {
		t.Fatalf("WaitDurable(0): %v", err)
	}
	seq, err := w.AppendSamples(sampleBatch(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(seq); err != nil {
		t.Fatal(err)
	}
	// Second wait on the same seq: instant, via the atomic fast path.
	if err := w.WaitDurable(seq); err != nil {
		t.Fatal(err)
	}
	if err := waitDurableWithin(t, w, seq+1); err == nil {
		t.Fatalf("WaitDurable(%d) past the tail %d returned nil", seq+1, seq)
	}
	if got := w.DurableSeq(); got != seq {
		t.Fatalf("DurableSeq = %d after a wait past the tail, want %d", got, seq)
	}
}

// TestGroupCommitFenceDropsPendingWindow: records buffered with no waiter
// (no flusher runs) when the fence lands are (a) rejected
// to every later WaitDurable with ErrFenced — their covering fsync will
// never happen here — and (b) DROPPED: flushing them would overwrite the
// new owner's log tail, so a reopen replays none of them.
func TestGroupCommitFenceDropsPendingWindow(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{})
	const records = 8
	var seqs []uint64
	for i := 0; i < records; i++ {
		seq, err := w.AppendSamples(sampleBatch(i, 2))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	w.Fence()
	for _, seq := range seqs {
		if err := waitDurableWithin(t, w, seq); !errors.Is(err, ErrFenced) {
			t.Fatalf("WaitDurable(%d) after fence: %v, want ErrFenced", seq, err)
		}
	}
	if got := w.DurableSeq(); got != 0 {
		t.Fatalf("DurableSeq = %d after a fence with nothing fsynced, want 0", got)
	}
	// Appends after the fence fail outright.
	if _, err := w.AppendSamples(sampleBatch(99, 1)); !errors.Is(err, ErrFenced) {
		t.Fatalf("append after fence: %v, want ErrFenced", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := testWAL(t, dir, WALOptions{})
	defer w2.Close()
	if got := replayAll(t, w2, 0); len(got) != 0 || w2.LastSeq() != 0 {
		t.Fatalf("reopen after fence: %d replayable records, LastSeq %d; want none of the dropped %d",
			len(got), w2.LastSeq(), records)
	}
}

// TestGroupCommitFenceWakesParkedWaiter: a waiter parked behind an
// in-flight fsync returns ErrFenced as soon as the fence lands, without
// waiting for that fsync — and the commit index does not move. The fsync
// is simulated by holding the in-flight flag, so the fence always wins.
func TestGroupCommitFenceWakesParkedWaiter(t *testing.T) {
	w := testWAL(t, t.TempDir(), WALOptions{})
	defer w.Close()
	seq, err := w.AppendSamples(sampleBatch(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	w.syncing = true // an fsync that never lands
	w.mu.Unlock()
	done := make(chan error, 1)
	go func() { done <- w.WaitDurable(seq) }()
	select {
	case err := <-done:
		t.Fatalf("WaitDurable returned %v with an fsync in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	w.Fence()
	select {
	case err := <-done:
		if !errors.Is(err, ErrFenced) {
			t.Fatalf("parked waiter got %v, want ErrFenced", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fence did not release the parked waiter")
	}
	w.mu.Lock()
	w.syncing = false
	w.syncDone.Broadcast()
	w.mu.Unlock()
	if got := w.DurableSeq(); got != 0 {
		t.Fatalf("DurableSeq = %d after the fence, want 0", got)
	}
}

// TestGroupCommitFailRejectsWaiters: N waiters parked behind a sabotaged
// segment file (closed underneath the log) all get ErrWALFailed — the
// first to run the covering fsync poisons the log, the rest see it — and
// none hangs.
func TestGroupCommitFailRejectsWaiters(t *testing.T) {
	w := testWAL(t, t.TempDir(), WALOptions{})
	defer w.Close()
	const waiters = 8
	var seqs []uint64
	for i := 0; i < waiters; i++ {
		seq, err := w.AppendSamples(sampleBatch(i, 2))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	w.mu.Lock()
	w.f.Close()
	w.mu.Unlock()
	start := make(chan struct{})
	errs := make(chan error, waiters)
	for _, seq := range seqs {
		go func(seq uint64) {
			<-start
			errs <- w.WaitDurable(seq)
		}(seq)
	}
	close(start)
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrWALFailed) {
				t.Fatalf("waiter %d got %v, want ErrWALFailed", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d waiters still parked after 5s", waiters-i, waiters)
		}
	}
	if got := w.DurableSeq(); got != 0 {
		t.Fatalf("DurableSeq = %d after a failed commit, want 0", got)
	}
}

// TestGroupCommitCheckpointBarrier: Manager.Checkpoint's wal.Sync()
// barrier must hold under group commit — after Sync returns, the full
// appended tail is durable, so the checkpoint's claimed seq can never
// exceed the durable log.
func TestGroupCommitCheckpointBarrier(t *testing.T) {
	w := testWAL(t, t.TempDir(), WALOptions{})
	defer w.Close()
	seq, err := w.AppendSamples(sampleBatch(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.DurableSeq(); got != seq {
		t.Fatalf("DurableSeq after Sync = %d, want %d", got, seq)
	}
}

// TestGroupCommitSubscribe: a commit subscriber wakes when the commit
// index advances — here by a waiter's fsync — and not on the append
// before it, whose record is not yet shippable.
func TestGroupCommitSubscribe(t *testing.T) {
	w := testWAL(t, t.TempDir(), WALOptions{})
	defer w.Close()
	ch, cancel := w.SubscribeCommits()
	defer cancel()
	seq, err := w.AppendSamples(sampleBatch(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
		t.Fatal("an append woke a commit subscriber before any fsync")
	default:
	}
	if err := w.WaitDurable(seq); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("no commit notification after the covering fsync")
	}
	if got := w.DurableSeq(); got != seq {
		t.Fatalf("DurableSeq = %d, want %d", got, seq)
	}
}

// TestGroupCommitConcurrentWithRotation: tiny segments force rotations
// while concurrent writers append+wait — the rotation's inline sync must
// wait out a caller-run fsync instead of closing the file under it.
func TestGroupCommitConcurrentWithRotation(t *testing.T) {
	w := testWAL(t, t.TempDir(), WALOptions{SegmentBytes: 512})
	defer w.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				seq, err := w.AppendSamples(sampleBatch(i*100+j, 3))
				if err != nil {
					errs <- err
					return
				}
				if err := w.WaitDurable(seq); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if w.SegmentCount() < 2 {
		t.Fatalf("expected rotations, got %d segment(s)", w.SegmentCount())
	}
	if got := len(replayAll(t, w, 0)); got != 64 {
		t.Fatalf("replayed %d records, want 64", got)
	}
}
