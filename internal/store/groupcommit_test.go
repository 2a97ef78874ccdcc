package store

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestGroupCommitRoundTrip: appends under fsync=group become durable
// (WaitDurable returns nil), survive a reopen, and the commit metrics
// record at least one batched fsync.
func TestGroupCommitRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{Sync: SyncGroup})
	if !w.GroupCommit() {
		t.Fatal("GroupCommit() = false under SyncGroup")
	}
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
	if w.met.GroupCommits.Load() == 0 {
		t.Fatal("no group commits recorded")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := testWAL(t, dir, WALOptions{Sync: SyncGroup})
	defer w2.Close()
	if got := len(replayAll(t, w2, 0)); got != 16 {
		t.Fatalf("replayed %d records after reopen, want 16", got)
	}
}

// TestGroupCommitWindowBound: with no waiter parked, a buffered append
// is still fsynced within (a generous multiple of) the configured
// window — the async latency bound.
func TestGroupCommitWindowBound(t *testing.T) {
	w := testWAL(t, t.TempDir(), WALOptions{Sync: SyncGroup, GroupWindow: time.Millisecond})
	defer w.Close()
	seq, err := w.AppendSamples(sampleBatch(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for w.DurableSeq() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("append not durable within 2s (window 1ms); DurableSeq=%d", w.DurableSeq())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitWaitDurablePast: waiting on an already-durable (or
// never-assigned) low sequence number returns immediately.
func TestGroupCommitWaitDurablePast(t *testing.T) {
	w := testWAL(t, t.TempDir(), WALOptions{Sync: SyncGroup})
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
}

// TestGroupCommitFenceDropsPendingWindow: fencing mid-window must (a)
// reject every parked waiter with ErrFenced and (b) DROP the buffered
// bytes — flushing them would overwrite the new owner's log tail. The
// window/byte triggers are set far out of reach so the records are
// guaranteed still buffered when the fence lands.
func TestGroupCommitFenceDropsPendingWindow(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{
		Sync:        SyncGroup,
		GroupWindow: time.Hour,
		GroupBytes:  1 << 40,
	})
	const writers = 8
	var appended sync.WaitGroup
	var parked sync.WaitGroup
	waitErrs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		appended.Add(1)
		parked.Add(1)
		go func(i int) {
			defer parked.Done()
			seq, err := w.AppendSamples(sampleBatch(i, 2))
			appended.Done()
			if err != nil {
				waitErrs <- err
				return
			}
			waitErrs <- w.WaitDurable(seq)
		}(i)
	}
	appended.Wait()
	// The waiters signal the coordinator, which would normally fsync
	// immediately — but each goroutine may not have parked yet. Fencing
	// races WaitDurable here by design: a waiter either parks and is
	// rejected, or checks the fenced flag first. Both paths must error.
	w.Fence()
	parked.Wait()
	close(waitErrs)
	rejected := 0
	for err := range waitErrs {
		if err == nil {
			// The coordinator may have fsynced a prefix before the fence
			// landed; those waiters were durably acked — legal. But the
			// test forces an un-syncable window, so any nil beyond what
			// the first immediate fsync could cover is suspicious. Track
			// only hard failures here; the reopen below is the real check.
			continue
		}
		if !errors.Is(err, ErrFenced) {
			t.Fatalf("parked waiter got %v, want ErrFenced", err)
		}
		rejected++
	}
	if rejected == 0 {
		t.Fatal("no waiter was rejected with ErrFenced")
	}
	// Appends after the fence fail outright.
	if _, err := w.AppendSamples(sampleBatch(99, 1)); !errors.Is(err, ErrFenced) {
		t.Fatalf("append after fence: %v, want ErrFenced", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The dropped window must NOT be on disk: a reopen sees only the
	// records the (at most one) pre-fence fsync covered.
	w2 := testWAL(t, dir, WALOptions{Sync: SyncGroup})
	defer w2.Close()
	if got, durable := uint64(len(replayAll(t, w2, 0))), w2.LastSeq(); got != durable {
		t.Fatalf("reopen: %d replayable records vs LastSeq %d", got, durable)
	}
	if w2.LastSeq() == writers {
		t.Fatalf("all %d buffered records reached disk despite the fence dropping the window", writers)
	}
}

// TestGroupCommitFailRejectsWaiters: an fsync failure (segment file
// closed underneath the coordinator) poisons the log and rejects parked
// waiters with ErrWALFailed instead of hanging them forever.
func TestGroupCommitFailRejectsWaiters(t *testing.T) {
	w := testWAL(t, t.TempDir(), WALOptions{
		Sync:        SyncGroup,
		GroupWindow: 5 * time.Millisecond,
	})
	seq, err := w.AppendSamples(sampleBatch(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the fsync: close the segment file out from under the
	// coordinator before its window expires.
	w.mu.Lock()
	w.f.Close()
	w.mu.Unlock()
	err = w.WaitDurable(seq)
	if err == nil {
		// The fsync may have squeaked in before the sabotage landed;
		// force another append through the poisoned/closed file.
		seq2, aerr := w.AppendSamples(sampleBatch(1, 2))
		if aerr != nil {
			return // append already surfaced the failure — also fine
		}
		err = w.WaitDurable(seq2)
	}
	if err == nil || errors.Is(err, ErrFenced) {
		t.Fatalf("WaitDurable after sabotaged fsync: %v, want ErrWALFailed", err)
	}
}

// TestGroupCommitCheckpointBarrier: Manager.Checkpoint's wal.Sync()
// barrier must hold under group commit — after Sync returns, the full
// appended tail is durable, so the checkpoint's claimed seq can never
// exceed the durable log.
func TestGroupCommitCheckpointBarrier(t *testing.T) {
	w := testWAL(t, t.TempDir(), WALOptions{Sync: SyncGroup, GroupWindow: time.Hour, GroupBytes: 1 << 40})
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
// index advances, and cancel unregisters it.
func TestGroupCommitSubscribe(t *testing.T) {
	w := testWAL(t, t.TempDir(), WALOptions{Sync: SyncGroup})
	defer w.Close()
	ch, cancel := w.SubscribeCommits()
	defer cancel()
	seq, err := w.AppendSamples(sampleBatch(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("no commit notification within 2s")
	}
	if got := w.DurableSeq(); got < seq {
		// Coalesced wakeups can fire before the index we care about;
		// drain until it lands.
		deadline := time.Now().Add(2 * time.Second)
		for w.DurableSeq() < seq && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if w.DurableSeq() < seq {
			t.Fatalf("DurableSeq=%d never reached %d", w.DurableSeq(), seq)
		}
	}
}

// TestGroupCommitStreamSinceShipsOnlyDurable: under fsync=group the
// replication stream is bounded at the durable commit index — records
// whose covering fsync has not landed are not shipped.
func TestGroupCommitStreamSinceShipsOnlyDurable(t *testing.T) {
	w := testWAL(t, t.TempDir(), WALOptions{Sync: SyncGroup, GroupWindow: time.Hour, GroupBytes: 1 << 40})
	defer w.Close()
	// First batch: force durability via the barrier.
	if _, err := w.AppendSamples(sampleBatch(0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	durable := w.DurableSeq()
	// Second batch: left buffered (hour-long window, no waiter).
	if _, err := w.AppendSamples(sampleBatch(10, 2)); err != nil {
		t.Fatal(err)
	}
	var sink countWriter
	last, err := w.StreamSince(0, &sink, 0)
	if err != nil {
		t.Fatal(err)
	}
	if last != durable {
		t.Fatalf("StreamSince shipped through %d, want durable bound %d (tail %d)", last, durable, w.LastSeq())
	}
	// Nothing shippable: an empty answer, not a forced fsync.
	if last2, err := w.StreamSince(durable, &sink, 0); err != nil || last2 != durable {
		t.Fatalf("StreamSince(durable) = %d, %v; want %d, nil", last2, err, durable)
	}
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// TestGroupCommitConcurrentWithRotation: tiny segments force rotations
// while concurrent writers append+wait — the rotation's inline sync must
// coordinate with in-flight group fsyncs instead of racing the file.
func TestGroupCommitConcurrentWithRotation(t *testing.T) {
	w := testWAL(t, t.TempDir(), WALOptions{Sync: SyncGroup, SegmentBytes: 512})
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
