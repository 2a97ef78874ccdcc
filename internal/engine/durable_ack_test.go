package engine

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeDurableJournal extends fakeJournal with a manually-advanced
// durable commit index, so tests control exactly when a "covering
// fsync" lands.
type fakeDurableJournal struct {
	fakeJournal
	cmu     sync.Mutex
	durable uint64
	failErr error
	waiters map[uint64][]chan error
}

func newFakeDurableJournal() *fakeDurableJournal {
	return &fakeDurableJournal{waiters: make(map[uint64][]chan error)}
}

func (f *fakeDurableJournal) WaitDurable(seq uint64) error {
	f.cmu.Lock()
	if f.failErr != nil {
		err := f.failErr
		f.cmu.Unlock()
		return err
	}
	if seq <= f.durable {
		f.cmu.Unlock()
		return nil
	}
	ch := make(chan error, 1)
	f.waiters[seq] = append(f.waiters[seq], ch)
	f.cmu.Unlock()
	return <-ch
}

// advance marks everything <= seq durable and releases its waiters.
func (f *fakeDurableJournal) advance(seq uint64) {
	f.cmu.Lock()
	defer f.cmu.Unlock()
	if seq > f.durable {
		f.durable = seq
	}
	for s, chs := range f.waiters {
		if s <= seq {
			for _, ch := range chs {
				ch <- nil
			}
			delete(f.waiters, s)
		}
	}
}

// failAll rejects every parked waiter and all future waits.
func (f *fakeDurableJournal) failAll(err error) {
	f.cmu.Lock()
	defer f.cmu.Unlock()
	f.failErr = err
	for s, chs := range f.waiters {
		for _, ch := range chs {
			ch <- err
		}
		delete(f.waiters, s)
	}
}

// TestDurableAckPipelined: with a durable journal attached, the
// writer loop must journal and apply batch N+1 while batch N's covering
// fsync is still in flight — the callers stay parked until their commit
// lands, but the writer does not.
func TestDurableAckPipelined(t *testing.T) {
	e := New(testModel(t), Config{})
	defer e.Close()
	j := newFakeDurableJournal()
	e.SetJournal(j)

	done1 := make(chan struct{})
	done2 := make(chan struct{})
	go func() { e.ObserveAll(seedSamples(3, 3)); close(done1) }()
	// Wait until batch 1 is journaled (the writer has taken it).
	waitCond(t, func() bool { return j.LastSeq() >= 1 })
	go func() { e.ObserveAll(seedSamples(4, 4)); close(done2) }()
	// The writer must reach batch 2 while batch 1's ack is unreleased —
	// this is the pipelining: journal+apply run ahead of the fsync.
	waitCond(t, func() bool { return j.LastSeq() >= 2 })

	select {
	case <-done1:
		t.Fatal("ObserveAll returned before its commit was durable")
	case <-done2:
		t.Fatal("second ObserveAll returned before its commit was durable")
	case <-time.After(20 * time.Millisecond):
	}

	j.advance(2)
	waitClosed(t, done1, "first ObserveAll after commit")
	waitClosed(t, done2, "second ObserveAll after commit")
}

// TestDurableAckOrdering: acks complete in writer (seq) order — a later
// batch is never released before an earlier one when commits land
// together.
func TestDurableAckOrdering(t *testing.T) {
	e := New(testModel(t), Config{})
	defer e.Close()
	j := newFakeDurableJournal()
	e.SetJournal(j)

	const batches = 8
	dones := make([]chan struct{}, batches)
	for i := 0; i < batches; i++ {
		i := i
		dones[i] = make(chan struct{})
		go func() { e.ObserveAll(seedSamples(2, 2)); close(dones[i]) }()
		waitCond(t, func() bool { return j.LastSeq() >= uint64(i+1) })
	}
	// Release commits one at a time; after each advance exactly the
	// covered callers may proceed.
	released := 0
	for seq := uint64(1); seq <= batches; seq++ {
		j.advance(seq)
		waitClosed(t, dones[seq-1], "caller for advanced seq")
		released++
		for k := int(seq); k < batches; k++ {
			select {
			case <-dones[k]:
				t.Fatalf("caller %d released at durable seq %d", k+1, seq)
			default:
			}
		}
	}
	if released != batches {
		t.Fatalf("released %d, want %d", released, batches)
	}
}

// TestDurableAckFailureReleases: a WaitDurable rejection (fence/WAL
// failure) must release the caller — counted as a journal error, never
// a hang — and the engine keeps serving.
func TestDurableAckFailureReleases(t *testing.T) {
	e := New(testModel(t), Config{})
	defer e.Close()
	j := newFakeDurableJournal()
	e.SetJournal(j)

	done := make(chan struct{})
	go func() { e.ObserveAll(seedSamples(3, 3)); close(done) }()
	waitCond(t, func() bool { return j.LastSeq() >= 1 })
	j.failAll(errors.New("fenced"))
	waitClosed(t, done, "caller after WaitDurable rejection")
	waitCond(t, func() bool { return e.Stats().JournalErrors >= 1 })
	if _, err := e.View().Predict(0, 0); err != nil {
		t.Fatalf("predict after rejected ack: %v", err)
	}
}

// TestDurableAckRemoval: a churn departure is acked like an observe —
// RemoveUser/RemoveService return only once the removal record's
// covering fsync has landed, and a WaitDurable rejection releases the
// caller and is counted.
func TestDurableAckRemoval(t *testing.T) {
	e := New(testModel(t), Config{})
	defer e.Close()
	j := newFakeDurableJournal()
	e.SetJournal(j)

	for i, remove := range []func(int){e.RemoveUser, e.RemoveService} {
		seq := uint64(i + 1)
		done := make(chan struct{})
		go func() { remove(0); close(done) }()
		waitCond(t, func() bool { return j.LastSeq() >= seq })
		select {
		case <-done:
			t.Fatalf("removal %d returned before its record was durable", seq)
		case <-time.After(20 * time.Millisecond):
		}
		j.advance(seq)
		waitClosed(t, done, "removal after commit")
	}

	j.failAll(errors.New("fenced"))
	e.RemoveUser(1) // must not hang
	if got := e.Stats().JournalErrors; got != 1 {
		t.Fatalf("JournalErrors = %d after a rejected removal ack, want 1", got)
	}
}

// TestDurableAckCloseCompletes: Close with in-flight durable acks must
// complete every taken batch, not leak parked callers — and a write that
// arrives after Close is held to what the loop path is held to.
func TestDurableAckCloseCompletes(t *testing.T) {
	e := New(testModel(t), Config{})
	j := newFakeDurableJournal()
	e.SetJournal(j)
	done := make(chan struct{})
	go func() { e.ObserveAll(seedSamples(3, 3)); close(done) }()
	waitCond(t, func() bool { return j.LastSeq() >= 1 })
	// Commit lands while the engine is closing.
	go func() { time.Sleep(5 * time.Millisecond); j.advance(1) }()
	e.Close()
	waitClosed(t, done, "caller across Close")

	// The post-Close inline path: same stages reported, same promise —
	// no return before the covering fsync lands.
	var tm ObserveTiming
	done = make(chan struct{})
	go func() { tm = e.ObserveAllTraced(seedSamples(4, 4)); close(done) }()
	waitCond(t, func() bool { return j.LastSeq() >= 2 })
	select {
	case <-done:
		t.Fatal("post-Close ObserveAllTraced returned before its commit was durable")
	case <-time.After(20 * time.Millisecond):
	}
	j.advance(2)
	waitClosed(t, done, "post-Close caller after commit")
	if tm.Apply <= 0 || tm.Publish <= 0 {
		t.Fatalf("post-Close timings = %+v, want non-zero apply and publish", tm)
	}
}

func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

func waitClosed(t *testing.T, ch chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: not released within 5s", what)
	}
}

var _ DurableJournal = (*fakeDurableJournal)(nil)
