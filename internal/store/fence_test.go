package store

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/stream"
)

func openForFenceTest(t *testing.T, dir string, check time.Duration) *Manager {
	t.Helper()
	m, err := Open(dir, Options{
		CheckpointInterval: time.Hour,
		FenceCheckInterval: check,
		Logger:             quietLogger(),
	})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func waitFenced(t *testing.T, m *Manager) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !m.Fenced() {
		if time.Now().After(deadline) {
			t.Fatal("manager never fenced after takeover")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOpenFencesPreviousOwner is the shared-storage takeover scenario:
// a second Open of the same directory (the promoted follower) bumps the
// claim epoch, and the first owner (the partitioned ex-leader) fences
// itself within one check interval — its appends, checkpoints, and
// truncations all fail instead of corrupting the new owner's lineage.
func TestOpenFencesPreviousOwner(t *testing.T) {
	dir := t.TempDir()
	old := openForFenceTest(t, dir, 5*time.Millisecond)
	if old.Epoch() == 0 {
		t.Fatal("first Open should claim epoch >= 1")
	}
	if _, err := old.WAL().AppendSamples([]stream.Sample{{User: 1, Service: 1, Value: 1}}); err != nil {
		t.Fatalf("append before takeover: %v", err)
	}

	niu := openForFenceTest(t, dir, time.Hour)
	if niu.Epoch() != old.Epoch()+1 {
		t.Fatalf("takeover epoch = %d, want %d", niu.Epoch(), old.Epoch()+1)
	}
	waitFenced(t, old)

	if _, err := old.WAL().AppendSamples([]stream.Sample{{User: 2, Service: 2, Value: 2}}); !errors.Is(err, ErrFenced) {
		t.Fatalf("append after fence: err = %v, want ErrFenced", err)
	}
	old.SetCaptureForTest(func() (uint64, []byte, error) { return 1, []byte("x"), nil })
	if err := old.Checkpoint(); !errors.Is(err, ErrFenced) {
		t.Fatalf("checkpoint after fence: err = %v, want ErrFenced", err)
	}
	if err := old.WAL().TruncateThrough(1); !errors.Is(err, ErrFenced) {
		t.Fatalf("truncate after fence: err = %v, want ErrFenced", err)
	}
	// The new owner is unaffected.
	if _, err := niu.WAL().AppendSamples([]stream.Sample{{User: 3, Service: 3, Value: 3}}); err != nil {
		t.Fatalf("new owner append: %v", err)
	}
	// Closing a fenced manager must not flush buffered bytes into the
	// new owner's segment files.
	if err := old.Close(); err != nil {
		t.Fatalf("close fenced manager: %v", err)
	}
}

// TestCheckpointRechecksClaim pins the narrow race the watcher's poll
// interval leaves open: even with fence checks effectively disabled, a
// checkpoint must notice the takeover right before its durable write.
func TestCheckpointRechecksClaim(t *testing.T) {
	dir := t.TempDir()
	old := openForFenceTest(t, dir, time.Hour) // watcher never fires in time
	old.SetCaptureForTest(func() (uint64, []byte, error) { return 0, []byte("x"), nil })
	if err := old.Checkpoint(); err != nil {
		t.Fatalf("checkpoint before takeover: %v", err)
	}
	openForFenceTest(t, dir, time.Hour)
	if err := old.Checkpoint(); !errors.Is(err, ErrFenced) {
		t.Fatalf("checkpoint after takeover: err = %v, want ErrFenced", err)
	}
	if !old.Fenced() {
		t.Fatal("failed checkpoint should have fenced the manager")
	}
}

// TestFenceManualAndCallback covers the demotion path: Fence() flips
// the manager immediately and the OnFence callback fires exactly once.
func TestFenceManualAndCallback(t *testing.T) {
	m := openForFenceTest(t, t.TempDir(), time.Hour)
	var calls atomic.Int32
	m.SetOnFence(func() { calls.Add(1) })
	m.Fence("test demotion")
	m.Fence("again") // idempotent
	if !m.Fenced() {
		t.Fatal("Fence did not fence")
	}
	// The callback runs on its own goroutine (fencing inside a demotion
	// lock must not deadlock) — wait for it.
	deadline := time.Now().Add(5 * time.Second)
	for calls.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("onFence fired %d times, want 1", n)
	}
	if _, err := m.WAL().Append([]byte("p")); !errors.Is(err, ErrFenced) {
		t.Fatalf("append after manual fence: err = %v, want ErrFenced", err)
	}
}
