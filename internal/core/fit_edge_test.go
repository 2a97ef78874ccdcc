package core

import (
	"testing"
	"time"

	"github.com/qoslab/amf/internal/stream"
)

// TestFitPoolExpiresMidRun covers the pool-empties-mid-epoch path: the
// epoch starts with a nonzero (uncompacted) pool length, but every
// sample has expired, so the first ReplayStep fails and the loop winds
// down without steps instead of spinning or declaring convergence.
func TestFitPoolExpiresMidRun(t *testing.T) {
	cfg := rtConfig()
	cfg.Expiry = 10 * time.Second
	m := MustNew(cfg)
	for i := 0; i < 20; i++ {
		m.Observe(stream.Sample{Time: time.Second, User: i % 4, Service: i % 5, Value: 1 + float64(i%3)})
	}
	m.AdvanceTo(time.Minute) // everything expired, pool not yet compacted
	if m.pool.Len() == 0 {
		t.Skip("pool compacted eagerly; mid-epoch case not reachable")
	}
	res := m.Fit(FitOptions{MaxEpochs: 50})
	if res.Steps != 0 {
		t.Fatalf("fit replayed %d expired samples", res.Steps)
	}
	if res.Converged {
		t.Fatalf("fit declared convergence on an expired pool: %+v", res)
	}
	if res.Epochs > 1 {
		t.Fatalf("fit kept iterating %d epochs on an expired pool", res.Epochs)
	}
	if res.FinalError != 0 {
		t.Fatalf("final error %g on a pool with no live samples", res.FinalError)
	}
}

// TestFitConvergesExactlyAtMinEpochs pins the earliest legal convergence
// epoch: with a Tol so loose any improvement ratio passes, convergence
// must be declared at exactly MinEpochs — never before (the epoch+1 >=
// MinEpochs guard) and never after.
func TestFitConvergesExactlyAtMinEpochs(t *testing.T) {
	for _, minEpochs := range []int{2, 3, 5} {
		m := MustNew(rtConfig())
		for i := 0; i < 30; i++ {
			m.Observe(stream.Sample{Time: time.Second, User: i % 5, Service: i % 6, Value: 1 + float64(i%4)})
		}
		res := m.Fit(FitOptions{MaxEpochs: 100, Tol: 1e9, MinEpochs: minEpochs})
		if !res.Converged {
			t.Fatalf("MinEpochs=%d: loose Tol did not converge: %+v", minEpochs, res)
		}
		if res.Epochs != minEpochs {
			t.Fatalf("MinEpochs=%d: converged after %d epochs, want exactly %d", minEpochs, res.Epochs, minEpochs)
		}
	}
}

// TestFitPrevZeroBranch drives the training error to exactly zero (every
// pooled sample's entities removed → no scorable samples) and checks the
// prev == 0 guard declares convergence instead of dividing by zero or
// looping to MaxEpochs.
func TestFitPrevZeroBranch(t *testing.T) {
	m := MustNew(rtConfig())
	for i := 0; i < 20; i++ {
		m.Observe(stream.Sample{Time: time.Second, User: i % 4, Service: i % 5, Value: 1 + float64(i%3)})
	}
	for id := 0; id < 4; id++ {
		m.RemoveUser(id)
	}
	// Replay picks still succeed (samples are live) but update nothing
	// and score nothing: TrainingError is exactly 0 from epoch one.
	res := m.Fit(FitOptions{MaxEpochs: 50, MinEpochs: 2})
	if !res.Converged {
		t.Fatalf("prev==0 path did not converge: %+v", res)
	}
	if res.FinalError != 0 {
		t.Fatalf("final error %g, want exactly 0", res.FinalError)
	}
	if res.Epochs != 2 {
		t.Fatalf("converged after %d epochs, want 2 (first flat zero at MinEpochs)", res.Epochs)
	}
	if res.Steps == 0 {
		t.Fatal("expected replay picks to be consumed even without updates")
	}
}
