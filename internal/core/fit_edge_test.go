package core

import (
	"testing"
	"time"

	"github.com/qoslab/amf/internal/stream"
)

// TestFitPoolExpiresMidRun covers the pool-empties-mid-epoch path: the
// epoch starts with a nonzero (uncompacted) pool length, but every
// sample has expired, so the first replay pick fails and the loop winds
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

// TestFitOnDepartedPairs: a pool whose every pair has lost its user or
// its service holds nothing to train on. A departed user's samples leave
// with it; a departed service's are dropped by the first replay pick that
// meets them. Either way Fit counts no step it did not take and stops
// instead of spinning to MaxEpochs on picks that update nothing.
func TestFitOnDepartedPairs(t *testing.T) {
	seeded := func() *Model {
		m := MustNew(rtConfig())
		for i := 0; i < 20; i++ {
			m.Observe(stream.Sample{Time: time.Second, User: i % 4, Service: i % 5, Value: 1 + float64(i%3)})
		}
		return m
	}
	m := seeded()
	for id := 0; id < 4; id++ {
		m.RemoveUser(id)
	}
	if m.pool.Len() != 0 {
		t.Fatalf("pool holds %d samples of departed users, want 0", m.pool.Len())
	}
	if res := m.Fit(FitOptions{MaxEpochs: 50, MinEpochs: 2}); res.Epochs != 0 || res.Steps != 0 {
		t.Fatalf("fit on an empty pool: %+v, want no epoch and no step", res)
	}

	m = seeded()
	before := m.Updates()
	for id := 0; id < 5; id++ {
		m.RemoveService(id)
	}
	if m.pool.Len() != 20 {
		t.Fatalf("pool holds %d samples, want the 20 not yet picked", m.pool.Len())
	}
	res := m.Fit(FitOptions{MaxEpochs: 50, MinEpochs: 2})
	if res.Epochs != 1 || res.Steps != 0 || res.FinalError != 0 {
		t.Fatalf("fit over departed services: %+v, want one epoch that finds nothing", res)
	}
	if m.pool.Len() != 0 || m.Updates() != before {
		t.Fatalf("after fit: pool %d, %d updates ran; want 0 and 0", m.pool.Len(), m.Updates()-before)
	}
}
