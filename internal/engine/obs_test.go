package engine

import (
	"sync"
	"testing"

	"github.com/qoslab/amf/internal/control"
	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/obs"
	"github.com/qoslab/amf/internal/stream"
)

func obsModel(t *testing.T) *core.Model {
	t.Helper()
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	return core.MustNew(cfg)
}

func TestEngineMetricsPopulate(t *testing.T) {
	e := New(obsModel(t), Config{})
	m := e.Metrics()
	if m == nil || m.Apply == nil || m.Publish == nil {
		t.Fatal("engine metrics not initialized")
	}

	// An observe lands in Apply once per sample and in Publish once.
	e.ObserveAll(seedSamples(5, 7))
	applied := e.Stats().Applied
	if applied == 0 || m.Apply.Count() != applied {
		t.Errorf("apply histogram count %d for %d applied samples", m.Apply.Count(), applied)
	}
	if m.Publish.Count() != 1 {
		t.Errorf("publish histogram count %d after one observe", m.Publish.Count())
	}

	// Replay through the control path counts as applied updates too.
	before := m.Apply.Count()
	if n := e.ReplaySteps(10); m.Apply.Count() != before+int64(n) {
		t.Errorf("%d replay steps not recorded: %d -> %d", n, before, m.Apply.Count())
	}
}

func TestReplayPerBatchFeedsApplyHistogram(t *testing.T) {
	e := New(obsModel(t), Config{})
	tun, _ := e.Control().Lookup("engine.replay_per_batch")
	if err := tun.SetString("8", control.SourceOverride); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		e.ObserveAll([]stream.Sample{{User: i % 3, Service: i % 2, Value: 1}})
	}
	st := e.Stats()
	if st.Replayed != 20*8 {
		t.Fatalf("20 commits with replay_per_batch 8 replayed %d updates", st.Replayed)
	}
	if got := e.Metrics().Apply.Count(); got != st.Applied+st.Replayed {
		t.Errorf("apply histogram holds %d updates, want %d applied + %d replayed", got, st.Applied, st.Replayed)
	}
}

// TestWriterScoresClientDoors: with a tracker attached, every sample that
// arrives through ObserveAll — the commit both of the server's client
// doors end in — is handed to it exactly once — scored against the
// model's own prior, or counted as a first sighting — while producers and
// a scraper run at once; ApplyLog trains the same model and leaves the
// tracker alone.
func TestWriterScoresClientDoors(t *testing.T) {
	e := New(obsModel(t), Config{})
	acc := obs.NewAccuracyTracker(0)
	e.SetAccuracy(acc)

	const producers, rounds, batch = 4, 50, 8
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				_, _, _ = acc.MRE(), acc.NPRE(), acc.EMA()
			}
		}
	}()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ss := make([]stream.Sample, batch)
				for i := range ss {
					ss[i] = stream.Sample{User: p, Service: (r + i) % 11, Value: 1 + float64((p+i)%4)}
				}
				e.ObserveAll(ss)
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	<-scraped

	delivered := e.Stats().Applied
	if delivered != producers*rounds*batch {
		t.Fatalf("applied %d, want %d", delivered, producers*rounds*batch)
	}
	if got := acc.Samples() + acc.Misses(); got != delivered {
		t.Fatalf("tracker saw %d samples (%d scored, %d first sightings) of %d applied", got, acc.Samples(), acc.Misses(), delivered)
	}
	// Each producer is one user over 11 services: first sightings are at
	// most one batch per user plus one per pair met before a publish.
	if acc.Samples() < delivered/2 {
		t.Fatalf("only %d of %d samples had a prior", acc.Samples(), delivered)
	}

	scoredBefore, missesBefore, updates := acc.Samples(), acc.Misses(), e.Updates()
	e.ApplyLog([]stream.Sample{{User: 0, Service: 0, Value: 2}, {User: 99, Service: 0, Value: 2}})
	if e.Updates() != updates+2 {
		t.Fatalf("ApplyLog trained %d samples, want 2", e.Updates()-updates)
	}
	if acc.Samples() != scoredBefore || acc.Misses() != missesBefore {
		t.Fatalf("ApplyLog was scored: %d → %d samples, %d → %d misses", scoredBefore, acc.Samples(), missesBefore, acc.Misses())
	}
}
