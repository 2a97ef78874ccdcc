package engine

import (
	"sync"
	"testing"
	"time"

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
	defer e.Close()
	m := e.Metrics()
	if m == nil || m.QueueWait == nil || m.Apply == nil || m.Publish == nil {
		t.Fatal("engine metrics not initialized")
	}

	// Async path: enqueue then flush → queue-wait and apply latency.
	for i := 0; i < 50; i++ {
		e.Enqueue(stream.Sample{User: i % 5, Service: i % 7, Value: 1 + float64(i%3)})
	}
	e.ObserveAll(nil)
	if m.QueueWait.Count() == 0 {
		t.Error("queue-wait histogram empty after enqueue+flush")
	}
	if m.Apply.Count() < 50 {
		t.Errorf("apply histogram count %d < 50 drained samples", m.Apply.Count())
	}
	if m.Publish.Count() == 0 {
		t.Error("publish histogram empty after flush")
	}
	if q := m.QueueWait.Quantile(0.99); q > 10 {
		t.Errorf("implausible queue wait p99 %gs", q)
	}

	// Sync path: ObserveAll also lands in Apply.
	before := m.Apply.Count()
	e.ObserveAll([]stream.Sample{{User: 1, Service: 1, Value: 2}})
	if m.Apply.Count() != before+1 {
		t.Errorf("sync apply not recorded: %d -> %d", before, m.Apply.Count())
	}

	// Replay through the control path counts as applied updates too.
	before = m.Apply.Count()
	if n := e.ReplaySteps(10); m.Apply.Count() != before+int64(n) {
		t.Errorf("%d replay steps not recorded: %d -> %d", n, before, m.Apply.Count())
	}
}

func TestEngineStaleness(t *testing.T) {
	e := New(obsModel(t), Config{PublishInterval: time.Hour, PublishEvery: 1 << 30})
	defer e.Close()

	// Fresh engine: nothing pending, staleness 0.
	if s := e.Staleness(); s != 0 {
		t.Fatalf("fresh engine staleness = %v, want 0", s)
	}

	// Synchronous observe force-publishes → still 0 afterwards.
	e.ObserveAll([]stream.Sample{{User: 1, Service: 1, Value: 2}})
	if s := e.Staleness(); s != 0 {
		t.Fatalf("staleness after sync publish = %v, want 0", s)
	}

	// Queue a sample without letting the publisher catch up (huge K and
	// T): once the writer applies it, staleness must start growing.
	e.Enqueue(stream.Sample{User: 2, Service: 2, Value: 3})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if e.Staleness() > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if e.Staleness() == 0 {
		t.Fatal("staleness never rose with updates pending and publish deferred")
	}
	grew := e.Staleness()
	time.Sleep(10 * time.Millisecond)
	if e.Staleness() <= grew {
		t.Fatalf("staleness did not grow: %v then %v", grew, e.Staleness())
	}

	// Flushing publishes and clears it.
	e.ObserveAll(nil)
	if s := e.Staleness(); s != 0 {
		t.Fatalf("staleness after flush = %v, want 0", s)
	}
}

func TestReplayPerBatchFeedsApplyHistogram(t *testing.T) {
	e := New(obsModel(t), Config{ReplayPerBatch: 8})
	defer e.Close()
	e.ObserveAll([]stream.Sample{
		{User: 1, Service: 1, Value: 2},
		{User: 2, Service: 1, Value: 3},
	})
	// Wake the writer a few times so replayLocked runs with a warm pool.
	for i := 0; i < 20; i++ {
		e.Enqueue(stream.Sample{User: i % 3, Service: i % 2, Value: 1})
	}
	e.ObserveAll(nil)
	st := e.Stats()
	if st.Replayed == 0 {
		t.Skip("writer did not interleave replay in time") // timing-dependent; counted elsewhere
	}
	if e.Metrics().Apply.Count() < st.Applied {
		t.Errorf("apply histogram (%d) missing replay/ingest updates (applied=%d)",
			e.Metrics().Apply.Count(), st.Applied)
	}
}

// TestWriterScoresClientDoors: with a tracker attached, every sample that
// arrives through ObserveAll or the ingest queue is handed to it exactly
// once by the writer — scored against the model's own prior, or counted
// as a first sighting — while producers on both doors and a scraper run
// at once; ApplyLog trains the same model and leaves the tracker alone.
func TestWriterScoresClientDoors(t *testing.T) {
	e := New(obsModel(t), Config{})
	defer e.Close()
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
				if r%2 == 0 {
					e.ObserveAll(ss)
					continue
				}
				for _, s := range ss {
					if !e.Enqueue(s) {
						t.Error("critical-class enqueue refused on a queue that never fills")
					}
				}
			}
		}(p)
	}
	wg.Wait()
	e.ObserveAll(nil) // barrier: commits behind everything enqueued
	close(stop)
	<-scraped

	st := e.Stats()
	delivered := st.Applied
	if st.Dropped != 0 || delivered != producers*rounds*batch {
		t.Fatalf("applied %d (dropped %d), want %d", delivered, st.Dropped, producers*rounds*batch)
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
