package engine

import (
	"testing"
	"time"

	"github.com/qoslab/amf/internal/core"
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
