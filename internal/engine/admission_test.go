package engine

import (
	"testing"
	"time"

	"github.com/qoslab/amf/internal/control"
	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/stream"
)

func admissionModel(t *testing.T) *core.Model {
	t.Helper()
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	return core.MustNew(cfg)
}

// pausedEngine builds an engine whose writer effectively never drains:
// a huge publish interval plus a swallowed wake channel would still
// race, so instead we park the writer behind a long sync batch? No —
// simplest deterministic setup: tiny per-shard queues that we fill via
// the always-admitted critical path, so occupancy is under test
// control (the writer may drain concurrently; tests only assert on the
// refusal counters after forcing occupancy past the watermark).
func pausedEngine(t *testing.T, ctl *control.Registry) *Engine {
	t.Helper()
	e := New(admissionModel(t), Config{
		QueueSize:       8,
		IngestShards:    1,
		PublishInterval: time.Hour,
		PublishEvery:    1 << 30,
		Control:         ctl,
	})
	t.Cleanup(e.Close)
	return e
}

// fillShard stuffs the single ingest shard past the given occupancy
// using the critical path (never refused; drop-oldest keeps it full).
func fillShard(e *Engine, n int) {
	for i := 0; i < n; i++ {
		e.EnqueueClass(stream.Sample{User: 0, Service: i % 8, Value: 1}, control.Critical)
	}
}

// TestEnqueueClassWatermarks: sheddable and standard enqueues are
// refused once shard occupancy crosses their watermarks, critical never
// is, and the refusals are attributed per class in Stats.
func TestEnqueueClassWatermarks(t *testing.T) {
	ctl := control.NewRegistry()
	e := pausedEngine(t, ctl)

	// Watermarks pinned low so any queued sample trips them.
	for name, v := range map[string]string{
		"engine.admit_sheddable_watermark": "0.05",
		"engine.admit_standard_watermark":  "0.05",
	} {
		tun, ok := ctl.Lookup(name)
		if !ok {
			t.Fatalf("tunable %s not registered", name)
		}
		if err := tun.SetString(v, control.SourceOverride); err != nil {
			t.Fatal(err)
		}
	}

	// Occupancy 8/8 = 1.0 > 0.05: both lower classes must be refused.
	// The writer may drain concurrently, so refill before each check.
	shedDeadline := time.Now().Add(5 * time.Second)
	var st Stats
	for time.Now().Before(shedDeadline) {
		fillShard(e, 16)
		e.EnqueueClass(stream.Sample{User: 0, Service: 1, Value: 1}, control.Sheddable)
		e.EnqueueClass(stream.Sample{User: 0, Service: 2, Value: 1}, control.Standard)
		st = e.Stats()
		if st.ShedSheddable > 0 && st.ShedStandard > 0 {
			break
		}
	}
	if st.ShedSheddable == 0 || st.ShedStandard == 0 {
		t.Fatalf("expected per-class sheds, got %+v", st)
	}

	// Critical is never refused: it either lands or evicts (drop-oldest),
	// and nothing is added to the shed counters.
	before := e.Stats()
	for i := 0; i < 64; i++ {
		if !e.EnqueueClass(stream.Sample{User: 0, Service: 3, Value: 1}, control.Critical) {
			t.Fatal("critical enqueue refused")
		}
	}
	after := e.Stats()
	if after.ShedStandard != before.ShedStandard || after.ShedSheddable != before.ShedSheddable {
		t.Fatal("critical traffic moved the class shed counters")
	}
	if after.DroppedOldest == before.DroppedOldest {
		t.Fatal("expected drop-oldest churn from critical overload")
	}
}

// TestTunablesDriveWriter: adapted publish-interval/batch-cap values are
// picked up by a running writer — the convergence contract the epoch
// controller relies on.
func TestTunablesDriveWriter(t *testing.T) {
	ctl := control.NewRegistry()
	e := New(admissionModel(t), Config{
		QueueSize:       1024,
		IngestShards:    1,
		PublishInterval: 20 * time.Millisecond,
		PublishEvery:    1 << 20,
		Control:         ctl,
	})
	defer e.Close()

	// Narrow the interval via the registry and verify publishes speed up.
	tun, _ := ctl.Lookup("engine.publish_interval")
	if err := tun.SetString("1ms", control.SourceOverride); err != nil {
		t.Fatal(err)
	}
	e.Enqueue(stream.Sample{User: 1, Service: 1, Value: 1})
	base := e.Stats().Published
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Published < base+3 && time.Now().Before(deadline) {
		e.Enqueue(stream.Sample{User: 1, Service: 1, Value: 1})
		time.Sleep(time.Millisecond)
	}
	if e.Stats().Published < base+3 {
		t.Fatalf("writer ignored adapted publish interval: %d publishes after baseline %d",
			e.Stats().Published, base)
	}

	// Registry surface: every engine tunable is discoverable.
	want := []string{
		"engine.admit_sheddable_watermark", "engine.admit_standard_watermark",
		"engine.ingest_batch_cap", "engine.publish_every",
		"engine.publish_interval", "engine.replay_per_batch",
	}
	got := map[string]bool{}
	for _, tn := range e.Control().List() {
		got[tn.Name()] = true
	}
	for _, name := range want {
		if !got[name] {
			t.Errorf("tunable %s not registered", name)
		}
	}
}

// TestRemoveOrderedAfterBacklog: a removal is journaled and applied after
// every sample accepted before it, however deep the backlog — here several
// writer passes' worth, spread over every shard. A sample that outlived
// the purge would re-create the service in the model and land behind the
// removal record in the journal, where recovery would re-create it again.
func TestRemoveOrderedAfterBacklog(t *testing.T) {
	e := New(admissionModel(t), Config{})
	defer e.Close()
	j := &fakeJournal{}
	e.SetJournal(j)
	backlog := 8 * e.tunBatchCap.Load()
	e.mu.Lock() // stall the writer while the backlog builds
	for i := 0; i < backlog; i++ {
		if !e.Enqueue(stream.Sample{User: i % 64, Service: 7, Value: 1}) {
			t.Fatal("enqueue rejected")
		}
	}
	e.mu.Unlock()
	e.RemoveService(7)
	if got := j.sampleCount(); got != backlog {
		t.Fatalf("the removal was journaled with %d of %d earlier samples ahead of it", got, backlog)
	}
	if st := e.Stats(); st.QueueLen != 0 || st.Applied != int64(backlog) {
		t.Fatalf("after the removal: %d samples still queued, %d of %d applied", st.QueueLen, st.Applied, backlog)
	}
	if e.View().KnowsService(7) {
		t.Fatal("the removed service is back in the view")
	}
}
