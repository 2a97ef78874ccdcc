package engine

import (
	"testing"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/stream"
)

func testModel(t testing.TB) *core.Model {
	t.Helper()
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	return core.MustNew(cfg)
}

func seedSamples(users, services int) []stream.Sample {
	var ss []stream.Sample
	for u := 0; u < users; u++ {
		for s := 0; s < services; s++ {
			if (u+s)%3 == 0 {
				ss = append(ss, stream.Sample{
					Time: time.Duration(u+s) * time.Second,
					User: u, Service: s,
					Value: 0.5 + float64((u*s)%7),
				})
			}
		}
	}
	return ss
}

func TestObserveAllReadYourWrites(t *testing.T) {
	e := New(testModel(t), Config{})
	defer e.Close()
	ss := seedSamples(4, 5)
	e.ObserveAll(ss)
	v := e.View()
	if v.Updates() != int64(len(ss)) {
		t.Fatalf("view updates %d, want %d", v.Updates(), len(ss))
	}
	if _, _, err := v.PredictWithConfidence(0, 0); err != nil {
		t.Fatalf("observation not visible after ObserveAll: %v", err)
	}
	if v.NumUsers() != 4 || v.NumServices() != 5 {
		t.Fatalf("view sizes %d/%d", v.NumUsers(), v.NumServices())
	}
}

func TestObserveAllTracedTimings(t *testing.T) {
	e := New(testModel(t), Config{})
	defer e.Close()
	ss := seedSamples(4, 5)
	tm := e.ObserveAllTraced(ss)
	if tm.QueueWait <= 0 {
		t.Errorf("QueueWait = %v, want > 0", tm.QueueWait)
	}
	if tm.Apply <= 0 {
		t.Errorf("Apply = %v, want > 0", tm.Apply)
	}
	if tm.Publish <= 0 {
		t.Errorf("Publish = %v, want > 0", tm.Publish)
	}
	// No journal attached: the append stage must report (near) zero.
	if tm.Journal > time.Millisecond {
		t.Errorf("Journal = %v without a journal attached", tm.Journal)
	}
	if _, err := e.Predict(0, 0); err != nil {
		t.Fatalf("traced observe lost read-your-writes: %v", err)
	}

	// The traced path must keep working after Close (inline fallback).
	e.Close()
	tm = e.ObserveAllTraced(seedSamples(5, 6))
	if tm.Apply <= 0 || tm.Publish <= 0 {
		t.Errorf("post-Close traced observe timings = %+v, want non-zero apply/publish", tm)
	}
}

func TestEnqueueFlushVisibility(t *testing.T) {
	e := New(testModel(t), Config{})
	defer e.Close()
	for _, s := range seedSamples(4, 5) {
		if !e.Enqueue(s) {
			t.Fatal("enqueue rejected with an empty queue")
		}
	}
	e.Flush()
	if _, err := e.Predict(0, 0); err != nil {
		t.Fatalf("enqueued observation not visible after Flush: %v", err)
	}
	st := e.Stats()
	if st.Dropped != 0 || st.QueueLen != 0 {
		t.Fatalf("stats after flush: %+v", st)
	}
	if st.Applied != st.Enqueued {
		t.Fatalf("applied %d != enqueued %d", st.Applied, st.Enqueued)
	}
}

// TestStalenessBoundInterval: a fire-and-forget observation must appear
// in the published view within ~2x the publish interval even when the
// update-count threshold K is never reached.
func TestStalenessBoundInterval(t *testing.T) {
	e := New(testModel(t), Config{
		PublishEvery:    1 << 30, // K unreachable: only the T bound can publish
		PublishInterval: 10 * time.Millisecond,
	})
	defer e.Close()
	e.Enqueue(stream.Sample{User: 7, Service: 9, Value: 1.5})
	deadline := time.Now().Add(2 * time.Second) // generous CI headroom
	for time.Now().Before(deadline) {
		if e.View().KnowsUser(7) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("observation not published within deadline (T=10ms); stats %+v", e.Stats())
}

// TestStalenessBoundUpdates: with a huge interval, the view must still be
// republished once K updates accumulate.
func TestStalenessBoundUpdates(t *testing.T) {
	const k = 32
	e := New(testModel(t), Config{
		PublishEvery:    k,
		PublishInterval: time.Hour, // T unreachable in test time
	})
	defer e.Close()
	v0 := e.View()
	for i := 0; i < k+8; i++ {
		e.Enqueue(stream.Sample{User: i % 4, Service: i % 8, Value: 1 + float64(i%3)})
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if v := e.View(); v.Version() > v0.Version() && v.Updates() >= k {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no publish after %d updates with K=%d; stats %+v", k+8, k, e.Stats())
}

// TestDropOldestUnderOverload stalls the writer (by holding its mutex)
// and overflows one shard: the engine must drop the oldest samples,
// account for them, and keep the freshest.
func TestDropOldestUnderOverload(t *testing.T) {
	const q = 8
	e := New(testModel(t), Config{QueueSize: q, IngestShards: 1})
	defer e.Close()

	e.mu.Lock() // stall the writer's apply path
	for i := 0; i < 3*q; i++ {
		e.Enqueue(stream.Sample{User: 0, Service: i, Value: float64(i%5) + 1})
	}
	st := e.Stats()
	e.mu.Unlock()

	if st.Dropped == 0 {
		t.Fatalf("no drops after overflowing a %d-slot shard with %d samples: %+v", q, 3*q, st)
	}
	if st.Enqueued+st.Dropped < 3*q {
		t.Fatalf("accounting leak: enqueued %d + dropped %d < %d", st.Enqueued, st.Dropped, 3*q)
	}
	e.Flush()
	// The freshest sample (highest service id) must have survived.
	if !e.View().KnowsService(3*q - 1) {
		t.Fatal("drop-oldest evicted the newest sample")
	}
}

func TestReplayStepsPublishes(t *testing.T) {
	e := New(testModel(t), Config{PublishInterval: time.Hour, PublishEvery: 1 << 30})
	defer e.Close()
	e.ObserveAll(seedSamples(4, 5))
	before := e.Updates()
	n := e.ReplaySteps(100)
	if n == 0 {
		t.Fatal("no replay steps performed on a seeded pool")
	}
	if e.Updates() != before+int64(n) {
		t.Fatalf("view updates %d after %d replay steps from %d (explicit ops must force-publish)",
			e.Updates(), n, before)
	}
}

func TestRemoveForcesPublish(t *testing.T) {
	e := New(testModel(t), Config{PublishInterval: time.Hour, PublishEvery: 1 << 30})
	defer e.Close()
	e.ObserveAll(seedSamples(4, 5))
	if !e.View().KnowsUser(1) {
		t.Fatal("user 1 missing")
	}
	e.RemoveUser(1)
	if e.View().KnowsUser(1) {
		t.Fatal("removed user still visible")
	}
	e.RemoveService(0)
	if e.View().KnowsService(0) {
		t.Fatal("removed service still visible")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	e := New(testModel(t), Config{})
	defer e.Close()
	e.ObserveAll(seedSamples(6, 9))
	want, _, err := e.PredictWithConfidence(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	data, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	e2 := New(testModel(t), Config{})
	defer e2.Close()
	if err := e2.Restore(data); err != nil {
		t.Fatal(err)
	}
	got, _, err := e2.PredictWithConfidence(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("restored prediction %g, want %g", got, want)
	}
	if e2.Restore([]byte("garbage")) == nil {
		t.Fatal("garbage restore must fail")
	}
}

func TestCloseDrainsQueue(t *testing.T) {
	e := New(testModel(t), Config{PublishInterval: time.Hour, PublishEvery: 1 << 30})
	for _, s := range seedSamples(4, 5) {
		e.Enqueue(s)
	}
	e.Close()
	if _, err := e.Predict(0, 0); err != nil {
		t.Fatalf("pre-Close samples lost: %v", err)
	}
	// Post-Close writes still work (inline fallback) so shutdown paths
	// (e.g. replaying a WAL before a final snapshot) cannot wedge.
	e.ObserveAll([]stream.Sample{{User: 50, Service: 50, Value: 2}})
	if !e.View().KnowsUser(50) {
		t.Fatal("post-Close ObserveAll not applied")
	}
	if e.Enqueue(stream.Sample{User: 51, Service: 51, Value: 2}) {
		t.Fatal("Enqueue after Close must report rejection")
	}
	e.Close() // idempotent
}

func TestRankFromView(t *testing.T) {
	e := New(testModel(t), Config{})
	defer e.Close()
	e.ObserveAll(seedSamples(6, 9))
	ranked, unknown := e.RankServices(3, []int{0, 3, 6, 777}, true)
	if len(unknown) != 1 || unknown[0] != 777 {
		t.Fatalf("unknown = %v", unknown)
	}
	if len(ranked) != 3 {
		t.Fatalf("ranked = %v", ranked)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].Value > ranked[i].Value {
			t.Fatalf("ranking not ascending: %v", ranked)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	e := New(testModel(t), Config{IngestShards: 5})
	defer e.Close()
	cfg := e.Config()
	if cfg.IngestShards != 8 {
		t.Fatalf("shards %d, want next power of two 8", cfg.IngestShards)
	}
	if cfg.QueueSize != 4096 || cfg.PublishEvery != 256 || cfg.PublishInterval != 50*time.Millisecond {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if st := e.Stats(); st.QueueCap != 8*4096 {
		t.Fatalf("queue cap %d", st.QueueCap)
	}
}
