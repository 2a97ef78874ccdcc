package engine

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
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

// TestObserveAllTracedTimings: the breakdown means the same thing whatever
// journal is attached and on both sides of Close. The stages are disjoint
// intervals of the call, so none is negative and together they fit inside
// its wall time; CommitWait is the caller's wait for the covering fsync,
// so it spans the journal's hold under group commit and is nothing
// otherwise.
func TestObserveAllTracedTimings(t *testing.T) {
	const hold = 20 * time.Millisecond
	for _, journal := range []string{"none", "plain", "group-commit"} {
		t.Run(journal, func(t *testing.T) {
			e := New(testModel(t), Config{})
			defer e.Close()
			group := journal == "group-commit"
			if journal == "plain" {
				e.SetJournal(&fakeJournal{})
			}
			if group {
				// Every record becomes durable one hold after it is appended.
				j := newFakeDurableJournal()
				e.SetJournal(j)
				stop := make(chan struct{})
				defer close(stop)
				go func() {
					for seq := uint64(1); ; seq++ {
						for j.LastSeq() < seq {
							select {
							case <-stop:
								return
							case <-time.After(time.Millisecond):
							}
						}
						time.Sleep(hold)
						j.advance(seq)
					}
				}()
			}
			check := func(when string, ss []stream.Sample) {
				start := time.Now()
				tm := e.ObserveAllTraced(ss)
				wall := time.Since(start)
				if tm.QueueWait <= 0 {
					t.Errorf("%s: QueueWait = %v, want > 0", when, tm.QueueWait)
				}
				if tm.Apply <= 0 {
					t.Errorf("%s: Apply = %v, want > 0", when, tm.Apply)
				}
				if tm.Publish <= 0 {
					t.Errorf("%s: Publish = %v, want > 0", when, tm.Publish)
				}
				if tm.Journal < 0 || tm.CommitWait < 0 {
					t.Errorf("%s: negative stage in %+v", when, tm)
				}
				if sum := tm.QueueWait + tm.Journal + tm.Apply + tm.Publish + tm.CommitWait; sum > wall {
					t.Errorf("%s: stages sum to %v, more than the call's %v: %+v", when, sum, wall, tm)
				}
				// No journal attached: the append stage must report (near) zero.
				if journal == "none" && tm.Journal > time.Millisecond {
					t.Errorf("%s: Journal = %v without a journal attached", when, tm.Journal)
				}
				if group && tm.CommitWait < hold/2 {
					t.Errorf("%s: CommitWait = %v under a journal that holds each commit for %v", when, tm.CommitWait, hold)
				}
				if !group && tm.CommitWait >= time.Millisecond {
					t.Errorf("%s: CommitWait = %v with no group commit to wait for", when, tm.CommitWait)
				}
			}
			check("loop", seedSamples(4, 5))
			if _, err := e.View().Predict(0, 0); err != nil {
				t.Fatalf("traced observe lost read-your-writes: %v", err)
			}
			// The traced path must keep working after Close (inline fallback).
			e.Close()
			check("post-Close", seedSamples(5, 6))
		})
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
	e.ObserveAll(nil)
	if _, err := e.View().Predict(0, 0); err != nil {
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
	e.ObserveAll(nil)
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

// TestReplayedCountsUpdatesUnderChurn: after a user and a service depart,
// a replay budget is spent on updates only. Stats.Replayed and the Apply
// histogram move by exactly what the model's update count moves by, and a
// budget larger than the pool is still met in full — a pick that lands on
// a departed pair is dropped from the pool and replaced, not counted.
func TestReplayedCountsUpdatesUnderChurn(t *testing.T) {
	e := New(testModel(t), Config{PublishInterval: time.Hour, PublishEvery: 1 << 30})
	defer e.Close()
	e.ObserveAll(seedSamples(12, 15))
	e.RemoveUser(3)
	e.RemoveService(6)
	e.RemoveService(9)
	before, applied := e.Updates(), e.Metrics().Apply.Count()
	const budget = 500
	n := e.ReplaySteps(budget)
	if n != budget {
		t.Fatalf("%d of %d replay steps performed with live pairs in the pool", n, budget)
	}
	if got := e.Stats().Replayed; got != budget {
		t.Fatalf("Stats.Replayed = %d, want %d", got, budget)
	}
	if delta := e.Updates() - before; delta != budget {
		t.Fatalf("%d updates ran for %d replay steps counted", delta, budget)
	}
	if delta := e.Metrics().Apply.Count() - applied; delta != budget {
		t.Fatalf("apply histogram took %d observations for %d updates", delta, budget)
	}
	if v := e.View(); v.KnowsUser(3) || v.KnowsService(6) || v.KnowsService(9) {
		t.Fatal("replay resurrected a departed entity")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	e := New(testModel(t), Config{})
	defer e.Close()
	e.ObserveAll(seedSamples(6, 9))
	want, _, err := e.View().PredictWithConfidence(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	data, err := e.View().Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	e2 := New(testModel(t), Config{})
	defer e2.Close()
	if err := e2.Restore(data); err != nil {
		t.Fatal(err)
	}
	got, _, err := e2.View().PredictWithConfidence(2, 4)
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
	if _, err := e.View().Predict(0, 0); err != nil {
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
	ranked, unknown := e.View().TopK(3, []int{0, 3, 6, 777}, 4, true)
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
	cfg := e.cfg
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

// scriptedRun drives a fresh engine over core.New with the given seed
// through one fixed script of synchronous operations and returns what it
// ends up serving.
func scriptedRun(t *testing.T, seed int64) (snapshot []byte, top []core.Ranked) {
	t.Helper()
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	cfg.Seed = seed
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := New(m, Config{})
	defer e.Close()
	ss := seedSamples(12, 40)
	a, b := len(ss)/3, 2*len(ss)/3
	e.ObserveAll(ss[:a])
	if e.ReplaySteps(200) != 200 {
		t.Fatal("replay on a seeded pool stopped early")
	}
	e.RemoveUser(3)
	e.ObserveAll(ss[a:b])
	e.ReplaySteps(100)
	// A restart in the middle: the restored model starts from the
	// snapshot's factors, the seed's generators and an empty pool.
	snap, err := e.View().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(snap); err != nil {
		t.Fatal(err)
	}
	e.RemoveService(6)
	e.ObserveAll(ss[b:])
	e.ReplaySteps(150)
	if snapshot, err = e.View().Snapshot(); err != nil {
		t.Fatal(err)
	}
	if top = e.View().TopKAll(0, 10, true, 1); len(top) != 10 {
		t.Fatalf("TopKAll returned %d results, want 10", len(top))
	}
	return snapshot, top
}

// TestEngineDeterministicGivenSeed: with one apply path and one replay
// path, both sequential, what an engine serves is a function of the
// model seed and the order of the operations it was given — the same
// script twice yields the same bytes, another seed does not.
func TestEngineDeterministicGivenSeed(t *testing.T) {
	snapA, topA := scriptedRun(t, 7)
	snapB, topB := scriptedRun(t, 7)
	if !bytes.Equal(snapA, snapB) {
		t.Fatal("same seed, same script: snapshots differ")
	}
	if !reflect.DeepEqual(topA, topB) {
		t.Fatalf("same seed, same script: TopKAll %v vs %v", topA, topB)
	}
	snapC, topC := scriptedRun(t, 8)
	if bytes.Equal(snapA, snapC) || reflect.DeepEqual(topA, topC) {
		t.Fatal("a different seed served the same model")
	}
}

// TestDroppedSplitByReason pins the dropped-counter split: evictions of
// queued samples count as "oldest", shed incoming samples as "new", and
// the legacy aggregate stays their sum.
func TestDroppedSplitByReason(t *testing.T) {
	const q = 8
	e := New(testModel(t), Config{QueueSize: q, IngestShards: 1})
	defer e.Close()

	e.mu.Lock() // stall the writer so the queue can only overflow
	for i := 0; i < 4*q; i++ {
		e.Enqueue(stream.Sample{User: 0, Service: i, Value: 1})
	}
	st := e.Stats()
	e.mu.Unlock()

	if st.DroppedOldest == 0 {
		t.Fatalf("overflow produced no oldest-evictions: %+v", st)
	}
	if st.Dropped != st.DroppedNew+st.DroppedOldest {
		t.Fatalf("Dropped %d != DroppedNew %d + DroppedOldest %d", st.Dropped, st.DroppedNew, st.DroppedOldest)
	}
	// Single producer, uncontended: the drop-oldest spin always frees a
	// slot, so nothing should be shed as "new".
	if st.DroppedNew != 0 {
		t.Fatalf("uncontended overflow shed %d new samples", st.DroppedNew)
	}
}

// TestObserveAllCloseRace is the regression test for the post-Close
// fallback race: batches handed to the writer just as stop closes must be
// applied exactly once — either by the writer's final drain or by the
// caller's inline fallback, never both, never zero times.
func TestObserveAllCloseRace(t *testing.T) {
	const rounds = 40
	for r := 0; r < rounds; r++ {
		e := New(testModel(t), Config{PublishInterval: time.Hour, PublishEvery: 1 << 30})
		const callers = 8
		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				// One batch of 2 samples per caller; user/service IDs are
				// unique per caller so registration counts double-apply too.
				e.ObserveAll([]stream.Sample{
					{User: c, Service: c, Value: 1},
					{User: c, Service: c, Value: 2},
				})
			}(c)
		}
		closeDone := make(chan struct{})
		go func() {
			<-start
			e.Close()
			close(closeDone)
		}()
		close(start)
		wg.Wait()
		<-closeDone

		// Exactly-once: every batch applied, none twice. Each sample is one
		// SGD update, so the model's update count is the exact apply count.
		if got, want := e.View().Updates(), int64(2*callers); got != want {
			t.Fatalf("round %d: %d updates after close race, want exactly %d", r, got, want)
		}
		for c := 0; c < callers; c++ {
			if !e.View().KnowsUser(c) {
				t.Fatalf("round %d: caller %d's batch lost", r, c)
			}
		}
	}
}

// TestEngineOwnsOneGoroutine: the writer is the engine's only goroutine,
// whatever journal is attached — whoever asks for a write waits for its
// own fsync, so there is no completer to start, feed or shut down.
func TestEngineOwnsOneGoroutine(t *testing.T) {
	e := New(testModel(t), Config{})
	defer e.Close()
	before := runtime.NumGoroutine()
	j := newFakeDurableJournal()
	e.SetJournal(j)
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("SetJournal(durable journal) took the process from %d to %d goroutines", before, got)
	}
	const callers = 100
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() { defer wg.Done(); e.ObserveAll(seedSamples(2, 2)) }()
	}
	waitCond(t, func() bool { return j.LastSeq() >= callers })
	j.advance(callers)
	wg.Wait()
	// wg.Done runs just before a caller's goroutine exits; give the last
	// ones the moment they need.
	waitCond(t, func() bool { return runtime.NumGoroutine() <= before })
}
