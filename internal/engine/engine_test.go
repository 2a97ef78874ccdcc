package engine

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/control"
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
// journal is attached. The stages are disjoint
// intervals of the call, so none is negative and together they fit inside
// its wall time; CommitWait is the caller's wait for the covering fsync,
// so it spans the journal's hold under group commit and is nothing
// otherwise.
func TestObserveAllTracedTimings(t *testing.T) {
	const hold = 20 * time.Millisecond
	for _, journal := range []string{"none", "plain", "group-commit"} {
		t.Run(journal, func(t *testing.T) {
			e := New(testModel(t), Config{})
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
				if tm.Apply <= 0 {
					t.Errorf("%s: Apply = %v, want > 0", when, tm.Apply)
				}
				if tm.Publish <= 0 {
					t.Errorf("%s: Publish = %v, want > 0", when, tm.Publish)
				}
				if tm.QueueWait < 0 || tm.Journal < 0 || tm.CommitWait < 0 {
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
			check("first", seedSamples(4, 5))
			if _, err := e.View().Predict(0, 0); err != nil {
				t.Fatalf("traced observe lost read-your-writes: %v", err)
			}
			check("second", seedSamples(5, 6))
		})
	}
}

func TestReplayStepsPublishes(t *testing.T) {
	e := New(testModel(t), Config{})
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
	e := New(testModel(t), Config{})
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
	e := New(testModel(t), Config{})
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

func TestRankFromView(t *testing.T) {
	e := New(testModel(t), Config{})
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
	e := New(testModel(t), Config{})
	list := e.Control().List()
	if len(list) != 1 || list[0].Name() != "engine.replay_per_batch" {
		t.Fatalf("engine tunables %v, want engine.replay_per_batch alone", list)
	}
	if tun := list[0]; tun.Value() != "0" || tun.Source() != control.SourceDefault {
		t.Fatalf("engine.replay_per_batch = %s (%v), want 0 (default)", tun.Value(), tun.Source())
	}
	e.ObserveAll(seedSamples(4, 5))
	if st := e.Stats(); st.Replayed != 0 || st.Published != 1 {
		t.Fatalf("one observe on a default engine: %+v, want no replay and one publish", st)
	}
}

// TestTunablesDriveWriter: an override of engine.replay_per_batch through
// the registry takes effect on the next committed batch, inside the same
// critical section.
func TestTunablesDriveWriter(t *testing.T) {
	e := New(testModel(t), Config{})
	e.ObserveAll(seedSamples(4, 5))
	tun, ok := e.Control().Lookup("engine.replay_per_batch")
	if !ok {
		t.Fatal("engine.replay_per_batch not registered")
	}
	if err := tun.SetString("8", control.SourceOverride); err != nil {
		t.Fatal(err)
	}
	before := e.Updates()
	e.ObserveAll([]stream.Sample{{User: 1, Service: 1, Value: 2}})
	if st := e.Stats(); st.Replayed != 8 || e.Updates() != before+9 {
		t.Fatalf("after the override one observe replayed %d and published %d updates, want 8 and 9", st.Replayed, e.Updates()-before)
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

// TestEngineOwnsNoGoroutine: every write runs on its caller's goroutine,
// whatever journal is attached — there is no writer to hand a batch to
// and no completer to wait for an fsync, so after New, SetJournal and 100
// concurrent durable observes the process has as many goroutines as
// before.
func TestEngineOwnsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New(testModel(t), Config{})
	j := newFakeDurableJournal()
	e.SetJournal(j)
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("New and SetJournal(durable journal) took the process from %d to %d goroutines", before, got)
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
