package engine

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/stream"
)

// fakeJournal is an in-memory Journal that records everything appended
// to it, optionally failing every call.
type fakeJournal struct {
	mu       sync.Mutex
	seq      uint64
	samples  []stream.Sample
	removals []struct {
		user bool
		id   int
	}
	// cum[i] is the cumulative sample count covered by records with
	// sequence number <= i+1 (immutable history once appended).
	cum  []int
	fail bool
	// delay is how long AppendSamples takes — a slow disk.
	delay time.Duration
}

func (f *fakeJournal) AppendSamples(ss []stream.Sample) (uint64, error) {
	time.Sleep(f.delay)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return 0, errors.New("journal down")
	}
	f.seq++
	f.samples = append(f.samples, ss...)
	f.cum = append(f.cum, len(f.samples))
	return f.seq, nil
}

func (f *fakeJournal) appendRemove(user bool, id int) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return 0, errors.New("journal down")
	}
	f.seq++
	f.removals = append(f.removals, struct {
		user bool
		id   int
	}{user, id})
	f.cum = append(f.cum, len(f.samples))
	return f.seq, nil
}

// samplesCoveredBy returns how many samples sit in records with
// sequence number <= seq.
func (f *fakeJournal) samplesCoveredBy(seq uint64) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if seq == 0 {
		return 0
	}
	return f.cum[seq-1]
}

func (f *fakeJournal) AppendRemoveUser(id int) (uint64, error)    { return f.appendRemove(true, id) }
func (f *fakeJournal) AppendRemoveService(id int) (uint64, error) { return f.appendRemove(false, id) }

func (f *fakeJournal) LastSeq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

func (f *fakeJournal) sampleCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.samples)
}

// TestJournalAckImpliesJournaled: when ObserveAll returns, every sample
// in the batch is in the journal — ack-after-journal.
func TestJournalAckImpliesJournaled(t *testing.T) {
	e := New(testModel(t), Config{})
	j := &fakeJournal{}
	e.SetJournal(j)
	ss := seedSamples(4, 5)
	e.ObserveAll(ss)
	if got := j.sampleCount(); got != len(ss) {
		t.Fatalf("journal holds %d samples after ack, want %d", got, len(ss))
	}
}

// TestApplyHistogramIsModelTimeOnly: Metrics.Apply has one definition —
// time inside the model update, per update — whoever writes. A slow
// journal must not show up in it, and replay steps driven through
// ReplaySteps are updates like any other.
func TestApplyHistogramIsModelTimeOnly(t *testing.T) {
	e := New(testModel(t), Config{})
	e.SetJournal(&fakeJournal{delay: 20 * time.Millisecond})
	apply := e.Metrics().Apply
	e.ObserveAll([]stream.Sample{{User: 1, Service: 1, Value: 2}, {User: 2, Service: 1, Value: 3}})
	e.ApplyLog([]stream.Sample{{User: 1, Service: 2, Value: 1}})
	if got := apply.Count(); got != 3 {
		t.Fatalf("apply histogram holds %d updates, want 3", got)
	}
	if q := apply.Quantile(0.99); q >= 5e-3 {
		t.Fatalf("apply p99 = %.1f ms behind a 20 ms journal: it is timing the append", q*1e3)
	}
	n := e.ReplaySteps(10)
	if got := apply.Count(); n == 0 || got != int64(3+n) {
		t.Fatalf("apply histogram holds %d updates after %d replay steps, want %d", got, n, 3+n)
	}
}

// TestJournalRemovals: churn departures are journaled before the model
// forgets them, so recovery does not resurrect deleted entities.
func TestJournalRemovals(t *testing.T) {
	e := New(testModel(t), Config{})
	j := &fakeJournal{}
	e.SetJournal(j)
	e.ObserveAll(seedSamples(3, 3))
	e.RemoveUser(1)
	e.RemoveService(2)
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.removals) != 2 {
		t.Fatalf("journaled %d removals, want 2", len(j.removals))
	}
	if !j.removals[0].user || j.removals[0].id != 1 {
		t.Fatalf("first removal: %+v", j.removals[0])
	}
	if j.removals[1].user || j.removals[1].id != 2 {
		t.Fatalf("second removal: %+v", j.removals[1])
	}
}

// TestJournalFailureKeepsServing: a failing journal is counted, not
// fatal — the model still learns and predictions still work
// (availability over durability).
func TestJournalFailureKeepsServing(t *testing.T) {
	e := New(testModel(t), Config{})
	e.SetJournal(&fakeJournal{fail: true})
	ss := seedSamples(4, 5)
	e.ObserveAll(ss)
	e.RemoveUser(99) // also counted, also non-fatal
	st := e.Stats()
	if st.JournalErrors < 2 {
		t.Fatalf("JournalErrors=%d, want >= 2", st.JournalErrors)
	}
	if st.Applied != int64(len(ss)) {
		t.Fatalf("applied %d, want %d — journal failure must not block learning", st.Applied, len(ss))
	}
	if _, _, err := e.View().PredictWithConfidence(0, 0); err != nil {
		t.Fatalf("predict after journal failure: %v", err)
	}
}

// TestCheckpointSeq: the returned sequence covers everything applied,
// and the view is force-published so a snapshot taken after the call
// reflects every covered record.
func TestCheckpointSeq(t *testing.T) {
	e := New(testModel(t), Config{})
	if got, _ := e.CheckpointView(); got != 0 {
		t.Fatalf("no journal: checkpoint seq=%d, want 0", got)
	}
	j := &fakeJournal{}
	e.SetJournal(j)
	e.ObserveAll(seedSamples(4, 5))
	seq, _ := e.CheckpointView()
	if seq == 0 || seq != j.LastSeq() {
		t.Fatalf("checkpoint seq=%d, journal LastSeq=%d", seq, j.LastSeq())
	}
	if e.Stats().Updates == 0 {
		t.Fatal("published view does not reflect applied updates")
	}
}

// TestCheckpointViewAtomicCapture: the (seq, view) pair must come from
// ONE writer critical section. A concurrent stream of synchronous
// batches would otherwise slip between reading the sequence number and
// snapshotting the view, training samples with seq > checkpoint-seq
// into the captured state — which recovery would then replay again
// (double-training). A commit replays nothing: every model update is
// one journaled sample, so the captured view's update count must equal
// EXACTLY the number of samples the journal covers at the captured
// sequence number.
func TestCheckpointViewAtomicCapture(t *testing.T) {
	e := New(testModel(t), Config{})
	j := &fakeJournal{}
	e.SetJournal(j)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e.ObserveAll(seedSamples(i%5+2, i%7+2))
		}
	}()
	for i := 0; i < 500; i++ {
		seq, v := e.CheckpointView()
		if got, want := v.Updates(), int64(j.samplesCoveredBy(seq)); got != want {
			t.Fatalf("iteration %d: captured view holds %d updates but the journal covers %d samples at seq %d — seq/view capture is not atomic",
				i, got, want, seq)
		}
	}
	close(stop)
	wg.Wait()
}

// TestRemoveOrderedAfterBacklog: a removal is journaled and applied after
// every sample whose write returned before it — here batches from several
// goroutines into the service being removed. A sample applied after the
// purge would re-create the service in the model and land behind the
// removal record in the journal, where recovery would re-create it again.
func TestRemoveOrderedAfterBacklog(t *testing.T) {
	e := New(testModel(t), Config{})
	j := &fakeJournal{}
	e.SetJournal(j)
	const writers, batches = 8, 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				e.ObserveAll([]stream.Sample{{User: w, Service: 7, Value: 1}, {User: w, Service: b, Value: 2}})
			}
		}(w)
	}
	wg.Wait()
	e.RemoveService(7)
	j.mu.Lock()
	got, removals := len(j.samples), len(j.removals)
	covered := j.cum[len(j.cum)-1]
	j.mu.Unlock()
	if got != 2*writers*batches || removals != 1 || covered != got {
		t.Fatalf("journal: %d samples, %d removals, the removal record behind %d samples; want %d, 1, all of them",
			got, removals, covered, 2*writers*batches)
	}
	if e.View().KnowsService(7) {
		t.Fatal("the removed service is back in the view")
	}
}
