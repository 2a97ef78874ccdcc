package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/stream"
)

// TestStressRankingUnderRepublish hammers the ranking fast path (TopK,
// TopKAll) against published views while the engine
// republishes, churns services, and restores snapshots underneath. Run
// with -race. It asserts the two invariants ranking promises:
//
//   - internal consistency: because every ranking runs against ONE
//     immutable view, TopK and the best-first order are exact —
//     regardless of what the writer does concurrently;
//   - agreement: on the same view, the candidate and full-scan arena
//     paths return identical rankings.
func TestStressRankingUnderRepublish(t *testing.T) {
	const (
		users    = 8
		services = 1500 // a partial page in every shard
		readers  = 4
		k        = 10
	)
	e := New(testModel(t), Config{})

	var seed []stream.Sample
	for u := 0; u < users; u++ {
		for s := u; s < services; s += users {
			seed = append(seed, stream.Sample{User: u, Service: s, Value: 1 + float64((u*s)%9)})
		}
	}
	e.ObserveAll(seed)

	candidates := make([]int, services)
	for i := range candidates {
		candidates[i] = i
	}

	var (
		stop      atomic.Bool
		failures  atomic.Int64
		firstErr  atomic.Value
		rankings  atomic.Int64
		recordErr = func(format string, args ...any) {
			if failures.Add(1) == 1 {
				firstErr.Store(fmt.Errorf(format, args...))
			}
		}
	)

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			checkOrder := func(ranked []core.Ranked, lower bool, what string) bool {
				for i := 1; i < len(ranked); i++ {
					if lower && ranked[i].Value < ranked[i-1].Value ||
						!lower && ranked[i].Value > ranked[i-1].Value {
						recordErr("reader %d: %s out of order at %d: %+v", r, what, i, ranked[i-1:i+1])
						return false
					}
				}
				return true
			}
			i := 0
			for !stop.Load() {
				i++
				lower := i%2 == 0
				user := (r + i) % users
				v := e.View() // ONE view for the candidate/full-scan comparison
				serial, _ := v.TopK(user, candidates, k, lower)
				if !checkOrder(serial, lower, "serial TopK") {
					return
				}
				// Full-scan arena path: the view may know services the
				// candidate list doesn't (none here — candidates cover all
				// IDs ever observed), so TopKAll must agree with TopK.
				all := v.TopKAll(user, k, lower, 1)
				if len(all) != len(serial) {
					recordErr("reader %d: TopKAll %d results, TopK %d (view %d)", r, len(all), len(serial), v.Version())
					return
				}
				for j := range all {
					if all[j] != serial[j] {
						recordErr("reader %d: TopKAll[%d]=%+v, TopK %+v", r, j, all[j], serial[j])
						return
					}
				}
				rankings.Add(1)
			}
		}(r)
	}

	// Writer: a stream of small batches + churn + snapshot/restore, forcing
	// republishes and page copies and shard rebuilds underneath the readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch := make([]stream.Sample, 8)
		i := 0
		for !stop.Load() {
			for j := range batch {
				i++
				batch[j] = stream.Sample{User: i % users, Service: i % services, Value: 1 + float64(i%7)}
			}
			e.ObserveAll(batch)
			e.ReplaySteps(16)
			if i%64 == 0 {
				id := i % services
				e.RemoveService(id)
				e.ObserveAll([]stream.Sample{{User: i % users, Service: id, Value: 2}})
			}
			if i%512 == 0 {
				if data, err := e.View().Snapshot(); err == nil {
					if err := e.Restore(data); err != nil {
						recordErr("restore: %v", err)
						return
					}
				}
			}
		}
	}()

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if n := failures.Load(); n > 0 {
		t.Fatalf("%d ranking consistency failures; first: %v", n, firstErr.Load())
	}
	if rankings.Load() == 0 {
		t.Fatal("no rankings completed")
	}
	st := e.Stats()
	if st.Published == 0 {
		t.Fatalf("no republishes happened during the stress run: %+v", st)
	}
	t.Logf("rankings=%d, stats=%+v", rankings.Load(), st)
}
