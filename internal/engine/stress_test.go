package engine

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/stream"
)

// TestStressConcurrentReadWrite hammers one engine from >= 8 goroutines
// mixing every public operation. Run with -race. It asserts:
//
//   - no torn views: every prediction is finite and inside the model's
//     configured QoS range, every confidence is in (0, 1];
//   - monotonic publication: each reader observes non-decreasing view
//     versions, and (in the restore-free phase) non-decreasing update
//     counts.
func TestStressConcurrentReadWrite(t *testing.T) {
	const (
		users    = 32
		services = 64
		readers  = 6
		writers  = 2
		mutators = 2 // churn + snapshot/replay goroutines
	)
	e := New(testModel(t), Config{})

	// Seed synchronously so every (u, s) in range is predictable.
	var seed []stream.Sample
	for u := 0; u < users; u++ {
		for s := 0; s < services; s++ {
			seed = append(seed, stream.Sample{User: u, Service: s, Value: 1 + float64((u+s)%9)})
		}
	}
	e.ObserveAll(seed)

	var (
		stop        atomic.Bool
		restoreOn   atomic.Bool // set while Restore may run (relaxes update monotonicity)
		failures    atomic.Int64
		firstErr    atomic.Value
		cfgRange    = e.View().Config()
		recordError = func(format string, args ...any) {
			if failures.Add(1) == 1 {
				firstErr.Store(fmt.Errorf(format, args...))
			}
		}
	)

	var wg sync.WaitGroup

	// Readers: predict, rank, inspect — all wait-free view loads.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastVersion := uint64(0)
			lastUpdates := int64(0)
			i := 0
			for !stop.Load() {
				i++
				u, s := (r*7+i)%users, (r*13+i)%services
				v := e.View()
				if ver := v.Version(); ver < lastVersion {
					recordError("reader %d: view version went backwards: %d -> %d", r, lastVersion, ver)
					return
				} else {
					lastVersion = ver
				}
				if up := v.Updates(); up < lastUpdates && !restoreOn.Load() {
					recordError("reader %d: update count went backwards: %d -> %d", r, lastUpdates, up)
					return
				} else {
					lastUpdates = up
				}
				val, conf, err := v.PredictWithConfidence(u, s)
				if err != nil {
					continue // churn may have removed the entity; not a tear
				}
				if math.IsNaN(val) || math.IsInf(val, 0) || val < cfgRange.RMin-1e-9 || val > cfgRange.RMax+1e-9 {
					recordError("reader %d: torn prediction %g for (%d,%d)", r, val, u, s)
					return
				}
				if !(conf > 0 && conf <= 1) {
					recordError("reader %d: confidence %g out of (0,1]", r, conf)
					return
				}
				if i%64 == 0 {
					ranked, _ := v.TopK(u, []int{0, 1, 2, 3, 4, 5}, 6, true)
					for j := 1; j < len(ranked); j++ {
						if ranked[j-1].Value > ranked[j].Value {
							recordError("reader %d: inconsistent ranking %v", r, ranked)
							return
						}
					}
				}
			}
		}(r)
	}

	// Writers: a stream of small batches.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]stream.Sample, 8)
			i := 0
			for !stop.Load() {
				for j := range batch {
					i++
					batch[j] = stream.Sample{
						User:    (w*11 + i) % users,
						Service: (w*17 + i) % services,
						Value:   1 + float64(i%9),
					}
				}
				e.ObserveAll(batch)
			}
		}(w)
	}

	// Mutator 1: churn (remove + re-observe) and replay.
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for !stop.Load() {
			i++
			id := i % users
			e.RemoveUser(id)
			e.ObserveAll([]stream.Sample{{User: id, Service: i % services, Value: 3}})
			e.ReplaySteps(32)
			e.AdvanceTo(time.Duration(i) * time.Millisecond)
		}
	}()

	// Mutator 2: lock-free snapshots, then restores (second phase only).
	wg.Add(1)
	go func() {
		defer wg.Done()
		var snap []byte
		i := 0
		for !stop.Load() {
			i++
			data, err := e.View().Snapshot()
			if err != nil {
				recordError("snapshot: %v", err)
				return
			}
			snap = data
			if restoreOn.Load() && i%8 == 0 {
				if err := e.Restore(snap); err != nil {
					recordError("restore: %v", err)
					return
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	time.Sleep(150 * time.Millisecond) // phase 1: monotonic updates, no restore
	restoreOn.Store(true)
	time.Sleep(150 * time.Millisecond) // phase 2: add Restore to the mix
	stop.Store(true)
	wg.Wait()

	if n := failures.Load(); n > 0 {
		t.Fatalf("%d consistency failures; first: %v", n, firstErr.Load())
	}
	st := e.Stats()
	if st.Published == 0 || st.Applied == 0 {
		t.Fatalf("stress run did no work: %+v", st)
	}
	t.Logf("stress stats: %+v", st)
}
