package engine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/stream"
)

// TestPinnedViewsNeverChange is the recycling safety contract: pages are
// written again only once no view that can reach them is pinned or has
// escaped. While the writer observes 64-sample batches — every publish
// copying into pages earlier publishes copied away from — four
// readers pin the current view and digest it twice, 50 µs apart; a view
// taken with View() and a view pinned for far longer than retireBound
// publishes are digested before and after the whole run. Every digest
// must repeat. Under -race a write into a page a reader still holds is
// also reported as a race. Run at one P and at two.
func TestPinnedViewsNeverChange(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("cpu=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			checkPinnedViewsNeverChange(t)
		})
	}
}

func checkPinnedViewsNeverChange(t *testing.T) {
	const users, services, readers, batches = 16, 2000, 4, 300
	e := New(testModel(t), Config{})
	rng := rand.New(rand.NewSource(1))
	batch := func() []stream.Sample {
		ss := make([]stream.Sample, 64)
		user := rng.Intn(users)
		for i := range ss {
			ss[i] = stream.Sample{User: user, Service: rng.Intn(services), Value: 0.05 + 12*rng.Float64()}
		}
		return ss
	}
	var seed []stream.Sample
	for s := 0; s < services; s++ {
		seed = append(seed, stream.Sample{User: s % users, Service: s, Value: 0.05 + 12*rng.Float64()})
	}
	e.ObserveAll(seed)

	// digest folds what a reader reads of a view into one number: the
	// full-catalog top-10 (every service page) and a row of point
	// predictions with confidence (every page again, and its meta).
	digest := func(v *core.PredictView, user int) uint64 {
		h := fnv.New64a()
		var b [8]byte
		put := func(x float64) { h.Write(binary.LittleEndian.AppendUint64(b[:0], math.Float64bits(x))) }
		for _, r := range v.TopKAll(user, 10, true, 1) {
			put(float64(r.Service))
			put(r.Value)
		}
		for s := 0; s < services; s++ {
			p, c, _ := v.PredictWithConfidence(user, s)
			put(p)
			put(c)
		}
		return h.Sum64()
	}

	escaped := e.View()
	for i := 0; i < 3; i++ {
		e.ObserveAll(batch())
	}
	held := e.Pin()
	wantEscaped, wantHeld := digest(escaped, 0), digest(held.PredictView, 1)

	var (
		stop     atomic.Bool
		changed  atomic.Int64
		digested atomic.Int64
		picked   = make(chan struct{}, 1) // a reader has pinned a view
		wg       sync.WaitGroup
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(user int) {
			defer wg.Done()
			for !stop.Load() {
				v := e.Pin()
				select {
				case picked <- struct{}{}:
				default:
				}
				first := digest(v.PredictView, user)
				time.Sleep(50 * time.Microsecond)
				if digest(v.PredictView, user) != first {
					changed.Add(1)
				}
				e.Unpin(v)
				digested.Add(1)
			}
		}(r)
	}
	for i := 0; i < batches; i++ {
		e.ObserveAll(batch())
		<-picked // keep the writer from outrunning the readers
	}
	stop.Store(true)
	wg.Wait()

	if n := changed.Load(); n > 0 {
		t.Errorf("%d of %d pinned views changed while pinned", n, digested.Load())
	}
	if digested.Load() == 0 {
		t.Error("no reader finished a digest")
	}
	if got := digest(escaped, 0); got != wantEscaped {
		t.Errorf("the view View() returned (version %d) changed: digest %x, was %x", escaped.Version(), got, wantEscaped)
	}
	if got := digest(held.PredictView, 1); got != wantHeld {
		t.Errorf("the view pinned across %d publishes (version %d) changed: digest %x, was %x", batches, held.Version(), got, wantHeld)
	}
	if got := e.escaped.Load(); got < held.Version() {
		t.Errorf("escape watermark %d: the view pinned past retireBound (version %d) was never escaped", got, held.Version())
	}
	e.Unpin(held)
}
