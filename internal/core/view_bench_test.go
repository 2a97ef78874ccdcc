package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"github.com/qoslab/amf/internal/stream"
)

// refreshBenchModel is a catalog of nServices services, each observed
// once, seen by 200 users — the shape of a serving model whose writes are
// small against its catalog. It returns a generator of observe batches of
// the serving path's shape: batch samples of one user against uniformly
// drawn known services, so a refresh after one never changes membership.
func refreshBenchModel(tb testing.TB, nServices int) (*Model, func(batch int) []stream.Sample) {
	tb.Helper()
	const nUsers = 200
	cfg := DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	m := MustNew(cfg)
	rng := rand.New(rand.NewSource(int64(nServices)))
	for s := 0; s < nServices; s++ {
		m.Observe(stream.Sample{User: s % nUsers, Service: s, Value: 0.1 + 10*rng.Float64()})
	}
	var at time.Duration
	return m, func(batch int) []stream.Sample {
		at += time.Millisecond
		ss := make([]stream.Sample, batch)
		user := rng.Intn(nUsers)
		for i := range ss {
			ss[i] = stream.Sample{Time: at, User: user, Service: rng.Intn(nServices), Value: 0.1 + 10*rng.Float64()}
		}
		return ss
	}
}

// BenchmarkRefreshView times one incremental publish after an observe
// batch, across catalog sizes and batch sizes, in two arms: fresh, where
// every copied page is a new allocation (every RefreshView caller but the
// engine), and recycled, where each refresh is followed by the Recycle
// the engine makes when no reader pins the view it replaced, so copies
// land in the pages the previous refresh copied away from. ns/op and B/op
// should follow the batch and stay flat in the catalog.
//
//	go test -run=NONE -bench=BenchmarkRefreshView -benchmem -cpu=1 ./internal/core/
func BenchmarkRefreshView(b *testing.B) {
	for _, nServices := range []int{5000, 20000} {
		for _, arm := range []string{"fresh", "recycled"} {
			m, next := refreshBenchModel(b, nServices)
			v := m.BuildView()
			for _, batch := range []int{16, 64, 500} {
				b.Run(fmt.Sprintf("services=%s/batch=%d/%s", sizeLabel(nServices), batch, arm), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						m.ObserveAll(next(batch))
						b.StartTimer()
						v = m.RefreshView(v)
						if arm == "recycled" {
							m.Recycle(v, 0)
						}
					}
				})
			}
		}
	}
}

// TestRefreshBytesIndependentOfCatalog pins the scaling claim in
// RefreshView's contract: what publishing a 64-sample observe allocates is
// bounded by what the observe touched — at most one page per sample plus
// the user's, whatever the catalog — and once the catalog is large enough
// for 64 samples to land on 64 different pages it stops growing at all.
// (Below that, smaller is cheaper still: at 5k services a shard is one
// full page and a 14-row one, and samples share pages.)
func TestRefreshBytesIndependentOfCatalog(t *testing.T) {
	const batch = 64
	bytesPerRefresh := func(nServices int) float64 {
		m, next := refreshBenchModel(t, nServices)
		v := m.BuildView()
		const rounds = 50
		var before, after runtime.MemStats
		var total uint64
		for i := 0; i < rounds; i++ {
			m.ObserveAll(next(batch))
			runtime.ReadMemStats(&before)
			v = m.RefreshView(v)
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
		}
		return float64(total) / rounds
	}
	rank := DefaultConfig(-0.007, 0, 20).Rank
	pageBytes := float64(viewPageRows*rank*4) + float64(unsafe.Sizeof(pageMeta{}))
	// 25% for allocator size classes and the copied page slices of the
	// touched shards, plus the view itself.
	limit := 1.25*(batch+1)*pageBytes + 2*float64(unsafe.Sizeof(PredictView{}))
	sizes := []int{5000, 20000, 80000}
	got := make([]float64, len(sizes))
	for i, n := range sizes {
		got[i] = bytesPerRefresh(n)
		t.Logf("%d-sample refresh at %d services: %.0f B (limit %.0f)", batch, n, got[i], limit)
		if got[i] > limit {
			t.Errorf("refresh at %d services allocates %.0f B, more than the %.0f B the batch can touch", n, got[i], limit)
		}
	}
	if got[2] > 1.25*got[1] {
		t.Errorf("refresh bytes grow with the catalog: %.0f B at 20k services, %.0f B at 80k (%.2fx > 1.25x)", got[1], got[2], got[2]/got[1])
	}
}

// TestRecycledRefreshAllocations pins what recycling buys: once Recycle
// has handed back the pages of the view each refresh replaced — what the
// engine does when no reader pins it — a 64-sample publish over 20k
// services copies into them and allocates only the view header and the
// touched shards' page slices, not one block or meta per touched page
// (without Recycle it is ≈ 240 KB in ≈ 170 objects).
func TestRecycledRefreshAllocations(t *testing.T) {
	const batch, rounds = 64, 50
	m, next := refreshBenchModel(t, 20000)
	v := m.BuildView()
	var before, after runtime.MemStats
	var bytes, objects uint64
	for i := -10; i < rounds; i++ { // ten rounds to fill the spare list
		m.ObserveAll(next(batch))
		runtime.ReadMemStats(&before)
		v = m.RefreshView(v)
		m.Recycle(v, 0)
		runtime.ReadMemStats(&after)
		if i >= 0 {
			bytes += after.TotalAlloc - before.TotalAlloc
			objects += after.Mallocs - before.Mallocs
		}
	}
	perBytes, perObjects := float64(bytes)/rounds, float64(objects)/rounds
	t.Logf("%d-sample refresh + recycle at 20k services: %.0f B, %.1f objects", batch, perBytes, perObjects)
	if perBytes > 24<<10 || perObjects > 64 {
		t.Errorf("recycled refresh allocates %.0f B in %.1f objects, want ≤ %d B and ≤ 64", perBytes, perObjects, 24<<10)
	}
}

// BenchmarkObserveApply is the apply cost at the served shape: a model of
// 1,000 users × 5,000 services preloaded at 5% density takes 64-sample
// batches of one user against uniformly drawn services — what the
// engine's applyLocked does for one HTTP observe, scoring included
// (ObservePrior), publishing excluded. ns/sample is what
// engine.apply_ns_per_sample reads in bench/; steady-state allocations
// are the replay pool's growth for pairs not seen before.
//
//	go test -run=NONE -bench=BenchmarkObserveApply -benchmem -cpu=1 ./internal/core/
//
// (-cpu=1 as in bench/: with a second P the collector marks the untimed
// refresh's garbage during the timed loop and the reading doubles.)
func BenchmarkObserveApply(b *testing.B) {
	const nUsers, nServices, batch = 1000, 5000, 64
	cfg := DefaultConfig(-0.007, 0, 20)
	m := MustNew(cfg)
	rng := rand.New(rand.NewSource(1))
	value := func() float64 { return 0.1 + 10*rng.Float64()*rng.Float64() }
	for u := 0; u < nUsers; u++ {
		for s := 0; s < nServices; s++ {
			if rng.Float64() < 0.05 {
				m.Observe(stream.Sample{User: u, Service: s, Value: value()})
			}
		}
	}
	view := m.BuildView()
	ss := make([]stream.Sample, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		user, at := rng.Intn(nUsers), time.Duration(i+1)*time.Millisecond
		for j := range ss {
			ss[j] = stream.Sample{Time: at, User: user, Service: rng.Intn(nServices), Value: value()}
		}
		view = m.RefreshView(view) // the engine publishes after every observe: every entity starts clean
		b.StartTimer()
		for _, s := range ss {
			priorSink, _ = m.ObservePrior(s)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/sample")
}

var priorSink float64
