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
// land in the pages the previous refresh copied away from and the view in
// the header of the one it replaced. ns/op and B/op should follow the
// batch and stay flat in the catalog; the recycled arm's allocs/op is 0.
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
						prev := v
						v = m.RefreshView(v)
						if arm == "recycled" {
							m.Recycle(prev, v, 0)
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
// has handed back what each refresh replaced — what the engine does when
// no reader pins the view it replaced — a 64-sample publish over 20k
// services writes into the twins of the pages it copies, the touched
// shards' spare page slices, the lists an earlier Recycle emptied and the
// header of the view it replaced, and allocates nothing (without Recycle
// it is ≈ 240 KB in ≈ 160 objects). The first copy of a page has no twin
// to write into; one warm refresh that touches every entity copies every
// page once, as a served catalog's traffic soon does.
func TestRecycledRefreshAllocations(t *testing.T) {
	const nServices, batch, rounds = 20000, 64, 50
	settle := quietRuntime(t)
	m, next := refreshBenchModel(t, nServices)
	v := m.BuildView()
	warm := make([]stream.Sample, nServices)
	for s := range warm {
		warm[s] = stream.Sample{Time: time.Millisecond, User: s % 200, Service: s, Value: 1}
	}
	m.ObserveAll(warm)
	prev := v
	v = m.RefreshView(v)
	m.Recycle(prev, v, 0)
	var before, after runtime.MemStats
	var bytes, objects uint64
	for i := -10; i < rounds; i++ { // ten rounds to fill the slice slots and lists
		m.ObserveAll(next(batch))
		settle()
		runtime.ReadMemStats(&before)
		prev := v
		v = m.RefreshView(v)
		m.Recycle(prev, v, 0)
		runtime.ReadMemStats(&after)
		if i >= 0 {
			bytes += after.TotalAlloc - before.TotalAlloc
			objects += after.Mallocs - before.Mallocs
		}
	}
	perBytes, perObjects := float64(bytes)/rounds, float64(objects)/rounds
	t.Logf("%d-sample refresh + recycle at 20k services: %.0f B, %.1f objects", batch, perBytes, perObjects)
	if objects != 0 {
		t.Errorf("recycled refresh allocates %.0f B in %.1f objects, want none", perBytes, perObjects)
	}
}

// quietRuntime keeps the runtime's own allocations out of a test's
// MemStats rounds, which count every object the process allocates. For
// the rest of the test it runs on one P, as testing.AllocsPerRun does:
// with a P idle, the
// start-the-world that ends each ReadMemStats wakes a thread to look for
// work, and when no parked thread is left the runtime makes one — its m,
// g0, signal g and two profiling stacks, 5 objects and 5,248 B in that
// round. And each round starts after a collection (settle), so that no
// cycle starts inside one: a cycle's mark workers take sudogs (96 B
// each) afresh, since every cycle empties that cache.
func quietRuntime(t *testing.T) (settle func()) {
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	return runtime.GC
}

// TestJoinReshapeAllocations pins what a join adds to a recycled publish,
// whose view header is the recycled one: the joined shard's reshape
// allocates its new index — the header, the ids, 8 bytes a row, and the
// rank words, 16 bytes per 64 ids of the shard's range — and its list of
// joined ids, and lays the rows out in recycled pages and the shard's
// spare page slice; it builds no hash table beside the ids. Each round joins one new service to the same
// shard of a 10k-service catalog, which grows from 157 rows to 187 and
// so keeps its three pages.
func TestJoinReshapeAllocations(t *testing.T) {
	const nServices, warm, rounds = 10000, 10, 20
	settle := quietRuntime(t)
	m, _ := refreshBenchModel(t, nServices)
	v := m.BuildView()
	join := nServices + viewShardCount // the first join's id; each round's is one shard step on
	var before, after runtime.MemStats
	var bytes, objects uint64
	for i := -warm; i < rounds; i++ {
		m.Observe(stream.Sample{Time: time.Duration(i+warm+1) * time.Millisecond, User: 0, Service: join, Value: 1})
		join += viewShardCount
		settle()
		runtime.ReadMemStats(&before)
		prev := v
		v = m.RefreshView(v)
		m.Recycle(prev, v, 0)
		runtime.ReadMemStats(&after)
		if i >= 0 {
			bytes += after.TotalAlloc - before.TotalAlloc
			objects += after.Mallocs - before.Mallocs
		}
	}
	idx := v.services.shards[shardOf(join)].idx
	rows, words := len(idx.ids), len(idx.rank)
	perBytes, perObjects := float64(bytes)/rounds, float64(objects)/rounds
	t.Logf("a join's recycled publish at %d services (%d-row shard, %d rank words): %.0f B, %.1f objects", nServices, rows, words, perBytes, perObjects)
	// The index header, its ids, its rank words and the one-id join list,
	// each rounded up to its size class by at most an eighth.
	limit := float64(unsafe.Sizeof(shardIndex{})+uintptr(rows+1)*8+uintptr(words)*unsafe.Sizeof(rankWord{})) * 9 / 8
	if words == 0 || perBytes > limit || perObjects > 4.5 {
		t.Errorf("a join's publish allocates %.0f B in %.1f objects (%d rank words), want ≤ %.0f B in 4: index header, ids, rank words, join list", perBytes, perObjects, words, limit)
	}
}

// BenchmarkObserveApply is the apply cost at the served shape: a model of
// 1,000 users × 5,000 services preloaded at 5% density takes 64-sample
// batches of one zipf-drawn user against distinct uniformly drawn
// services — what the engine's applyLocked does for one HTTP observe,
// scoring included (ObserveAllScored), publishing excluded. The batches
// come from a fixed ring of 4,096, as bench/'s observe_durable ring does,
// and one untimed pass over the ring precedes the timed ones, so every
// pair is in the replay pool by then: a timed batch neither grows the
// pool nor registers anything, and ns/sample is the steady state that
// engine.apply_ns_per_sample reads in bench/.
//
//	go test -run=NONE -bench=BenchmarkObserveApply -benchmem -cpu=1 ./internal/core/
//
// (-cpu=1 as in bench/: with a second P the collector marks the untimed
// refresh's garbage during the timed loop and the reading doubles.)
func BenchmarkObserveApply(b *testing.B) {
	const nUsers, nServices, batch, ring = 1000, 5000, 64, 1 << 12
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
	zipf := rand.NewZipf(rng, 1.1, 1, nUsers-1)
	batches := make([][]stream.Sample, ring)
	for i := range batches {
		user, seen := int(zipf.Uint64()), make(map[int]bool, batch)
		for len(batches[i]) < batch {
			if s := rng.Intn(nServices); !seen[s] {
				seen[s] = true
				batches[i] = append(batches[i], stream.Sample{User: user, Service: s, Value: value()})
			}
		}
	}
	view := m.BuildView()
	var scores priorSum
	// prepare stamps the i-th batch with a newer time, so that it
	// supersedes its pairs' samples in the pool, and publishes as the
	// engine does after every observe, so that every entity starts clean.
	prepare := func(i int) {
		ss := batches[i%ring]
		for j := range ss {
			ss[j].Time = time.Duration(i+1) * time.Millisecond
		}
		prev := view
		view = m.RefreshView(view)
		m.Recycle(prev, view, 0)
	}
	for i := 0; i < ring; i++ { // the warm pass
		prepare(i)
		m.ObserveAllScored(batches[i], &scores)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		prepare(ring + i)
		b.StartTimer()
		m.ObserveAllScored(batches[i%ring], &scores)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/sample")
}

// priorSum is a Scorer that folds every prior into one number.
type priorSum float64

func (p *priorSum) Record(prior, _ float64) { *p += priorSum(prior) }
func (p *priorSum) RecordMiss()             {}
