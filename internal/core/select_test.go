package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"github.com/qoslab/amf/internal/matrix"
)

// The oracle of fused selection (ISSUE 16). selectRows hands heapPush
// only the rows that can still enter the heap; the reference below is the
// loop it replaced, which pushes every row. Every selection entry point
// must return exactly what the reference returns — same services, same
// value bits — whatever the keys: that is the whole correctness claim of
// the filter, and TestSelectionPushBound is its performance claim.

// refScan is the unfiltered full-catalog selection: every row of every
// page, in scan order, through heapPush.
func refScan(v *PredictView, user, k int, lowerIsBetter bool) []Ranked {
	u, ok := v.users.get(user)
	if k = min(k, v.services.count); !ok || k <= 0 {
		return nil
	}
	var (
		h    []scored
		vals [viewPageRows]float32
	)
	q := u.appendFactors(nil)
	for si := range v.services.shards {
		sh := &v.services.shards[si]
		for pi := range sh.pages {
			// One page, under a bound no row is worse than.
			matrix.WalkPages32(&vals, &sh.pages[pi].vecs, pageStride, 1, q, nan32, lowerIsBetter, ^uint64(0))
			for i, id := range sh.idx.pageIDs(pi) {
				h = heapPush(h, scored{service: id, key: float64(vals[i])}, k, lowerIsBetter)
			}
		}
	}
	return drainInto(nil, h, lowerIsBetter, v.tr)
}

// refCandidates is the unfiltered candidate selection: every known
// candidate, in list order, through heapPush.
func refCandidates(v *PredictView, user int, candidates []int, k int, lowerIsBetter bool) (ranked []Ranked, unknown []int) {
	u, ok := v.users.get(user)
	if !ok {
		return nil, append(unknown, candidates...)
	}
	k = min(k, len(candidates))
	var h []scored
	for _, c := range candidates {
		s, ok := v.services.get(c)
		if !ok {
			unknown = append(unknown, c)
		} else if k > 0 {
			h = heapPush(h, scored{service: c, key: veDot(u, s)}, k, lowerIsBetter)
		}
	}
	return drainInto(nil, h, lowerIsBetter, v.tr), unknown
}

// sameRanked is equality on bits, so that a NaN value equals itself and
// +0 differs from -0.
func sameRanked(t *testing.T, what string, got, want []Ranked) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Service != want[i].Service || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
			t.Fatalf("%s[%d]: got %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// keyedModel builds a model in which service ids[i] scores exactly
// keys[i] for user 0 and -keys[i] for user 1: the users' vectors are ±the
// first unit vector and a service's is its key in that coordinate. Its
// view scores what float32 makes of each key.
func keyedModel(ids []int, keys []float64) *Model {
	cfg := DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	m := MustNew(cfg)
	for uid, x := range []float64{1, -1} {
		u := m.entity(m.users, uid)
		clear(u.vec)
		u.vec[0] = x
	}
	for i, id := range ids {
		s := m.entity(m.services, id)
		clear(s.vec)
		s.vec[0] = keys[i]
	}
	return m
}

func keyedView(ids []int, keys []float64) *PredictView { return keyedModel(ids, keys).BuildView() }

// checkPlanted is checkSelection on the view of planted keys. With f32
// the keys are rounded to float32 before they are planted — the factors a
// restart leaves in a model (TestSnapshotRoundTripIdempotent) — so that
// freezing them is exact and model and view hold the same keys. The
// float64 model must then rank exactly as the view does: whatever the
// bounded model-vs-view contract of precision_test.go allows is rounding,
// none of it a difference in the ordering rule. That holds when orderly,
// no key NaN: a NaN is neither better nor worse than anything, so a full
// sort and a bounded heap may keep it in different places.
func checkPlanted(t *testing.T, ids []int, keys []float64, f32 bool, rng *rand.Rand, orderly bool) {
	t.Helper()
	if f32 {
		keys = slices.Clone(keys)
		for i, x := range keys {
			keys[i] = float64(float32(x))
		}
	}
	m := keyedModel(ids, keys)
	v := m.BuildView()
	checkSelection(t, v, ids, rng)
	if !f32 || !orderly {
		return
	}
	for user := 0; user < 2; user++ {
		for _, lower := range []bool{true, false} {
			want, _ := m.RankServices(user, ids, lower)
			sameRanked(t, "view vs Model.RankServices", v.TopKAll(user, len(ids), lower, 1), want)
		}
	}
}

// scanOrder sorts ids the way the page scan meets them: by shard, then
// ascending.
func scanOrder(ids []int) {
	sort.Slice(ids, func(i, j int) bool {
		if si, sj := shardOf(ids[i]), shardOf(ids[j]); si != sj {
			return si < sj
		}
		return ids[i] < ids[j]
	})
}

// checkSelection holds every selection entry point to the reference on
// one view, for k ∈ {1, 10, n−1, n, > n} and both directions.
func checkSelection(t *testing.T, v *PredictView, ids []int, rng *rand.Rand) {
	t.Helper()
	n := len(ids)
	ks := []int{1, 10, n - 1, n, n + 7}
	candidates := append([]int(nil), ids...)
	rng.Shuffle(n, func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	candidates = append(candidates, 1<<20, candidates[0], 1<<20+1) // two unknown ids, one duplicate
	for _, lower := range []bool{true, false} {
		for _, k := range ks {
			for user := 0; user < 2; user++ {
				want := refScan(v, user, k, lower)
				sameRanked(t, "TopKAll", v.TopKAll(user, k, lower, 1), want)
			}
			want, wantUnknown := refCandidates(v, 0, candidates, k, lower)
			got, unknown := v.TopK(0, candidates, k, lower)
			sameRanked(t, "TopK", got, want)
			intsEqual(t, "TopK unknown", unknown, wantUnknown)
		}
	}
	// The queries that rank nothing: unknown user, k <= 0.
	for _, q := range [][2]int{{777, 3}, {0, 0}, {1, -1}} {
		sameRanked(t, "TopKAll", v.TopKAll(q[0], q[1], false, 1), refScan(v, q[0], q[1], false))
	}
}

// specialKeys are the values a compare can get wrong; the last two
// round to 0 and +Inf when a page freezes them.
var specialKeys = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1, -1,
	math.SmallestNonzeroFloat32, math.MaxFloat32, 5e-324, math.MaxFloat64}

// TestSelectionMatchesReference is the seeded property test: catalogs
// whose shards hold several pages with a partial last one (ids packed
// into three shards) and catalogs spread thin over all 64, with keys
// that are random, all equal (the ranking is the id tie-break alone),
// drawn from three values (ties everywhere), special (±0, ±Inf, NaN,
// denormal, huge), and arriving best-last in scan order (every row a
// survivor) — each as float64 values for the page to round and as
// float32 values it holds exactly (checkPlanted).
func TestSelectionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{1, 12, 200, 700, 1500} {
		for _, packed := range []bool{false, true} {
			ids := make([]int, n)
			for i := range ids {
				ids[i] = i
				if packed {
					ids[i] = 64*i + i%3
				}
			}
			scanOrder(ids)
			for _, catalog := range []struct {
				name string
				key  func(i int) float64
			}{
				{"random", func(int) float64 { return rng.NormFloat64() }},
				{"equal", func(int) float64 { return 0.25 }},
				{"ties", func(int) float64 { return float64(rng.Intn(3)) }},
				{"special", func(int) float64 { return specialKeys[rng.Intn(len(specialKeys))] }},
				{"best-last", func(i int) float64 { return float64(i) }},
			} {
				name, keys := catalog.name, make([]float64, n)
				for i := range keys {
					keys[i] = catalog.key(i)
				}
				for _, f32 := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/n=%d/packed=%v/f32=%v", name, n, packed, f32), func(t *testing.T) {
						checkPlanted(t, ids, keys, f32, rng, name != "special")
					})
				}
			}
		}
	}
	// Learned factors rather than planted keys: general dot products.
	m := topkTestModel(t, 900)
	ids := make([]int, 900)
	for i := range ids {
		ids[i] = i
	}
	checkSelection(t, m.BuildView(), ids, rng)
}

// FuzzSelect plants fuzzer-chosen keys — every byte is a key: the low
// values index specialKeys, the rest are small multiples of 1/4, so ties
// are common — and holds every entry point to the reference.
func FuzzSelect(f *testing.F) {
	f.Add(uint8(0), []byte{40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52})
	f.Add(uint8(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 200, 100, 100, 3, 4})
	f.Add(uint8(2), []byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add(uint8(3), []byte{4})
	f.Fuzz(func(t *testing.T, flags uint8, raw []byte) {
		if len(raw) == 0 || len(raw) > 600 {
			return
		}
		ids, keys, orderly := make([]int, len(raw)), make([]float64, len(raw)), true
		for i, b := range raw {
			ids[i] = i
			if flags&2 != 0 {
				ids[i] = 64*i + i%2 // two shards, several pages each
			}
			if keys[i] = float64(int(b)-128) / 4; int(b) < len(specialKeys) {
				keys[i] = specialKeys[b]
			}
			orderly = orderly && !math.IsNaN(keys[i])
		}
		rng := rand.New(rand.NewSource(int64(flags)))
		checkPlanted(t, ids, keys, flags&1 != 0, rng, orderly)
	})
}

// countPushes runs f and returns how many rows it handed to heapPush.
func countPushes(f func()) (pushes int) {
	testHookPush = func() { pushes++ }
	defer func() { testHookPush = nil }()
	f()
	return pushes
}

// TestSelectionPushBound is the regression guard that needs no clock: on
// a shuffled 20,000-service catalog with k = 10, a selection may hand
// heapPush at most 3·k·(1+ln(n/k)) rows — the expectation for keys in
// random order is k·(1+ln(n/k)) ≈ 86 — where pushing every row hands it
// all 20,000. And when keys arrive best-last every row is a survivor: the
// worst case is the old cost exactly, n pushes, never more.
func TestSelectionPushBound(t *testing.T) {
	const n, k = 20000, 10
	limit := int(3 * k * (1 + math.Log(n/k)))
	rng := rand.New(rand.NewSource(16))
	ids, keys := make([]int, n), make([]float64, n)
	for i, p := range rng.Perm(n) {
		ids[i], keys[i] = i, float64(p)
	}
	v := keyedView(ids, keys)
	for _, lower := range []bool{true, false} {
		got := countPushes(func() { v.TopKAll(0, k, lower, 1) })
		t.Logf("TopKAll lower=%v: %d of %d rows reached heapPush", lower, got, n)
		if got < k || got > limit {
			t.Errorf("TopKAll lower=%v: %d rows reached heapPush, want %d..%d", lower, got, k, limit)
		}
		if got := countPushes(func() { v.TopK(0, ids, k, lower) }); got < k || got > limit {
			t.Errorf("TopK lower=%v: %d rows reached heapPush, want %d..%d", lower, got, k, limit)
		}
	}

	scanOrder(ids)
	for i := range keys {
		keys[i] = float64(i) // ascending in scan order: best-last when higher is better
	}
	v = keyedView(ids, keys)
	if got := countPushes(func() { v.TopKAll(0, k, false, 1) }); got != n {
		t.Errorf("best-last: %d rows reached heapPush, want all %d and no more", got, n)
	}
	if got := countPushes(func() { v.TopKAll(0, k, true, 1) }); got != k {
		t.Errorf("best-first: %d rows reached heapPush, want only the first %d", got, k)
	}
}

// countHandbacks runs f and returns how many times a full-catalog scan's
// kernel returned to Go, failing t on a return that hands back a page
// with no survivor or ends a walk with one.
func countHandbacks(t *testing.T, f func()) (returns int) {
	t.Helper()
	testHookScan = func(i, n int, m uint64) {
		returns++
		if (i < n) != (m != 0) {
			t.Errorf("scan returned page %d of %d with mask %064b", i, n, m)
		}
	}
	defer func() { testHookScan = nil }()
	f()
	return returns
}

// TestScanHandbackBound is the clock-free guard on the shard walk: on
// TestSelectionPushBound's shuffled 20,000-service catalog with k = 10,
// TopKAll's kernel may return to Go at most once per shard, at its end,
// plus 3·k·(1+ln(n/k)) times with a page that has a survivor — with
// distinct keys every page handed back makes at least one push, so the
// pushes' bound is the pages' too — where a call per page would return
// 320 times. When keys arrive best-last every page holds survivors, and each
// one comes back.
func TestScanHandbackBound(t *testing.T) {
	const n, k = 20000, 10
	limit := viewShardCount + int(3*k*(1+math.Log(n/k)))
	rng := rand.New(rand.NewSource(16))
	ids, keys := make([]int, n), make([]float64, n)
	for i, p := range rng.Perm(n) {
		ids[i], keys[i] = i, float64(p)
	}
	v := keyedView(ids, keys)
	pages := v.services.pageCount()
	for _, lower := range []bool{true, false} {
		got := countHandbacks(t, func() { v.TopKAll(0, k, lower, 1) })
		t.Logf("TopKAll lower=%v: the kernel returned %d times over %d pages in %d shards", lower, got, pages, viewShardCount)
		if got < viewShardCount || got > limit {
			t.Errorf("TopKAll lower=%v: the kernel returned %d times, want %d..%d", lower, got, viewShardCount, limit)
		}
	}
	scanOrder(ids)
	for i := range keys {
		keys[i] = float64(i)
	}
	v = keyedView(ids, keys)
	if got := countHandbacks(t, func() { v.TopKAll(0, k, false, 1) }); got != pages {
		t.Errorf("best-last: the kernel returned %d times, want once per page, %d", got, pages)
	}
}

// checkScanLayout holds v's service pages to what matrix.WalkPages32
// reads of them: a page's block is the first field of viewPage, every
// block is full height, and a shard holds exactly the pages its rows
// need, so that the last page's row mask is 1 to 64 rows wide.
func checkScanLayout(t *testing.T, v *PredictView) {
	t.Helper()
	if off := unsafe.Offsetof(viewPage{}.vecs); off != 0 {
		t.Fatalf("viewPage.vecs at offset %d, want 0", off)
	}
	for si := range v.services.shards {
		sh := &v.services.shards[si]
		if want := (len(sh.idx.ids) + viewPageRows - 1) / viewPageRows; len(sh.pages) != want {
			t.Fatalf("shard %d: %d pages for %d rows, want %d", si, len(sh.pages), len(sh.idx.ids), want)
		}
		for pi, p := range sh.pages {
			if len(p.vecs) != viewPageRows*v.services.rank {
				t.Fatalf("shard %d page %d: block of %d floats, want %d", si, pi, len(p.vecs), viewPageRows*v.services.rank)
			}
		}
	}
}

// TestScanLayout checks the scan's layout facts on views built, refreshed
// through joins and removals that reshape shards, and published into
// recycled pages and twins.
func TestScanLayout(t *testing.T) {
	g := newRecycleRig(t, 37)
	checkScanLayout(t, g.rv)
	rng := rand.New(rand.NewSource(37))
	for step := 0; step < 60; step++ {
		switch rng.Intn(4) {
		case 0:
			g.removeService(rng.Intn(rigServices))
		default:
			for i := 0; i < 8; i++ {
				g.observe(rng.Intn(rigUsers), rng.Intn(rigServices), 0.05+12*rng.Float64())
			}
		}
		g.refresh()
		checkScanLayout(t, g.rv)
		g.recycle()
	}
}

// TestScanShardEdges holds TopKAll to the reference on the shard shapes
// the walk's ends meet: empty shards between full ones, a shard of
// exactly 64·n rows (its last page's row mask all ones), a one-row shard
// and a shard one row past a page, and a catalog that is one 64·n-row
// shard — through checkSelection's k ∈ {1, 10, n−1, n, > n}, both
// directions, keys random, tied and best-last in scan order.
func TestScanShardEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var ids []int
	for _, sr := range [][2]int{{0, 2 * viewPageRows}, {1, 1}, {2, viewPageRows}, {5, viewPageRows + 1}, {63, 3 * viewPageRows}} {
		for r := 0; r < sr[1]; r++ {
			ids = append(ids, r*viewShardCount+sr[0])
		}
	}
	scanOrder(ids)
	for _, c := range []struct {
		name string
		ids  []int
	}{{"shards", ids}, {"one-full-shard", ids[:2*viewPageRows]}} {
		name, catalog := c.name, c.ids
		keys := make([]float64, len(catalog))
		for _, order := range []string{"random", "ties", "best-last"} {
			for i := range keys {
				switch order {
				case "random":
					keys[i] = rng.NormFloat64()
				case "ties":
					keys[i] = float64(rng.Intn(3))
				default:
					keys[i] = float64(i)
				}
			}
			t.Run(name+"/"+order, func(t *testing.T) {
				v := keyedView(catalog, keys)
				checkScanLayout(t, v)
				checkSelection(t, v, catalog, rng)
			})
		}
	}
}

// TestRankScratchReleaseDropsLargeHeap: a k = n ranking must not leave
// its n-entry heap pinned in the pool for the k = 10 requests after it.
func TestRankScratchReleaseDropsLargeHeap(t *testing.T) {
	sc := new(rankScratch)
	sc.release(make([]scored, 7, maxPooledHeap))
	if cap(sc.heap) != maxPooledHeap || len(sc.heap) != 0 {
		t.Fatalf("heap at the bound: len %d cap %d, want it kept and emptied", len(sc.heap), cap(sc.heap))
	}
	sc = new(rankScratch)
	sc.release(make([]scored, 7, maxPooledHeap+1))
	if cap(sc.heap) != 0 {
		t.Fatalf("heap past the bound: cap %d, want it dropped", cap(sc.heap))
	}
}
