package core

import (
	"math"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/stream"
)

// topkTestModel trains one user against n services so ranking tests have
// a wide, fully-known candidate universe.
func topkTestModel(t testing.TB, n int) *Model {
	t.Helper()
	cfg := DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	m := MustNew(cfg)
	for s := 0; s < n; s++ {
		v := 0.5 + float64((s*7919)%17)
		m.Observe(stream.Sample{Time: time.Duration(s) * time.Millisecond, User: 0, Service: s, Value: v})
		if s%3 == 0 { // second user keeps the view multi-user
			m.Observe(stream.Sample{Time: time.Duration(s) * time.Millisecond, User: 1, Service: s, Value: v / 2})
		}
	}
	return m
}

func rankedEqual(t *testing.T, what string, got, want []Ranked) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d]: got %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

func intsEqual(t *testing.T, what string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %v, want %v", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: %v, want %v", what, got, want)
		}
	}
}

// TestViewRankingParity is the locked-vs-lock-free agreement contract:
// PredictView.TopK with k = n ranks as Model.RankServices does to within
// the view's float32 rounding (rankedNearModel) with the same unknown
// list, in both metric directions.
func TestViewRankingParity(t *testing.T) {
	m := topkTestModel(t, 60)
	v := m.BuildView()
	candidates := []int{17, 3, 59, 0, 41, 999, 8, 1000, 25}
	for _, lower := range []bool{true, false} {
		mr, mu := m.RankServices(0, candidates, lower)
		vr, vu := v.TopK(0, candidates, len(candidates), lower)
		if len(vr) != len(mr) {
			t.Fatalf("view ranked %d, model %d", len(vr), len(mr))
		}
		rankedNearModel(t, "view vs model ranked", m, 0, vr, mr)
		intsEqual(t, "view vs model unknown", vu, mu)
	}
}

// TestTopKIsPrefixOfFullRanking checks the selection property: TopK(k)
// must equal the first k entries of the full ranking for every k.
func TestTopKIsPrefixOfFullRanking(t *testing.T) {
	m := topkTestModel(t, 40)
	v := m.BuildView()
	candidates := make([]int, 40)
	for i := range candidates {
		candidates[i] = i
	}
	for _, lower := range []bool{true, false} {
		full, _ := v.TopK(0, candidates, len(candidates), lower)
		for k := 1; k <= len(candidates); k += 7 {
			got, _ := v.TopK(0, candidates, k, lower)
			rankedEqual(t, "TopK prefix", got, full[:k])
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	m := topkTestModel(t, 10)
	v := m.BuildView()
	candidates := []int{0, 1, 2, 3, 4}

	// k > n clamps to n.
	got, _ := v.TopK(0, candidates, 50, true)
	full, _ := v.TopK(0, candidates, len(candidates), true)
	rankedEqual(t, "k>n", got, full)

	// k <= 0 ranks nothing but still reports unknowns.
	got, unknown := v.TopK(0, []int{0, 99, 1}, 0, true)
	if len(got) != 0 {
		t.Fatalf("k=0 ranked %v", got)
	}
	intsEqual(t, "k=0 unknown", unknown, []int{99})

	// Unknown user: every candidate is unknown, nothing ranked.
	got, unknown = v.TopK(777, candidates, 3, true)
	if len(got) != 0 {
		t.Fatalf("unknown user ranked %v", got)
	}
	intsEqual(t, "unknown user", unknown, candidates)

	// Empty candidate list.
	got, unknown = v.TopK(0, nil, 3, true)
	if len(got) != 0 || len(unknown) != 0 {
		t.Fatalf("empty candidates: %v / %v", got, unknown)
	}

	// Duplicate candidates are ranked once each (they are distinct list
	// entries) and stay adjacent under the ID tie-break.
	got, _ = v.TopK(0, []int{3, 3, 1}, 3, true)
	if len(got) != 3 {
		t.Fatalf("duplicates collapsed: %v", got)
	}
	dup := 0
	for _, r := range got {
		if r.Service == 3 {
			dup++
		}
	}
	if dup != 2 {
		t.Fatalf("expected service 3 twice, got %v", got)
	}
}

// TestRankingTieBreakDeterministic forces exact key ties by aliasing
// factor vectors and checks both paths order ties by ascending service ID
// regardless of candidate order.
func TestRankingTieBreakDeterministic(t *testing.T) {
	m := topkTestModel(t, 12)
	// Make services 2, 5, 9 latent-identical: exact dot-product ties.
	svc := func(id int) *entity {
		e, ok := m.services.Get(id)
		if !ok {
			t.Fatalf("service %d missing", id)
		}
		return e
	}
	base := svc(2).vec
	for _, id := range []int{5, 9} {
		copy(svc(id).vec, base)
	}
	v := m.BuildView()
	for _, lower := range []bool{true, false} {
		a, _ := v.TopK(0, []int{9, 2, 5}, 3, lower)
		b, _ := v.TopK(0, []int{5, 9, 2}, 3, lower)
		rankedEqual(t, "tie order independent of candidate order", a, b)
		intsEqual(t, "ties ascend by ID",
			[]int{a[0].Service, a[1].Service, a[2].Service}, []int{2, 5, 9})
		mr, _ := m.RankServices(0, []int{9, 5, 2}, lower)
		rankedNearModel(t, "model agrees on ties", m, 0, a, mr)
	}
}

func TestTopKAllMatchesExplicitCandidates(t *testing.T) {
	const n = 1500
	m := topkTestModel(t, n)
	v := m.BuildView()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	for _, lower := range []bool{true, false} {
		for _, k := range []int{1, 10, n} {
			want, _ := v.TopK(0, all, k, lower)
			rankedEqual(t, "TopKAll", v.TopKAll(0, k, lower, 1), want)
		}
	}
	if v.TopKAll(777, 5, true, 1) != nil {
		t.Fatal("unknown user should rank nothing")
	}
	if v.TopKAll(0, 0, true, 1) != nil {
		t.Fatal("k=0 should rank nothing")
	}
}

// TestPredictBatch: every value PredictBatch writes, and every value and
// confidence PredictBatchWithConfidence writes, is bit for bit the
// point read's; unknown services and users read NaN.
func TestPredictBatch(t *testing.T) {
	m := topkTestModel(t, 20)
	v := m.BuildView()
	services := []int{0, 5, 999, 12, -1, 19}
	dst := make([]float64, len(services))
	if err := v.PredictBatch(0, services, dst); err != nil {
		t.Fatal(err)
	}
	vals, conf := make([]float64, len(services)), make([]float64, len(services))
	if err := v.PredictBatchWithConfidence(0, services, vals, conf); err != nil {
		t.Fatal(err)
	}
	for i, id := range services {
		want, wantConf, err := v.PredictWithConfidence(0, id)
		if err != nil {
			if !math.IsNaN(dst[i]) || !math.IsNaN(vals[i]) || !math.IsNaN(conf[i]) {
				t.Fatalf("service %d unknown: value %g / %g, confidence %g; want NaN", id, dst[i], vals[i], conf[i])
			}
			continue
		}
		if math.Float64bits(dst[i]) != math.Float64bits(want) || math.Float64bits(vals[i]) != math.Float64bits(want) ||
			math.Float64bits(conf[i]) != math.Float64bits(wantConf) {
			t.Fatalf("service %d: value %g / %g, confidence %g; PredictWithConfidence %g, %g", id, dst[i], vals[i], conf[i], want, wantConf)
		}
	}
	// Unknown user: ErrUnknownUser and fully NaN-filled outputs.
	if err := v.PredictBatch(777, services, dst); err != ErrUnknownUser {
		t.Fatalf("unknown user err = %v", err)
	}
	if err := v.PredictBatchWithConfidence(777, services, vals, conf); err != ErrUnknownUser {
		t.Fatalf("unknown user err = %v", err)
	}
	for i := range dst {
		if !math.IsNaN(dst[i]) || !math.IsNaN(vals[i]) || !math.IsNaN(conf[i]) {
			t.Fatalf("row %d after unknown user: %g / %g, %g; want NaN", i, dst[i], vals[i], conf[i])
		}
	}
	// Shape mismatch panics.
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dst length mismatch")
		}
	}()
	v.PredictBatch(0, services, make([]float64, 1))
}

// TestAppendTopKZeroAlloc pins the ISSUE's allocation budget: with a
// warmed scratch pool and a reused dst, the steady-state ranking path
// must not allocate.
func TestAppendTopKZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop Puts, so the zero-alloc pin cannot hold")
	}
	m := topkTestModel(t, 512)
	v := m.BuildView()
	candidates := make([]int, 512)
	for i := range candidates {
		candidates[i] = i
	}
	dst := make([]Ranked, 0, 10)
	// Warm the pool and dst.
	u, _ := v.users.get(0)
	var unknown []int
	dst = v.appendTopK(dst[:0], u, candidates, 10, true, &unknown)
	allocs := testing.AllocsPerRun(100, func() {
		dst = v.appendTopK(dst[:0], u, candidates, 10, true, &unknown)
	})
	if allocs != 0 {
		t.Fatalf("appendTopK allocates %v per run, want 0", allocs)
	}
	if len(dst) != 10 {
		t.Fatalf("ranked %d, want 10", len(dst))
	}
	// The page scan gathers the user's lane into the pooled scratch: its
	// one allocation is the result it returns.
	if allocs := testing.AllocsPerRun(100, func() { v.TopKAll(0, 10, true, 1) }); allocs != 1 {
		t.Fatalf("TopKAll allocates %v per run, want 1 (its result)", allocs)
	}
}

// TestPagesBackViewEntities verifies the paged-layout invariants: every
// shard's index and pages agree in shape, every block is full height,
// every point lookup is its row's lane of the page block (same backing
// array, factor j at j·8 past the row's first, in the row's 8-row group)
// holding the model's factors rounded to float32, the pad lanes of a
// partial last page are zero, and the counts add up — on a fresh build,
// on an incremental refresh that removes an entity, and on a refresh
// whose reshapes write into recycled spares a test has poisoned with NaN.
func TestPagesBackViewEntities(t *testing.T) {
	m := topkTestModel(t, 100)
	v := m.BuildView()
	rank := m.cfg.Rank
	check := func(v *PredictView, when string) {
		t.Helper()
		total := 0
		for si := range v.services.shards {
			sh := &v.services.shards[si]
			n := len(sh.idx.ids)
			if want := (n + viewPageRows - 1) / viewPageRows; len(sh.pages) != want {
				t.Fatalf("%s: shard %d holds %d rows in %d pages, want %d", when, si, n, len(sh.pages), want)
			}
			if n == 0 {
				continue
			}
			if err := shardIDsInvariant(sh.idx.ids, si); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			for pi, p := range sh.pages {
				if len(p.vecs) != viewPageRows*rank {
					t.Fatalf("%s: shard %d page %d block len %d, want %d", when, si, pi, len(p.vecs), viewPageRows*rank)
				}
			}
			for r, id := range sh.idx.ids {
				if at, ok := sh.idx.row(id); !ok || at != r {
					t.Fatalf("%s: shard %d looks service %d up at row %d (%v), holds it at row %d", when, si, id, at, ok, r)
				}
				pi, o := pageOf(r)
				p := sh.pages[pi]
				e, ok := v.services.get(id)
				if !ok {
					t.Fatalf("%s: indexed service %d not found by get", when, id)
				}
				first := o/8*8*rank + o%8
				if &e.lane[0] != &p.vecs[first] || len(e.lane) != (rank-1)*8+1 || e.meta != p.meta || e.o != o {
					t.Fatalf("%s: service %d is not the lane of its page row", when, id)
				}
				live, _ := m.services.Get(id)
				for j, x := range live.vec {
					if got := p.vecs[first+j*8]; got != float32(x) {
						t.Fatalf("%s: service %d factor %d: page holds %v, model %v", when, id, j, got, float32(x))
					}
				}
			}
			last := sh.pages[len(sh.pages)-1]
			for o := (n-1)%viewPageRows + 1; o < viewPageRows; o++ {
				for j := 0; j < rank; j++ {
					if x := last.vecs[o/8*8*rank+j*8+o%8]; math.Float32bits(x) != 0 {
						t.Fatalf("%s: shard %d pad row %d factor %d holds %v, want +0", when, si, o, j, x)
					}
				}
			}
			total += n
		}
		if total != v.services.count {
			t.Fatalf("%s: pages hold %d services, view %d", when, total, v.services.count)
		}
	}
	check(v, "fresh build")

	// Dirty a few services and one removal, then refresh: the touched
	// shards must re-establish the invariants; clean shards share both
	// index and pages with the previous view.
	m.Observe(stream.Sample{User: 0, Service: 3, Value: 2})
	m.RemoveService(7)
	v2 := m.RefreshView(v)
	check(v2, "after refresh")
	if v2.KnowsService(7) || v2.NumServices() != v.NumServices()-1 {
		t.Fatalf("removal not published: knows=%v count %d -> %d", v2.KnowsService(7), v.NumServices(), v2.NumServices())
	}
	for si := range v.services.shards {
		a, b := &v.services.shards[si], &v2.services.shards[si]
		shared := a.idx == b.idx && (len(a.pages) == 0 || &a.pages[0] == &b.pages[0])
		if touched := si == shardOf(3) || si == shardOf(7); shared == touched {
			t.Fatalf("shard %d: touched=%v but shared=%v", si, touched, shared)
		}
	}

	// Recycle what v2 replaced, poison every spare lane, and reshape two
	// shards into the spares: a newcomer joins shard 5 (rows 5 and 69) and
	// service 10 leaves shard 10 (rows 10 and 74).
	m.Recycle(v2, 0)
	spares := len(m.spare)
	if spares == 0 {
		t.Fatal("Recycle left no spare page")
	}
	for _, p := range m.spare {
		for i := range p.vecs {
			p.vecs[i] = float32(math.NaN())
		}
	}
	m.Observe(stream.Sample{User: 0, Service: 2*viewShardCount + 5, Value: 2})
	m.RemoveService(10)
	check(m.RefreshView(v2), "after a reshape into recycled spares")
	if len(m.spare) >= spares {
		t.Fatalf("the reshaping refresh left all %d spares unused", spares)
	}
}
