package core

import (
	"math"
	"testing"

	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/stream"
)

// Float32 arena mode (ISSUE 8): the view-side precision trade is only
// acceptable because it is measured, not assumed — these tests pin (a)
// exact internal consistency of every f32 ranking path against each
// other, and (b) the honest accuracy cost of the rounding against the
// float64 views on the seed dataset.

// f32TestView builds a float32-arena view over topkTestModel's catalog.
func f32TestView(t testing.TB, n int) (*Model, *PredictView) {
	t.Helper()
	m := topkTestModel(t, n)
	m.SetArenaFloat32(true)
	v := m.BuildView()
	if !v.ArenaFloat32() {
		t.Fatal("view did not record f32 arena mode")
	}
	return m, v
}

// TestFloat32ArenaRankingParity is TestTopKAllMatchesExplicitCandidates
// and TestViewBestMatchesTopK run in f32 mode: the candidate path
// (Dot32 per service), the arena scan (DotBatch32), and Best must agree
// element for element — the same bit-identity contract the f64 paths
// rely on, now through the float32 kernels.
func TestFloat32ArenaRankingParity(t *testing.T) {
	const n = 1500
	_, v := f32TestView(t, n)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	for _, lower := range []bool{true, false} {
		for _, k := range []int{1, 10, n} {
			want, _ := v.TopK(0, all, k, lower)
			for _, w := range []int{1, 4} {
				got := v.TopKAll(0, k, lower, w)
				rankedEqual(t, "f32 TopKAll", got, want)
			}
		}
		best, ok := v.Best(0, all, lower)
		if !ok {
			t.Fatal("Best found nothing")
		}
		head, _ := v.TopK(0, all, 1, lower)
		rankedEqual(t, "f32 Best vs TopK head", []Ranked{best}, head)
	}
}

// TestFloat32RefreshKeepsMode drives the incremental republish path in
// f32 mode: after more observes, RefreshView must produce an f32 view
// whose page scans still agree exactly with its candidate path (the
// copy-on-write f32 path), and flipping the mode must force a full
// rebuild in the new precision.
func TestFloat32RefreshKeepsMode(t *testing.T) {
	m, v1 := f32TestView(t, 300)
	for s := 0; s < 40; s++ {
		m.Observe(stream.Sample{User: 0, Service: s, Value: 3})
	}
	v2 := m.RefreshView(v1)
	if !v2.ArenaFloat32() {
		t.Fatal("refresh dropped f32 mode")
	}
	if v2.Version() != v1.Version()+1 {
		t.Fatalf("version %d after %d", v2.Version(), v1.Version())
	}
	all := make([]int, 300)
	for i := range all {
		all[i] = i
	}
	want, _ := v2.TopK(0, all, 20, true)
	rankedEqual(t, "refreshed f32 TopKAll", v2.TopKAll(0, 20, true, 1), want)

	// Mode flip back to f64: refresh must fall back to a full rebuild.
	m.SetArenaFloat32(false)
	v3 := m.RefreshView(v2)
	if v3.ArenaFloat32() {
		t.Fatal("mode flip did not take")
	}
	if v3.Version() != v2.Version()+1 {
		t.Fatalf("version %d after %d", v3.Version(), v2.Version())
	}
	// The f64 view predicts from unrounded factors; it must agree with
	// the f32 view only within the rounding envelope, and exactly with
	// the model.
	for _, svc := range []int{0, 7, 123, 299} {
		mp, err := m.Predict(0, svc)
		if err != nil {
			t.Fatalf("model predict: %v", err)
		}
		vp, err := v3.Predict(0, svc)
		if err != nil {
			t.Fatalf("view predict: %v", err)
		}
		if vp != mp {
			t.Fatalf("service %d: f64 view %v != model %v", svc, vp, mp)
		}
	}
}

// TestTopKAllBatchMatchesSerial pins the coalesced scan's contract in
// both precisions: TopKAllBatch over a mixed batch — different users,
// k's, directions, duplicates, an unknown user, k <= 0, k > catalog —
// returns, per query, exactly what the serial TopKAll returns.
func TestTopKAllBatchMatchesSerial(t *testing.T) {
	for _, mode := range []struct {
		name string
		f32  bool
	}{{"f64", false}, {"f32", true}} {
		t.Run(mode.name, func(t *testing.T) {
			const n = 1500
			m := topkTestModel(t, n)
			m.SetArenaFloat32(mode.f32)
			v := m.BuildView()
			queries := []RankQuery{
				{User: 0, K: 10, LowerIsBetter: true},
				{User: 1, K: 3, LowerIsBetter: false},
				{User: 0, K: n + 50, LowerIsBetter: false}, // clamps to catalog
				{User: 777, K: 5, LowerIsBetter: true},     // unknown user
				{User: 0, K: 0, LowerIsBetter: true},       // no-op query
				{User: 0, K: 10, LowerIsBetter: true},      // duplicate of query 0
				{User: 1, K: 1, LowerIsBetter: true},
			}
			got := v.TopKAllBatch(queries)
			if len(got) != len(queries) {
				t.Fatalf("got %d results for %d queries", len(got), len(queries))
			}
			for qi, q := range queries {
				want := v.TopKAll(q.User, q.K, q.LowerIsBetter, 1)
				if want == nil {
					if got[qi] != nil {
						t.Fatalf("query %d: got %v, want nil", qi, got[qi])
					}
					continue
				}
				rankedEqual(t, "TopKAllBatch", got[qi], want)
			}
			// Degenerate shapes.
			if out := v.TopKAllBatch(nil); len(out) != 0 {
				t.Fatalf("nil queries: %v", out)
			}
			single := v.TopKAllBatch([]RankQuery{{User: 0, K: 7, LowerIsBetter: true}})
			rankedEqual(t, "single-query batch", single[0], v.TopKAll(0, 7, true, 1))
		})
	}
}

// trainOnSeedDataset observes every (user, service) pair of the seed
// dataset across all slices, returning the generator for ground truth.
func trainOnSeedDataset(t testing.TB) (*Model, *dataset.Generator) {
	t.Helper()
	g := dataset.MustNew(dataset.SmallConfig())
	cfg := DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	m := MustNew(cfg)
	dc := g.Config()
	for slice := 0; slice < dc.Slices; slice++ {
		at := g.SliceTime(slice)
		for u := 0; u < dc.Users; u++ {
			for s := 0; s < dc.Services; s++ {
				m.Observe(stream.Sample{
					Time:    at,
					User:    u,
					Service: s,
					Value:   g.Value(dataset.ResponseTime, u, s, slice),
				})
			}
		}
	}
	return m, g
}

// TestFloat32ArenaPrecision is the honest-precision gate: the same
// trained model published as a float64 view and as a float32 view,
// MRE measured for both against the seed dataset's ground-truth pair
// means, and the float32 penalty asserted within a stated bound.
//
// Measured on the seed dataset (30 users × 120 services × 8 slices,
// dataset.SmallConfig, AVX2 kernels): MRE(f64) = 0.474108, |MRE delta|
// = 4.7e-9, worst per-pair relative deviation = 5.7e-7 — the rounding
// is invisible next to the model error, which is the point of shipping
// f32 arenas as a bandwidth optimization. The asserted bounds leave
// >100× headroom so the test stays honest without being flaky across
// kernel variants (SIMD, noasm, arm64 — each associates sums
// differently).
func TestFloat32ArenaPrecision(t *testing.T) {
	m, g := trainOnSeedDataset(t)
	v64 := m.BuildView()
	m.SetArenaFloat32(true)
	v32 := m.RefreshView(v64) // mode flip forces a full rebuild in f32
	if v64.ArenaFloat32() || !v32.ArenaFloat32() {
		t.Fatal("view precision modes wrong")
	}

	dc := g.Config()
	var sum64, sum32 float64
	var worstRel float64 // worst per-pair relative deviation f32 vs f64
	n := 0
	for u := 0; u < dc.Users; u++ {
		for s := 0; s < dc.Services; s++ {
			truth := g.PairMean(dataset.ResponseTime, u, s)
			if truth <= 0 {
				continue
			}
			p64, err := v64.Predict(u, s)
			if err != nil {
				t.Fatalf("predict64(%d,%d): %v", u, s, err)
			}
			p32, err := v32.Predict(u, s)
			if err != nil {
				t.Fatalf("predict32(%d,%d): %v", u, s, err)
			}
			sum64 += math.Abs(p64-truth) / truth
			sum32 += math.Abs(p32-truth) / truth
			if rel := math.Abs(p32-p64) / math.Max(math.Abs(p64), 1e-12); rel > worstRel {
				worstRel = rel
			}
			n++
		}
	}
	mre64 := sum64 / float64(n)
	mre32 := sum32 / float64(n)
	delta := math.Abs(mre32 - mre64)
	t.Logf("pairs=%d MRE(f64)=%.6f MRE(f32)=%.6f |delta|=%.3g worst per-pair rel deviation=%.3g",
		n, mre64, mre32, delta, worstRel)

	const mreDeltaBound = 1e-4 // measured 4.7e-9; see comment above
	if delta > mreDeltaBound {
		t.Fatalf("f32 arena MRE delta %g exceeds bound %g (f64=%.6f f32=%.6f)", delta, mreDeltaBound, mre64, mre32)
	}
	const pairRelBound = 1e-3 // measured worst 5.7e-7
	if worstRel > pairRelBound {
		t.Fatalf("worst per-pair relative deviation %g exceeds bound %g", worstRel, pairRelBound)
	}
}

// TestFloat32ViewSnapshotRoundTrip: snapshots of an f32 view widen the
// rounded factors back to float64 exactly, so a Restore must reproduce
// the f32 view's predictions to within kernel reassociation (the
// restored model computes in f64 over the same rounded factors) and
// remain trainable.
func TestFloat32ViewSnapshotRoundTrip(t *testing.T) {
	m, v := f32TestView(t, 200)
	data, err := v.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	r, err := Restore(data)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if r.NumUsers() != m.NumUsers() || r.NumServices() != m.NumServices() {
		t.Fatalf("restored %d/%d entities, want %d/%d", r.NumUsers(), r.NumServices(), m.NumUsers(), m.NumServices())
	}
	for _, svc := range []int{0, 13, 99, 199} {
		want, err := v.Predict(0, svc)
		if err != nil {
			t.Fatalf("view predict: %v", err)
		}
		got, err := r.Predict(0, svc)
		if err != nil {
			t.Fatalf("restored predict: %v", err)
		}
		// Same rounded factors, different accumulation precision: the
		// difference is bounded by f32 reassociation at rank 10.
		if rel := math.Abs(got-want) / math.Max(math.Abs(want), 1e-12); rel > 1e-5 {
			t.Fatalf("service %d: restored %v vs f32 view %v (rel %g)", svc, got, want, rel)
		}
	}
	r.Observe(stream.Sample{User: 0, Service: 5, Value: 2}) // still trainable
}
