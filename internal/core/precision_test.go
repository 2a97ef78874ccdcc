package core

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/matrix"
	"github.com/qoslab/amf/internal/stream"
)

// The precision contract of a PredictView. A view serves from float32
// pages, the model trains in float64, and two kinds of claim follow:
//
//   - Everything whose reference is inside the view is exact: page scan,
//     candidate path and point reads agree bit for bit (select_test.go,
//     topk_test.go, view_cow_test.go), in every build — with the assembly
//     and without it (TestReadPathDigest) — and a view survives Snapshot
//     → Restore → BuildView unchanged (TestSnapshotRoundTripIdempotent).
//   - A view against the float64 model is bounded, not equal: values
//     within viewValueTol, and the same ranking wherever the model's own
//     keys are further apart than viewKeyTol (TestViewPrecision,
//     TestFloat32ArenaRankingParity, and the model-vs-view parity tests
//     through valueNear/rankedNearModel).
const (
	viewValueTol = 2e-6 // relative, per predicted value; measured worst 5.7e-7
	viewKeyTol   = 1e-5 // relative gap below which two model keys may swap in a view; measured key error 1.8e-7
)

// relDev is |got − want| relative to |want|.
func relDev(got, want float64) float64 {
	return math.Abs(got-want) / math.Max(math.Abs(want), 1e-12)
}

// valueNear holds a view-side value to the model's within viewValueTol.
func valueNear(t *testing.T, what string, got, want float64) {
	t.Helper()
	if relDev(got, want) > viewValueTol {
		t.Fatalf("%s: view %v, model %v (rel %.3g > %g)", what, got, want, relDev(got, want), viewValueTol)
	}
}

// rankedNearModel holds got, a view's ranking for user (or a prefix of
// one), to want, the model's full ranking of the same candidates. The
// model ranking is cut into runs of keys with neighbours closer than
// viewKeyTol. A run whose keys are all equal — a single service, or an
// exact tie, which both sides break by ascending id — must appear in the
// same order; inside any other run the view may order the services
// differently, but they must be the run's services. Every value must be
// within viewValueTol of the model's for the same service.
func rankedNearModel(t *testing.T, what string, m *Model, user int, got, want []Ranked) {
	t.Helper()
	if len(got) > len(want) {
		t.Fatalf("%s: view ranked %d, model %d", what, len(got), len(want))
	}
	u, ok := m.users.Get(user)
	if !ok {
		t.Fatalf("%s: model does not know user %d", what, user)
	}
	key := func(r Ranked) float64 {
		s, _ := m.services.Get(r.Service)
		return matrix.Dot(u.vec, s.vec)
	}
	for lo := 0; lo < len(got); {
		hi, tie := lo+1, true
		for ; hi < len(want); hi++ {
			a, b := key(want[hi-1]), key(want[hi])
			if math.Abs(a-b) > viewKeyTol*math.Max(math.Abs(a), math.Abs(b)) {
				break
			}
			tie = tie && a == b
		}
		run := map[int]float64{}
		for _, r := range want[lo:hi] {
			run[r.Service] = r.Value
		}
		for i := lo; i < min(hi, len(got)); i++ {
			value, inRun := run[got[i].Service]
			if !inRun || tie && got[i].Service != want[i].Service {
				t.Fatalf("%s[%d]: view ranks service %d, model %v at [%d,%d)", what, i, got[i].Service, want[lo:hi], lo, hi)
			}
			valueNear(t, what, got[i].Value, value)
		}
		lo = hi
	}
}

// restartedModel returns what a restart makes of the model behind v: v's
// snapshot restored, so every factor is a float32 value and the pool is
// empty.
func restartedModel(t testing.TB, v *PredictView) *Model {
	t.Helper()
	data, err := v.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	m, err := Restore(data)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	return m
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

// TestViewPrecision is the honest-precision gate: what serving from
// float32 pages costs against the float64 model it was frozen from, MRE
// measured for both against the seed dataset's ground-truth pair means.
//
// Measured on the seed dataset (30 users × 120 services × 8 slices,
// dataset.SmallConfig, AVX2 kernels): MRE(model) = 0.474108, |MRE delta|
// = 4.7e-9, worst per-pair relative deviation = 5.7e-7 — the rounding is
// invisible next to the model error. The bounds leave room for the
// kernel variants (SIMD, noasm, arm64 — each associates sums
// differently), not for a second rounding.
func TestViewPrecision(t *testing.T) {
	m, g := trainOnSeedDataset(t)
	v := m.BuildView()

	dc := g.Config()
	var sumModel, sumView, worstRel float64
	n := 0
	for u := 0; u < dc.Users; u++ {
		for s := 0; s < dc.Services; s++ {
			truth := g.PairMean(dataset.ResponseTime, u, s)
			if truth <= 0 {
				continue
			}
			pm, err := m.Predict(u, s)
			if err != nil {
				t.Fatalf("model predict(%d,%d): %v", u, s, err)
			}
			pv, err := v.Predict(u, s)
			if err != nil {
				t.Fatalf("view predict(%d,%d): %v", u, s, err)
			}
			sumModel += math.Abs(pm-truth) / truth
			sumView += math.Abs(pv-truth) / truth
			worstRel = math.Max(worstRel, relDev(pv, pm))
			n++
		}
	}
	mreModel, mreView := sumModel/float64(n), sumView/float64(n)
	delta := math.Abs(mreView - mreModel)
	t.Logf("pairs=%d MRE(model)=%.6f MRE(view)=%.6f |delta|=%.3g worst per-pair rel deviation=%.3g",
		n, mreModel, mreView, delta, worstRel)

	const mreDeltaBound = 1e-7
	if delta > mreDeltaBound {
		t.Fatalf("view MRE delta %g exceeds bound %g (model=%.6f view=%.6f)", delta, mreDeltaBound, mreModel, mreView)
	}
	if worstRel > viewValueTol {
		t.Fatalf("worst per-pair relative deviation %g exceeds bound %g", worstRel, viewValueTol)
	}
}

// TestSnapshotRoundTripIdempotent pins "what is durable is exactly what
// is served": a view's Snapshot restored and rebuilt is the same view,
// bit for bit on every read and on the snapshot bytes, and stays so
// through a second round trip — float32 widens to float64 exactly, so
// rounding it again changes nothing. What the trip does lose, once, is
// the training state below float32: every restored factor is
// float64(float32(x)) of the live one, nothing more.
func TestSnapshotRoundTripIdempotent(t *testing.T) {
	const n = 200
	m := topkTestModel(t, n)
	v := m.BuildView()
	data, err := v.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	restored, served := m, v
	for trip := 1; trip <= 2; trip++ {
		r := restartedModel(t, served)
		rv := r.BuildView()
		if rv.NumUsers() != v.NumUsers() || rv.NumServices() != v.NumServices() || rv.Updates() != v.Updates() {
			t.Fatalf("trip %d: restored %d/%d/%d, want %d/%d/%d", trip,
				rv.NumUsers(), rv.NumServices(), rv.Updates(), v.NumUsers(), v.NumServices(), v.Updates())
		}
		for user := 0; user < 2; user++ {
			for s := 0; s < n; s++ {
				got, gerr := rv.Predict(user, s)
				want, werr := v.Predict(user, s)
				if gerr != werr || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trip %d: Predict(%d,%d) = %v (%v), want %v (%v)", trip, user, s, got, gerr, want, werr)
				}
				gv, gc, _ := rv.PredictWithConfidence(user, s)
				wv, wc, _ := v.PredictWithConfidence(user, s)
				if math.Float64bits(gv) != math.Float64bits(wv) || math.Float64bits(gc) != math.Float64bits(wc) {
					t.Fatalf("trip %d: PredictWithConfidence(%d,%d) = %v/%v, want %v/%v", trip, user, s, gv, gc, wv, wc)
				}
			}
		}
		for user := 0; user < 2; user++ {
			for _, lower := range []bool{true, false} {
				sameRanked(t, "TopKAll", rv.TopKAll(user, 10, lower, 1), v.TopKAll(user, 10, lower, 1))
			}
		}
		if blob, err := rv.Snapshot(); err != nil || !bytes.Equal(blob, data) {
			t.Fatalf("trip %d: snapshot bytes differ from the original view's (err %v)", trip, err)
		}
		restored, served = r, rv
	}

	// The stated loss: each factor rounded to float32 once, trackers and
	// counts untouched.
	for _, side := range []struct{ live, back *entityTable }{{m.users, restored.users}, {m.services, restored.services}} {
		side.live.Each(func(id int, e *entity) {
			b, ok := side.back.Get(id)
			if !ok {
				t.Fatalf("entity %d lost in the round trip", id)
			}
			for j, x := range e.vec {
				if want := float64(float32(x)); math.Float64bits(b.vec[j]) != math.Float64bits(want) {
					t.Fatalf("entity %d factor %d: restored %v, want float32(%v) = %v", id, j, b.vec[j], x, want)
				}
			}
			if b.err.Value() != e.err.Value() || b.updates != e.updates {
				t.Fatalf("entity %d: restored err/updates %v/%d, want %v/%d", id, b.err.Value(), b.updates, e.err.Value(), e.updates)
			}
		})
	}
}

// TestFloat32ViewSnapshotRoundTrip is the model's side of the same trip:
// the model restored from a view's snapshot holds the view's float32
// factors and computes on them in float64, so it predicts what the view
// served to within the kernels' accumulation difference, knows the same
// entities, and remains trainable.
func TestFloat32ViewSnapshotRoundTrip(t *testing.T) {
	m := topkTestModel(t, 200)
	v := m.BuildView()
	r := restartedModel(t, v)
	if r.NumUsers() != m.NumUsers() || r.NumServices() != m.NumServices() || r.Updates() != m.Updates() {
		t.Fatalf("restored %d/%d/%d, want %d/%d/%d",
			r.NumUsers(), r.NumServices(), r.Updates(), m.NumUsers(), m.NumServices(), m.Updates())
	}
	for svc := 0; svc < 200; svc++ {
		served, err := v.Predict(0, svc)
		if err != nil {
			t.Fatalf("view predict: %v", err)
		}
		restored, err := r.Predict(0, svc)
		if err != nil {
			t.Fatalf("restored predict: %v", err)
		}
		valueNear(t, "view vs restored model", served, restored)
	}
	r.Observe(stream.Sample{User: 0, Service: 5, Value: 2}) // still trainable
}

// TestFloat32ArenaRankingParity is the ranking half of the precision
// contract at catalog scale (TestViewPrecision is the value half): the
// float32 page scan against the float64 model's ranking of all 1500
// services, both users, both directions — the whole ranking, and the
// top-10 prefix an adaptation query asks for — same order except inside
// runs of near-equal model keys, values within viewValueTol
// (rankedNearModel).
func TestFloat32ArenaRankingParity(t *testing.T) {
	const n = 1500
	m := topkTestModel(t, n)
	v := m.BuildView()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	for user := 0; user < 2; user++ {
		for _, lower := range []bool{true, false} {
			want, _ := m.RankServices(user, all, lower)
			for _, k := range []int{n, 10} {
				got := v.TopKAll(user, k, lower, 1)
				if len(got) != k {
					t.Fatalf("TopKAll(%d, %d) ranked %d", user, k, len(got))
				}
				rankedNearModel(t, "page scan vs model", m, user, got, want)
			}
		}
	}
}

// readPathDigest is what TestReadPathDigest folds a planted view's reads
// into, per GOARCH: the value transform (math.Exp, math.Pow) is the
// architecture's. Recorded on an amd64 host with AVX2 and FMA (math.Exp
// dispatches on FMA itself), with the AVX2 kernels and again under
// -tags noasm: one constant for both.
var readPathDigest = map[string]uint64{
	"amd64": 0x1cf0efc1d325c65f,
}

// TestReadPathDigest pins what a view serves independently of the
// kernels the build dispatches to: every view-side key is summed in
// matrix.DotPage32's association — each product rounded, then added —
// by the assembly, by the portable loop and by the point reads' lane
// loop alike, so a page scan's value is the batch prediction's to the
// bit, `go test` and `make test-noasm` must print the same digest of
// full-catalog rankings and batch predictions, and a kernel that fused a
// multiply into an add (an FMA) would change it. The factors are planted,
// not trained, so that nothing upstream of the view (the float64 SGD
// kernels, which do differ by build) enters it.
func TestReadPathDigest(t *testing.T) {
	want, ok := readPathDigest[runtime.GOARCH]
	if !ok {
		t.Skipf("no digest recorded for %s", runtime.GOARCH)
	}
	const users, services = 16, 1500
	m := MustNew(DefaultConfig(-0.007, 0, 20))
	rng := rand.New(rand.NewSource(27))
	plant := func(tab *entityTable, id int) {
		e := m.entity(tab, id)
		for j := range e.vec {
			e.vec[j] = rng.NormFloat64() / 2
		}
	}
	ids := make([]int, services+1)
	for u := 0; u < users; u++ {
		plant(m.users, u)
	}
	for s := 0; s < services; s++ {
		plant(m.services, s)
		ids[s] = s
	}
	ids[services] = 1 << 20 // unknown: NaN
	v := m.BuildView()

	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) { h.Write(binary.LittleEndian.AppendUint64(b[:0], x)) }
	dst := make([]float64, len(ids))
	for u := 0; u < users; u++ {
		if err := v.PredictBatch(u, ids, dst); err != nil {
			t.Fatal(err)
		}
		for _, x := range dst {
			put(math.Float64bits(x))
		}
		for _, lower := range []bool{true, false} {
			for _, r := range v.TopKAll(u, 10, lower, 1) {
				if math.Float64bits(r.Value) != math.Float64bits(dst[r.Service]) {
					t.Fatalf("user %d service %d: page scan %v, PredictBatch %v", u, r.Service, r.Value, dst[r.Service])
				}
				put(uint64(r.Service))
				put(math.Float64bits(r.Value))
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("%s: read-path digest %#x, recorded %#x", runtime.GOARCH, got, want)
	}
}
