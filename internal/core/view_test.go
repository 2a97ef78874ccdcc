package core

import (
	"testing"
	"time"

	"github.com/qoslab/amf/internal/stream"
)

func viewTestModel(t *testing.T) *Model {
	t.Helper()
	cfg := DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	m := MustNew(cfg)
	for u := 0; u < 10; u++ {
		for s := 0; s < 20; s++ {
			if (u+s)%3 == 0 {
				m.Observe(stream.Sample{Time: time.Duration(u+s) * time.Second, User: u, Service: s, Value: 0.5 + float64((u*s)%7)})
			}
		}
	}
	return m
}

func TestBuildViewMatchesModel(t *testing.T) {
	m := viewTestModel(t)
	v := m.BuildView()
	if v.NumUsers() != m.NumUsers() || v.NumServices() != m.NumServices() {
		t.Fatalf("view sizes %d/%d, model %d/%d", v.NumUsers(), v.NumServices(), m.NumUsers(), m.NumServices())
	}
	if v.Updates() != m.Updates() {
		t.Fatalf("view updates %d, model %d", v.Updates(), m.Updates())
	}
	for u := 0; u < 10; u++ {
		for s := 0; s < 20; s++ {
			mv, merr := m.Predict(u, s)
			vv, verr := v.Predict(u, s)
			if (merr == nil) != (verr == nil) {
				t.Fatalf("(%d,%d): model err %v, view err %v", u, s, merr, verr)
			}
			if merr == nil {
				valueNear(t, "Predict", vv, mv)
			}
		}
	}
	// Confidence agrees too — exactly: the error trackers are not rounded.
	mv, mc, _ := m.PredictWithConfidence(0, 0)
	vv, vc, _ := v.PredictWithConfidence(0, 0)
	valueNear(t, "PredictWithConfidence", vv, mv)
	if mc != vc {
		t.Fatalf("confidence: model %g, view %g", mc, vc)
	}
}

func TestViewIsImmutableUnderUpdates(t *testing.T) {
	m := viewTestModel(t)
	v := m.BuildView()
	before, err := v.Predict(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Hammer the model; the already-built view must not move.
	for i := 0; i < 500; i++ {
		m.Observe(stream.Sample{User: 0, Service: 0, Value: 9.5})
	}
	after, err := v.Predict(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("published view changed under model updates: %g -> %g", before, after)
	}
}

func TestRefreshViewIncremental(t *testing.T) {
	m := viewTestModel(t)
	v1 := m.BuildView()
	// Touch exactly one (user, service) pair.
	m.Observe(stream.Sample{User: 1, Service: 2, Value: 3.3})
	v2 := m.RefreshView(v1)
	if v2.Version() != v1.Version()+1 {
		t.Fatalf("version %d after %d", v2.Version(), v1.Version())
	}
	// The refreshed view reflects the new state.
	want, _ := m.Predict(1, 2)
	got, _ := v2.Predict(1, 2)
	valueNear(t, "refreshed view", got, want)
	// And the old view still serves the old state.
	old, _ := v1.Predict(1, 2)
	if old == got {
		t.Fatalf("previous view mutated by refresh")
	}
	// Sharing contract: membership did not change, so every index is
	// shared, and exactly the one page holding user 1 and the one holding
	// service 2 were copied.
	if n := diffPages(t, &v1.users, &v2.users, -1); n != 1 {
		t.Fatalf("%d user pages copied for one touched user, want 1", n)
	}
	if n := diffPages(t, &v1.services, &v2.services, -1); n != 1 {
		t.Fatalf("%d service pages copied for one touched service, want 1", n)
	}
	if r, ok := v2.users.shards[shardOf(1)].idx.row(1); !ok || v1.users.shards[shardOf(1)].pages[r/viewPageRows].meta == v2.users.shards[shardOf(1)].pages[r/viewPageRows].meta {
		t.Fatal("the page holding the touched user was shared")
	}

	// A new entity changes membership: only its shard's index differs.
	const newcomer = 1000 + 5 // shard 45: no test user lives there
	m.Observe(stream.Sample{User: newcomer, Service: 2, Value: 1.1})
	v3 := m.RefreshView(v2)
	if !v3.KnowsUser(newcomer) || v3.NumUsers() != v2.NumUsers()+1 {
		t.Fatalf("newcomer not published: knows=%v users %d -> %d", v3.KnowsUser(newcomer), v2.NumUsers(), v3.NumUsers())
	}
	diffPages(t, &v2.users, &v3.users, shardOf(newcomer))
	if n := diffPages(t, &v2.services, &v3.services, -1); n != 1 {
		t.Fatalf("%d service pages copied for one touched service, want 1", n)
	}
}

// diffPages checks the index-sharing contract between a view's table and
// its successor's — every shard's index is shared by pointer except shard
// rebuilt (-1: none), whose index must differ — and returns the number of
// pages of the index-sharing shards that differ by pointer.
func diffPages(t *testing.T, prev, next *viewTable, rebuilt int) int {
	t.Helper()
	copied := 0
	for si := range prev.shards {
		a, b := &prev.shards[si], &next.shards[si]
		if si == rebuilt {
			if a.idx == b.idx {
				t.Fatalf("shard %d changed membership but shares its index", si)
			}
			continue
		}
		if a.idx != b.idx {
			t.Fatalf("shard %d kept its membership but its index was rebuilt", si)
		}
		for pi := range a.pages {
			if shared := a.pages[pi].meta == b.pages[pi].meta; !shared {
				copied++
			} else if &a.pages[pi].vecs[0] != &b.pages[pi].vecs[0] {
				t.Fatalf("shard %d page %d shares its meta but not its block", si, pi)
			}
		}
	}
	return copied
}

func TestRefreshViewRemoval(t *testing.T) {
	m := viewTestModel(t)
	v1 := m.BuildView()
	if !v1.KnowsUser(3) {
		t.Fatal("user 3 missing from view")
	}
	m.RemoveUser(3)
	m.RemoveService(6)
	v2 := m.RefreshView(v1)
	if v2.KnowsUser(3) || v2.KnowsService(6) {
		t.Fatal("removed entities still in refreshed view")
	}
	if v2.NumUsers() != m.NumUsers() || v2.NumServices() != m.NumServices() {
		t.Fatalf("counts %d/%d after removal, model %d/%d", v2.NumUsers(), v2.NumServices(), m.NumUsers(), m.NumServices())
	}
	if !v1.KnowsUser(3) {
		t.Fatal("removal leaked into previous view")
	}
}

func TestRefreshViewAfterModelSwapRebuilds(t *testing.T) {
	m1 := viewTestModel(t)
	v1 := m1.BuildView()
	data, err := m1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	v2 := m2.RefreshView(v1) // prev belongs to m1: full rebuild expected
	if v2.Version() != v1.Version()+1 {
		t.Fatalf("version not continued across model swap: %d after %d", v2.Version(), v1.Version())
	}
	want, _ := m2.Predict(1, 2)
	got, _ := v2.Predict(1, 2)
	valueNear(t, "rebuilt view", got, want)
}

func TestViewSnapshotRestoresIdentically(t *testing.T) {
	m := viewTestModel(t)
	v := m.BuildView()
	data, err := v.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumUsers() != m.NumUsers() || r.NumServices() != m.NumServices() || r.Updates() != m.Updates() {
		t.Fatalf("restored %d/%d/%d, want %d/%d/%d",
			r.NumUsers(), r.NumServices(), r.Updates(), m.NumUsers(), m.NumServices(), m.Updates())
	}
	for u := 0; u < 10; u++ {
		for s := 0; s < 20; s++ {
			mv, merr := m.Predict(u, s)
			rv, rerr := r.Predict(u, s)
			if (merr == nil) != (rerr == nil) {
				t.Fatalf("(%d,%d): restored %g (%v), want %g (%v)", u, s, rv, rerr, mv, merr)
			}
			// The view's snapshot carries float32-rounded factors.
			valueNear(t, "restored from view", rv, mv)
		}
	}
}

func TestViewRankMatchesModel(t *testing.T) {
	m := viewTestModel(t)
	v := m.BuildView()
	candidates := []int{0, 3, 6, 9, 12, 999}
	mr, mu := m.RankServices(4, candidates, true)
	vr, vu := v.TopK(4, candidates, len(candidates), true)
	if len(mr) != len(vr) || len(mu) != len(vu) {
		t.Fatalf("rank sizes differ: model %d/%d, view %d/%d", len(mr), len(mu), len(vr), len(vu))
	}
	rankedNearModel(t, "rank", m, 4, vr, mr)
	// Unknown user: every candidate is unknown.
	if r, u := v.TopK(12345, candidates, len(candidates), true); len(r) != 0 || len(u) != len(candidates) {
		t.Fatalf("unknown user rank: %v / %v", r, u)
	}
}

// dirtyCount returns the number of users and services listed as touched
// since the last BuildView/RefreshView (0, 0 when tracking is off).
func dirtyCount(m *Model) (users, services int) {
	if m.dirtyUsers == nil {
		return 0, 0
	}
	for i := range viewShardCount {
		users += len(m.dirtyUsers.shards[i])
		services += len(m.dirtyServices.shards[i])
	}
	return users, services
}

func TestDirtyCount(t *testing.T) {
	m := viewTestModel(t)
	if u, s := dirtyCount(m); u != 0 || s != 0 {
		t.Fatalf("dirty before tracking: %d/%d", u, s)
	}
	m.BuildView()
	if u, s := dirtyCount(m); u != 0 || s != 0 {
		t.Fatalf("dirty right after build: %d/%d", u, s)
	}
	m.Observe(stream.Sample{User: 1, Service: 2, Value: 1})
	m.Observe(stream.Sample{User: 1, Service: 3, Value: 1})
	if u, s := dirtyCount(m); u != 1 || s != 2 {
		t.Fatalf("dirty after 2 observes: %d/%d, want 1/2", u, s)
	}
}
