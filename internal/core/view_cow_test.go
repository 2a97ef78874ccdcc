package core

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/stream"
)

// TestRefreshedViewEqualsFreshBuild is the copy-on-write layout's
// correctness property: after any seeded sequence of observes (known and
// new entities), removals and replay steps, with a RefreshView every few
// ops, the refreshed view answers every read exactly as a fresh BuildView
// of the same model does — on a model that has only ever trained ("f64":
// every factor a float64 for the page to round) and on one that went
// through a restart after its base population ("f32": restartedModel, so
// float32-valued factors, an empty pool and a new owner for RefreshView
// to notice, then trained on), and (make test-noasm) over the portable
// kernels.
func TestRefreshedViewEqualsFreshBuild(t *testing.T) {
	for _, mode := range []struct {
		name    string
		restart bool
	}{{"f64", false}, {"f32", true}} {
		t.Run(mode.name, func(t *testing.T) {
			checkRefreshEqualsBuild(t, 1, mode.restart)
		})
	}
}

func checkRefreshEqualsBuild(t *testing.T, seed int64, restart bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	cfg.Seed = seed
	m := MustNew(cfg)

	// IDs are confined to one user shard and two service shards so that
	// shards grow past one page and single-page refreshes, multi-page
	// refreshes and membership rebuilds all occur.
	userID := func(i int) int { return i*viewShardCount + 3 }
	serviceID := func(i int) int { return i/2*viewShardCount + i%2 }
	const maxUsers, maxServices = viewPageRows + 16, 3 * viewPageRows
	var users, services []int // slots currently (or once) registered
	observe := func(u, s int, at int) {
		m.Observe(stream.Sample{Time: time.Duration(at) * time.Millisecond, User: userID(u), Service: serviceID(s), Value: 0.05 + 12*rng.Float64()})
	}
	for i := 0; i < 5*maxServices/6; i++ { // a base population spanning several pages
		u := i % (maxUsers - 10)
		users, services = append(users, u), append(services, i)
		observe(u, i, i)
	}

	v := m.BuildView()
	if restart {
		m = restartedModel(t, v)
		v = m.RefreshView(v)
	}
	for op := 0; op < 300; op++ {
		switch k := rng.Intn(10); {
		case k < 4: // known pair
			observe(users[rng.Intn(len(users))], services[rng.Intn(len(services))], 1000+op)
		case k == 4: // new (or returning) user
			u := rng.Intn(maxUsers)
			users = append(users, u)
			observe(u, services[rng.Intn(len(services))], 1000+op)
		case k == 5: // new (or returning) service
			s := rng.Intn(maxServices)
			services = append(services, s)
			observe(users[rng.Intn(len(users))], s, 1000+op)
		case k == 6:
			m.RemoveUser(userID(users[rng.Intn(len(users))]))
		case k == 7:
			m.RemoveService(serviceID(services[rng.Intn(len(services))]))
		default:
			m.ReplayStep()
		}
		if rng.Intn(5) != 0 {
			continue
		}
		v = m.RefreshView(v)
		if u, s := dirtyCount(m); u != 0 || s != 0 {
			t.Fatalf("seed %d op %d: dirty %d/%d right after refresh", seed, op, u, s)
		}
		fresh := m.BuildView()
		if v.NumUsers() != fresh.NumUsers() || v.NumServices() != fresh.NumServices() ||
			v.NumUsers() != m.NumUsers() || v.NumServices() != m.NumServices() {
			t.Fatalf("seed %d op %d: refreshed %d/%d, fresh %d/%d, model %d/%d", seed, op,
				v.NumUsers(), v.NumServices(), fresh.NumUsers(), fresh.NumServices(), m.NumUsers(), m.NumServices())
		}
		for u := 0; u < maxUsers; u++ {
			uid := userID(u)
			for s := 0; s < maxServices; s++ {
				sid := serviceID(s)
				gv, gerr := v.Predict(uid, sid)
				wv, werr := fresh.Predict(uid, sid)
				if gerr != werr || math.Float64bits(gv) != math.Float64bits(wv) {
					t.Fatalf("seed %d op %d: Predict(%d,%d) refreshed %v (%v), fresh %v (%v)", seed, op, uid, sid, gv, gerr, wv, werr)
				}
				gv, gc, _ := v.PredictWithConfidence(uid, sid)
				wv, wc, _ := fresh.PredictWithConfidence(uid, sid)
				if math.Float64bits(gv) != math.Float64bits(wv) || math.Float64bits(gc) != math.Float64bits(wc) {
					t.Fatalf("seed %d op %d: confidence(%d,%d) refreshed %v/%v, fresh %v/%v", seed, op, uid, sid, gv, gc, wv, wc)
				}
			}
			lower := u%2 == 0
			if got, want := v.TopKAll(uid, 7, lower, 1), fresh.TopKAll(uid, 7, lower, 1); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d op %d: TopKAll(%d) refreshed %v, fresh %v", seed, op, uid, got, want)
			}
		}
		if got, want := v.HighErrorUsers(0.2), fresh.HighErrorUsers(0.2); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d op %d: HighErrorUsers refreshed %v, fresh %v", seed, op, got, want)
		}
		if got, want := v.HighErrorServices(0.2), fresh.HighErrorServices(0.2); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d op %d: HighErrorServices refreshed %v, fresh %v", seed, op, got, want)
		}
		got, err := v.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d op %d: Snapshot bytes differ between refreshed and fresh view", seed, op)
		}
	}
}

// TestRecycledRefreshMatchesFresh holds recycling to the copy-on-write
// contract: two models fed the same seeded ops — known and new pairs,
// removals, replay — refresh in lockstep, one handing every replaced page
// back with Recycle and one never. After every refresh the two views
// answer alike and snapshot to the same bytes, so a page written again
// carries nothing of its previous life into its next one, through
// copy-on-write and membership reshapes alike.
func TestRecycledRefreshMatchesFresh(t *testing.T) {
	cfg := DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	cfg.Seed = 3
	recycled, fresh := MustNew(cfg), MustNew(cfg)
	rng := rand.New(rand.NewSource(3))
	// One user shard and two service shards, several pages each, as in
	// checkRefreshEqualsBuild.
	userID := func(i int) int { return i*viewShardCount + 3 }
	serviceID := func(i int) int { return i/2*viewShardCount + i%2 }
	const maxUsers, maxServices = viewPageRows + 16, 3 * viewPageRows
	both := func(f func(m *Model)) { f(recycled); f(fresh) }
	for i := 0; i < 2*maxServices; i++ {
		s := stream.Sample{Time: time.Duration(i) * time.Millisecond, User: userID(rng.Intn(maxUsers)), Service: serviceID(rng.Intn(maxServices)), Value: 0.05 + 12*rng.Float64()}
		both(func(m *Model) { m.Observe(s) })
	}
	rv, fv := recycled.BuildView(), fresh.BuildView()
	reused := 0
	for op := 0; op < 600; op++ {
		switch k := rng.Intn(10); {
		case k < 6:
			s := stream.Sample{Time: time.Duration(1000+op) * time.Millisecond, User: userID(rng.Intn(maxUsers)), Service: serviceID(rng.Intn(maxServices)), Value: 0.05 + 12*rng.Float64()}
			both(func(m *Model) { m.Observe(s) })
		case k == 6:
			id := userID(rng.Intn(maxUsers))
			both(func(m *Model) { m.RemoveUser(id) })
		case k == 7:
			id := serviceID(rng.Intn(maxServices))
			both(func(m *Model) { m.RemoveService(id) })
		default:
			both(func(m *Model) { m.ReplayStep() })
		}
		if op%3 != 2 {
			continue
		}
		if len(recycled.spare)+recycled.twins > 0 {
			reused++
		}
		rv, fv = recycled.RefreshView(rv), fresh.RefreshView(fv)
		recycled.Recycle(rv, 0)
		got, err := rv.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want, err := fv.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("op %d: the recycled view's snapshot differs from the unrecycled one's", op)
		}
		for u := 0; u < maxUsers; u += 7 {
			lower := u%2 == 0
			if got, want := rv.TopKAll(userID(u), 7, lower, 1), fv.TopKAll(userID(u), 7, lower, 1); !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d: TopKAll(%d) recycled %v, unrecycled %v", op, userID(u), got, want)
			}
		}
	}
	if reused < 100 {
		t.Fatalf("only %d of 200 refreshes had a spare page or a twin to write into", reused)
	}
}

// TestHeldViewsNeverChange is the copy-on-write safety contract under
// concurrency: readers hold on to views while the writer applies 10k
// samples and republishes; whatever a held view answered when first seen
// it must answer for as long as anyone holds it. Run under -race, a write
// into a page still shared with a held view is reported as a race as
// well.
func TestHeldViewsNeverChange(t *testing.T) {
	const nUsers, nServices, held = 40, 400, 4
	cfg := DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	m := MustNew(cfg)
	rng := rand.New(rand.NewSource(7))
	serviceID := func(i int) int { return i/4*viewShardCount + i%4 } // four shards, several pages each
	sample := func(i int) stream.Sample {
		return stream.Sample{Time: time.Duration(i) * time.Millisecond, User: rng.Intn(nUsers), Service: serviceID(rng.Intn(nServices)), Value: 0.05 + 12*rng.Float64()}
	}
	for i := 0; i < 3*nServices; i++ {
		m.Observe(sample(i))
	}

	// digest folds a view's answers into one number: full-catalog top-10s
	// and a row of point predictions for a few users.
	digest := func(v *PredictView) uint64 {
		h := fnv.New64a()
		var b [8]byte
		put := func(x uint64) { h.Write(binary.LittleEndian.AppendUint64(b[:0], x)) }
		for u := 0; u < nUsers; u += 13 {
			for _, r := range v.TopKAll(u, 10, u%2 == 0, 1) {
				put(uint64(r.Service))
				put(math.Float64bits(r.Value))
			}
			for s := 0; s < nServices; s++ {
				p, _ := v.Predict(u, serviceID(s))
				put(math.Float64bits(p))
			}
		}
		return h.Sum64()
	}

	var current atomic.Pointer[PredictView]
	current.Store(m.BuildView())
	done := make(chan struct{})
	picked := make(chan struct{}, 1) // a reader has taken up the latest view
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			type heldView struct {
				v    *PredictView
				want uint64
			}
			var views []heldView
			for stop := false; !stop; {
				select {
				case <-done:
					stop = true // one last pass over everything held
				default:
				}
				if v := current.Load(); len(views) == 0 || views[len(views)-1].v != v {
					if len(views) == held {
						views = views[1:]
					}
					select {
					case picked <- struct{}{}:
					default:
					}
					views = append(views, heldView{v, digest(v)})
				}
				for i, hv := range views {
					if got := digest(hv.v); got != hv.want {
						t.Errorf("view %d changed while held: digest %x, was %x", hv.v.Version(), got, hv.want)
						views[i].want = got // report each change once
					}
				}
				runtime.Gosched() // spinning readers must not starve the writer of a P
			}
		}()
	}
	v := current.Load()
	for i := 0; i < 10000; i++ {
		m.Observe(sample(3*nServices + i))
		if i%5 == 0 {
			m.ReplayStep()
		}
		if i%50 == 49 {
			v = m.RefreshView(v)
			current.Store(v)
			<-picked // keep the writer from outrunning the readers
		}
	}
	close(done)
	wg.Wait()
}
