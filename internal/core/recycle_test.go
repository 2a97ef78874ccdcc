package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/stream"
)

// recycleRig drives two models through the same ops. One recycles what
// every publish replaced the way the engine does — retired publishes in
// publish order, the walk stopping at a view a reader holds, nothing born
// at or before the escape watermark — and the other never recycles. Its
// checks are the copy-on-write contract under recycling: after every
// refresh the two current views answer alike and snapshot to the same
// bytes, a view that escaped or is held never changes, and no spare page,
// twin or spare page slice is memory such a view can reach.
type recycleRig struct {
	t          testing.TB
	rec, fresh *Model
	rv, fv     *PredictView
	retired    []retiredPair
	escaped    uint64
	held       []*PredictView
	kept       []keptView // escaped and held views, as first snapshotted
	users      []int      // slots observed at least once
	services   []int
	at         time.Duration
	twinsUsed  int // twins the recycling model's refreshes wrote into
}

type retiredPair struct{ prev, next *PredictView }

type keptView struct {
	v    *PredictView
	snap []byte
}

// The rig's ids, as in checkRefreshEqualsBuild: one user shard and two
// service shards, several pages each, so that single-page copies,
// multi-page copies and reshapes all occur.
const rigUsers, rigServices = viewPageRows + 16, 3 * viewPageRows

func rigUserID(i int) int    { return i*viewShardCount + 3 }
func rigServiceID(i int) int { return i/2*viewShardCount + i%2 }

func newRecycleRig(t testing.TB, seed int64) *recycleRig {
	cfg := DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	cfg.Seed = seed
	g := &recycleRig{t: t, rec: MustNew(cfg), fresh: MustNew(cfg)}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 2*rigServices; i++ {
		g.observe(rng.Intn(rigUsers), rng.Intn(rigServices), 0.05+12*rng.Float64())
	}
	g.rv, g.fv = g.rec.BuildView(), g.fresh.BuildView()
	return g
}

func (g *recycleRig) both(f func(m *Model)) { f(g.rec); f(g.fresh) }

func (g *recycleRig) observe(u, s int, value float64) {
	g.at += time.Millisecond
	smp := stream.Sample{Time: g.at, User: rigUserID(u), Service: rigServiceID(s), Value: value}
	g.both(func(m *Model) { m.Observe(smp) })
	g.users, g.services = append(g.users, u), append(g.services, s)
}

func (g *recycleRig) removeUser(u int) {
	g.both(func(m *Model) { m.RemoveUser(rigUserID(u)) })
}

func (g *recycleRig) removeService(s int) {
	g.both(func(m *Model) { m.RemoveService(rigServiceID(s)) })
}

func (g *recycleRig) replay() { g.both(func(m *Model) { m.ReplayStep() }) }

// refresh publishes on both models, queues the recycling model's publish
// for recycle, and checks the contract.
func (g *recycleRig) refresh() {
	g.t.Helper()
	prev, twins := g.rv, g.rec.twins
	g.rv, g.fv = g.rec.RefreshView(g.rv), g.fresh.RefreshView(g.fv)
	g.twinsUsed += max(0, twins-g.rec.twins)
	g.retired = append(g.retired, retiredPair{prev, g.rv})
	g.check()
}

// escape raises the watermark to the current view, as Engine.View does,
// and keeps the view.
func (g *recycleRig) escape() {
	g.escaped = g.rv.version
	g.keep(g.rv)
}

// hold pins the current view until release.
func (g *recycleRig) hold() {
	g.held = append(g.held, g.rv)
	g.keep(g.rv)
}

// release unpins the oldest held view; it stays kept if it escaped.
func (g *recycleRig) release() {
	if len(g.held) == 0 {
		return
	}
	v := g.held[0]
	g.held = g.held[1:]
	if v.version > g.escaped && !slices.Contains(g.held, v) {
		g.kept = slices.DeleteFunc(g.kept, func(k keptView) bool { return k.v == v })
	}
}

func (g *recycleRig) keep(v *PredictView) {
	g.kept = append(g.kept, keptView{v, g.snapshot(v)})
}

// recycle walks the retired publishes as the engine's recycleLocked does.
func (g *recycleRig) recycle() {
	g.t.Helper()
	n := 0
	for _, r := range g.retired {
		if slices.Contains(g.held, r.prev) {
			break
		}
		before := len(g.rec.spare) + g.rec.twins
		limit := r.next.users.pageCount() + r.next.services.pageCount()
		g.rec.Recycle(r.next, g.escaped)
		if after := len(g.rec.spare) + g.rec.twins; after > max(before, limit) {
			g.t.Fatalf("Recycle of view %d raised spares + twins %d → %d, past its %d pages", r.next.version, before, after, limit)
		}
		n++
	}
	g.retired = g.retired[n:]
	g.checkReach()
}

func (g *recycleRig) snapshot(v *PredictView) []byte {
	g.t.Helper()
	b, err := v.Snapshot()
	if err != nil {
		g.t.Fatal(err)
	}
	return b
}

func (g *recycleRig) check() {
	g.t.Helper()
	if !bytes.Equal(g.snapshot(g.rv), g.snapshot(g.fv)) {
		g.t.Fatalf("view %d: the recycled view's snapshot differs from the unrecycled one's", g.rv.version)
	}
	for u := 0; u < rigUsers; u += 7 {
		lower := u%2 == 0
		if got, want := g.rv.TopKAll(rigUserID(u), 7, lower, 1), g.fv.TopKAll(rigUserID(u), 7, lower, 1); !reflect.DeepEqual(got, want) {
			g.t.Fatalf("view %d: TopKAll(%d) recycled %v, unrecycled %v", g.rv.version, rigUserID(u), got, want)
		}
	}
	for _, k := range g.kept {
		if !bytes.Equal(g.snapshot(k.v), k.snap) {
			g.t.Fatalf("view %d changed while escaped or held (now at view %d)", k.v.version, g.rv.version)
		}
	}
	g.checkReach()
}

// eachPage calls f for every page of v.
func eachPage(v *PredictView, f func(p viewPage)) {
	for _, t := range []*viewTable{&v.users, &v.services} {
		for si := range t.shards {
			for _, p := range t.shards[si].pages {
				f(p)
			}
		}
	}
}

// checkReach holds the recycling model's spares, twins and spare page
// slices apart from everything a kept view can reach, and its twin count
// to the twins the pages that can still hold one do hold: those of the
// current view and of the views whose publish is not recycled yet.
func (g *recycleRig) checkReach() {
	g.t.Helper()
	metas, blocks, arrays := map[*pageMeta]bool{}, map[*float32]bool{}, map[*viewPage]bool{}
	for _, k := range g.kept {
		eachPage(k.v, func(p viewPage) { metas[p.meta], blocks[&p.vecs[0]] = true, true })
		for _, t := range []*viewTable{&k.v.users, &k.v.services} {
			for si := range t.shards {
				if pages := t.shards[si].pages; cap(pages) > 0 {
					arrays[&pages[:1][0]] = true
				}
			}
		}
	}
	reachable := func(p viewPage) bool { return metas[p.meta] || blocks[&p.vecs[0]] }
	for _, p := range g.rec.spare {
		if reachable(p) {
			g.t.Fatalf("view %d: a spare page is reachable from an escaped or held view", g.rv.version)
		}
	}
	for side := range g.rec.spareSlices {
		for si, s := range g.rec.spareSlices[side] {
			if cap(s) > 0 && arrays[&s[:1][0]] {
				g.t.Fatalf("view %d: the spare page slice of table %d shard %d is reachable from an escaped or held view", g.rv.version, side, si)
			}
		}
	}
	holders := map[*pageMeta]bool{}
	twins := 0
	visit := func(p viewPage) {
		if holders[p.meta] {
			return
		}
		holders[p.meta] = true
		if t := p.meta.twin; t.meta != nil {
			twins++
			if reachable(t) {
				g.t.Fatalf("view %d: a twin is reachable from an escaped or held view", g.rv.version)
			}
		}
	}
	eachPage(g.rv, visit)
	for _, r := range g.retired {
		eachPage(r.prev, visit)
	}
	if twins != g.rec.twins {
		g.t.Fatalf("view %d: %d pages hold a twin, the model counts %d", g.rv.version, twins, g.rec.twins)
	}
}

// TestRecycledRefreshKeepsHeldViews is TestRecycledRefreshMatchesFresh
// with the readers the engine serves: every 7th view escapes (Recycle is
// called with a nonzero watermark from then on) and three views are held
// pinned across 40 later refreshes each. Every escaped or held view must
// snapshot to the same bytes for as long as it is kept, and no spare,
// twin or spare page slice may ever be memory such a view can reach.
func TestRecycledRefreshKeepsHeldViews(t *testing.T) {
	g := newRecycleRig(t, 4)
	rng := rand.New(rand.NewSource(4))
	holds := map[int]int{5: 45, 30: 70, 90: 130} // refresh held at → released at
	refreshes := 0
	for op := 0; op < 600; op++ {
		switch k := rng.Intn(10); {
		case k < 6:
			g.observe(rng.Intn(rigUsers), rng.Intn(rigServices), 0.05+12*rng.Float64())
		case k == 6:
			g.removeUser(rng.Intn(rigUsers))
		case k == 7:
			g.removeService(rng.Intn(rigServices))
		default:
			g.replay()
		}
		if op%3 != 2 {
			continue
		}
		g.recycle() // at the start of a publish, as the engine does
		g.refresh()
		refreshes++
		if refreshes%7 == 0 {
			g.escape()
		}
		for at, until := range holds {
			if refreshes == until {
				g.release()
			}
			if refreshes == at {
				g.hold()
			}
		}
	}
	if g.twinsUsed < 30 {
		t.Fatalf("only %d copies went into a twin", g.twinsUsed)
	}
	t.Logf("%d refreshes, %d copies into a twin, %d views kept at the end", refreshes, g.twinsUsed, len(g.kept))
}

// FuzzRecycledRefresh runs fuzzer-chosen scripts through recycleRig: each
// byte picks an op — observe a known or a new pair, remove a user or a
// service, replay, refresh, recycle (escaping the current view first on
// an odd argument), hold or release a view — and takes what it needs
// from the bytes after it. The rig checks after every refresh.
func FuzzRecycledRefresh(f *testing.F) {
	f.Add([]byte{0, 1, 2, 7, 8, 1, 0, 3, 4, 7, 8, 0, 7})
	f.Add([]byte{3, 9, 200, 7, 9, 1, 8, 0, 4, 5, 7, 8, 1, 5, 17, 7, 9, 0, 8, 0, 7})
	f.Add([]byte{0, 0, 0, 7, 8, 0, 1, 1, 1, 7, 8, 0, 2, 2, 2, 7, 8, 1, 6, 6, 7, 8, 0, 7})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 400 {
			return
		}
		g := newRecycleRig(t, 1)
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b)
		}
		for len(script) > 0 {
			switch next() % 10 {
			case 0, 1, 2: // a known pair
				u, s := g.users[next()%len(g.users)], g.services[next()%len(g.services)]
				g.observe(u, s, 0.05+float64(next())/16)
			case 3: // any pair, new or not
				g.observe(next()%rigUsers, next()%rigServices, 0.05+float64(next())/16)
			case 4:
				g.removeUser(next() % rigUsers)
			case 5:
				g.removeService(next() % rigServices)
			case 6:
				g.replay()
			case 7:
				g.refresh()
			case 8:
				if next()%2 == 1 {
					g.escape()
				}
				g.recycle()
			case 9:
				if next()%2 == 1 && len(g.held) < 3 {
					g.hold()
				} else {
					g.release()
				}
			}
		}
		g.recycle()
		g.refresh()
	})
}
