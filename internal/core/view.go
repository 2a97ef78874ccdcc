package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"github.com/qoslab/amf/internal/transform"
)

// viewShardCount is the number of hash shards a PredictView's entity
// tables are split into, 1<<viewShardShift: IDs are mapped to shards by
// masking, so a shard's IDs share their low bits and differ in
// id>>viewShardShift alone, which is what lets a shard find a row by
// counting bits over its id range (shardIndex.row). A shard is the unit
// of membership: each one carries its own index, rebuilt only when an
// entity joins or leaves that shard. Factor updates are published at a finer grain still
// — the fixed-height pages of page.go — so a refresh copies the pages
// holding a changed row (with Model.Recycle, only the rows that changed
// since, into the page's recycled twin) and shares everything else with
// the previous view by pointer: its cost follows the number of entities
// touched since the last publish, not the size of the catalog.
const (
	viewShardShift = 6
	viewShardCount = 1 << viewShardShift
)

// viewEntity is the published state of one user or service as handed to
// the read paths: the latent factor vector (the entity's lane in its
// immutable page), plus where to find the tracked error and update count
// frozen at publish time — by reference, so the ranking paths, which need
// only the vector, never touch that memory.
//
// lane is float32, like the page it aliases, and strided: factor j is
// lane[j*viewGroupRows] (page.go). Every view-side point prediction is
// veDot over two such lanes.
type viewEntity struct {
	lane []float32
	meta *pageMeta
	o    int // the entity's row within its page
}

func (e viewEntity) err() float64 { return e.meta.errs[e.o] }
func (e viewEntity) updates() int { return e.meta.updates[e.o] }

// appendFactors appends the entity's factors to dst in order: its lane
// gathered into a contiguous vector, the query a page scan runs.
func (e viewEntity) appendFactors(dst []float32) []float32 {
	for j := 0; j < len(e.lane); j += viewGroupRows {
		dst = append(dst, e.lane[j])
	}
	return dst
}

// veDot is the inner product of two frozen entities, widened to the
// float64 the heap and the value transform work in. It sums in
// matrix.WalkPages32's association — the first product, then each next
// one rounded to float32 and added, never fused (the conversion forbids
// it) — so a point read is the key a page scan stores for the row, bit
// for bit, in every build; a float32 widens exactly.
func veDot(u, s viewEntity) float64 {
	a, b := u.lane, s.lane
	b = b[:len(a)]
	acc := a[0] * b[0]
	for j := viewGroupRows; j < len(a); j += viewGroupRows {
		acc = acc + float32(a[j]*b[j])
	}
	return float64(acc)
}

// viewTable is one side (users or services) of a PredictView: a fixed
// array of hash shards (page.go), each an id index plus the factor pages
// holding its rows. The array is copied by value per refresh; indexes and
// pages are shared between consecutive views unless changed, so point
// lookups and page scans of every view read immutable storage.
type viewTable struct {
	shards [viewShardCount]viewShard
	rank   int
	count  int
}

func shardOf(id int) int { return id & (viewShardCount - 1) }

func (t *viewTable) get(id int) (viewEntity, bool) {
	sh := &t.shards[shardOf(id)]
	r, ok := sh.idx.row(id)
	if !ok {
		return viewEntity{}, false
	}
	pi, o := pageOf(r)
	return sh.pages[pi].entity(o, t.rank), true
}

// each visits every entity, shard by shard in ascending id order.
func (t *viewTable) each(f func(id int, e viewEntity)) {
	for si := range t.shards {
		sh := &t.shards[si]
		for r, id := range sh.idx.ids {
			pi, o := pageOf(r)
			f(id, sh.pages[pi].entity(o, t.rank))
		}
	}
}

// PredictView is an immutable, shareable snapshot of a Model's learned
// state, sufficient to serve every read-side query (predictions,
// confidence, ranking, error reports, serialization) without any lock.
// A view is safe for unlimited concurrent use, and it does not change for
// as long as it can be read: only Model.Recycle lets a later refresh write
// into pages a view shares, and its caller promises that no reader can
// reach the view any more. The serving engine (internal/engine) publishes
// views through an atomic pointer, RCU-style: readers pin the current
// view and work on it while the single writer prepares and publishes the
// next one, and recycles the pages of views nobody pins.
//
// Build one with Model.BuildView, or incrementally with Model.RefreshView.
type PredictView struct {
	cfg      Config
	tr       *transform.Transformer
	users    viewTable
	services viewTable
	updates  int64
	version  uint64
	// owner identifies the model this view was built from, so that
	// RefreshView can detect a model swap (Restore) and fall back to a
	// full rebuild. Readers never touch it.
	owner *Model
	// replaced and replacedSlices list what of the view this one was
	// refreshed from this one took the place of — pages copied away from
	// or reshaped, and touched shards' page slices — for Recycle. Readers
	// never touch them.
	replaced       []replacedPage
	replacedSlices []replacedSlice
}

// EnableViewTracking turns on recording of entities touched by updates
// (Observe, ReplayStep, RemoveUser/RemoveService) so that RefreshView can
// republish views incrementally. BuildView enables it implicitly.
func (m *Model) EnableViewTracking() {
	if m.dirtyUsers == nil {
		m.dirtyUsers = new(dirtyList)
		m.dirtyServices = new(dirtyList)
	}
}

// BuildView constructs a complete immutable view of the model's current
// state and enables dirty tracking for subsequent RefreshView calls. Cost
// is O(entities × rank): every latent vector is copied so later in-place
// SGD updates cannot tear a published view.
func (m *Model) BuildView() *PredictView { return m.buildView(1) }

func (m *Model) buildView(version uint64) *PredictView {
	m.EnableViewTracking()
	v := &PredictView{
		cfg:     m.cfg,
		tr:      m.tr,
		updates: m.updates,
		version: version,
		owner:   m,
	}
	pb := publish{m, v}
	buildTable(&v.users, m.users, m.dirtyUsers, pb, &m.spareSlices[0])
	buildTable(&v.services, m.services, m.dirtyServices, pb, &m.spareSlices[1])
	return v
}

// buildTable freezes every model entity into its view shard as a refresh
// of an empty shard with every id of the shard's touched, which also
// leaves every entity clean.
func buildTable(dst *viewTable, src *entityTable, dirty *dirtyList, pb publish, slots *[viewShardCount][]viewPage) {
	dst.rank = pb.m.cfg.Rank
	var ids [viewShardCount][]int
	src.Each(func(id int, _ *entity) {
		ids[shardOf(id)] = append(ids[shardOf(id)], id)
	})
	for si := range dst.shards {
		dst.shards[si] = viewShard{idx: emptyIndex}
		dst.count += dst.shards[si].refresh(src, ids[si], pb, &slots[si])
		dirty.shards[si] = dirty.shards[si][:0]
	}
}

// RefreshView publishes a new view derived from prev, copying only the
// pages that hold an entity touched since prev was built (and rebuilding
// only the shards an entity joined or left). Everything else — indexes,
// untouched pages — is shared with prev by pointer, so the refresh costs
// O(entities touched) in time and bytes whatever the size of the catalog.
// If prev is nil, was built from a different model (Restore swapped it),
// or dirty tracking is off, it falls back to a full BuildView while
// keeping the version sequence monotonic.
//
// prev is left as it was: the pages and page slices the new view took the
// place of stay prev's until the caller hands them back with Recycle, and
// without that call they are left to the collector.
func (m *Model) RefreshView(prev *PredictView) *PredictView {
	if prev == nil {
		return m.BuildView()
	}
	if prev.owner != m || m.dirtyUsers == nil {
		// Model swap or tracking off: nothing can be shared across
		// either, so rebuild from scratch.
		return m.buildView(prev.version + 1)
	}
	v := &PredictView{
		cfg:      m.cfg,
		tr:       m.tr,
		users:    prev.users,    // shares indexes and pages; touched ones replaced below
		services: prev.services, // ditto
		updates:  m.updates,
		version:  prev.version + 1,
		owner:    m,
		// The lists a Recycle emptied; without them, lists sized for what
		// was touched, which is what a publish without a reshape fills.
		replaced:       m.replaced,
		replacedSlices: m.replacedSlices,
	}
	m.replaced, m.replacedSlices = nil, nil
	if v.replaced == nil || v.replacedSlices == nil {
		users, userShards := m.dirtyUsers.size()
		services, serviceShards := m.dirtyServices.size()
		if v.replaced == nil {
			v.replaced = make([]replacedPage, 0, users+services)
		}
		if v.replacedSlices == nil {
			v.replacedSlices = make([]replacedSlice, 0, userShards+serviceShards)
		}
	}
	pb := publish{m, v}
	refreshTable(&v.users, m.users, m.dirtyUsers, pb, &m.spareSlices[0])
	refreshTable(&v.services, m.services, m.dirtyServices, pb, &m.spareSlices[1])
	return v
}

// refreshTable brings the touched shards of dst (currently aliasing the
// previous view's) up to date with src and empties the dirty lists. Dirty
// lists are sharded with the view's hash, so the walk is per shard.
func refreshTable(dst *viewTable, src *entityTable, dirty *dirtyList, pb publish, slots *[viewShardCount][]viewPage) {
	for si := range dirty.shards {
		touched := dirty.shards[si]
		if len(touched) == 0 {
			continue
		}
		dst.count += dst.shards[si].refresh(src, touched, pb, &slots[si])
		dirty.shards[si] = touched[:0]
	}
}

// Recycle hands the model what v's refresh took the place of — pages and
// page slices of the view v was refreshed from that v no longer holds —
// so that later refreshes write into them instead of into fresh
// allocations. The caller promises that no reader can reach them any
// more: every view v came after is unreachable, except views that escaped
// the caller's bookkeeping, whose newest version is escaped; a page or
// slice first published at or before escaped is left to the collector.
// Views are recycled in publish order, as the engine does.
//
// A page v copied away from becomes the twin of its copy: the next
// refresh that must copy that page again brings the twin up to date with
// the rows the copy froze, not a whole page (pageMeta.twin). A page a
// reshape replaced, and the unused twin of a page replaced since, go to
// the spare list, which any copy or reshape draws from. Spares and twins
// together never outnumber v's own pages; past that cap a page is left
// to the collector, so the cap comes from the view, not from a setting.
// A view Recycle has seen has nothing left to recycle.
func (m *Model) Recycle(v *PredictView, escaped uint64) {
	if v.owner == m {
		limit := v.users.pageCount() + v.services.pageCount()
		keep := func(p viewPage) {
			if len(m.spare)+m.twins < limit {
				m.spare = append(m.spare, p)
			}
		}
		for _, r := range v.replaced {
			p := r.old
			if t := p.meta.twin; t.meta != nil {
				// p was replaced by a reshape, or before its twin
				// arrived: the twin has nothing left to catch up with.
				p.meta.twin = viewPage{}
				m.twins--
				keep(t)
			}
			switch {
			case p.meta.born <= escaped:
			case r.by != nil && r.by.born == v.version && len(m.spare)+m.twins < limit:
				// by was born with v unless views are recycled out of
				// publish order; then its meta may be another page's by
				// now, and p is safe only as a spare.
				r.by.twin = p
				m.twins++
			default:
				keep(p)
			}
		}
		for _, s := range v.replacedSlices {
			if s.born > escaped && cap(s.pages) > cap(*s.slot) {
				*s.slot = s.pages
			}
		}
		clear(v.replaced)
		clear(v.replacedSlices)
		if cap(v.replaced) > cap(m.replaced) {
			m.replaced = v.replaced[:0]
		}
		if cap(v.replacedSlices) > cap(m.replacedSlices) {
			m.replacedSlices = v.replacedSlices[:0]
		}
	}
	v.replaced, v.replacedSlices = nil, nil
}

func (t *viewTable) pageCount() int {
	n := 0
	for si := range t.shards {
		n += len(t.shards[si].pages)
	}
	return n
}

// Version returns the publish sequence number of this view. Versions are
// strictly increasing along the chain of BuildView/RefreshView calls.
func (v *PredictView) Version() uint64 { return v.version }

// Updates returns the model's total SGD update count frozen at publish
// time. Monotonically non-decreasing across successive views of one model.
func (v *PredictView) Updates() int64 { return v.updates }

// Config returns the model configuration frozen at publish time.
func (v *PredictView) Config() Config { return v.cfg }

// NumUsers returns the number of users in the view.
func (v *PredictView) NumUsers() int { return v.users.count }

// NumServices returns the number of services in the view.
func (v *PredictView) NumServices() int { return v.services.count }

// KnowsUser reports whether the user is present in the view.
func (v *PredictView) KnowsUser(id int) bool { _, ok := v.users.get(id); return ok }

// KnowsService reports whether the service is present in the view.
func (v *PredictView) KnowsService(id int) bool { _, ok := v.services.get(id); return ok }

// Predict estimates the QoS value between a user and a service as
// Model.Predict does, but wait-free and from the frozen float32 factors:
// the two agree to ~6e-7 relative (TestViewPrecision), not to the bit.
func (v *PredictView) Predict(user, service int) (float64, error) {
	u, ok := v.users.get(user)
	if !ok {
		return 0, ErrUnknownUser
	}
	s, ok := v.services.get(service)
	if !ok {
		return 0, ErrUnknownService
	}
	g := transform.Sigmoid(veDot(u, s))
	return v.tr.Backward(g), nil
}

// PredictWithConfidence returns Predict's estimate with the confidence
// score 1/(1 + e_ui + e_sj) derived from the frozen error trackers (see
// Model.PredictWithConfidence).
func (v *PredictView) PredictWithConfidence(user, service int) (value, confidence float64, err error) {
	u, ok := v.users.get(user)
	if !ok {
		return 0, 0, ErrUnknownUser
	}
	s, ok := v.services.get(service)
	if !ok {
		return 0, 0, ErrUnknownService
	}
	g := transform.Sigmoid(veDot(u, s))
	confidence = 1 / (1 + u.err() + s.err())
	return v.tr.Backward(g), confidence, nil
}

// TopK, TopKAll, PredictBatch and the page scans live in topk.go (the
// vectorized candidate-ranking fast path).

// Flagged is one entity whose tracked relative error exceeds a threshold.
type Flagged struct {
	ID    int
	Error float64
}

// HighErrorUsers returns users whose frozen EMA relative error (Eq. 13)
// is at or above threshold, worst first. Operationally these are the
// entities the model currently predicts poorly — newcomers still
// converging, or users whose QoS regime shifted — and the ones
// adaptation policies should treat with low confidence.
func (v *PredictView) HighErrorUsers(threshold float64) []Flagged {
	return v.users.flagged(threshold)
}

// HighErrorServices is HighErrorUsers for the service side (Eq. 14).
func (v *PredictView) HighErrorServices(threshold float64) []Flagged {
	return v.services.flagged(threshold)
}

func (t *viewTable) flagged(threshold float64) []Flagged {
	var out []Flagged
	t.each(func(id int, e viewEntity) {
		if err := e.err(); err >= threshold {
			out = append(out, Flagged{ID: id, Error: err})
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Error != out[j].Error {
			return out[i].Error > out[j].Error
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Snapshot serializes the view in the same format as Model.Snapshot, so
// the bytes are interchangeable with core.Restore. Because the view is
// immutable, serialization requires no lock and cannot stall the writer.
func (v *PredictView) Snapshot() ([]byte, error) {
	snap := snapshot{Config: v.cfg, Updates: v.updates}
	snap.Users = v.users.snapshots()
	snap.Services = v.services.snapshots()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("core: encode view snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

func (t *viewTable) snapshots() []entitySnapshot {
	out := make([]entitySnapshot, 0, t.count)
	t.each(func(id int, e viewEntity) {
		// Every float32 widens to float64 exactly, so the snapshot format
		// does not know the view's precision and Restore + BuildView of
		// these bytes reproduces this view bit for bit
		// (TestSnapshotRoundTripIdempotent).
		vec := make([]float64, 0, t.rank)
		for j := 0; j < len(e.lane); j += viewGroupRows {
			vec = append(vec, float64(e.lane[j]))
		}
		out = append(out, entitySnapshot{ID: id, Vec: vec, Err: e.err(), Updates: e.updates()})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
