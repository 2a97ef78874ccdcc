package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"github.com/qoslab/amf/internal/matrix"
	"github.com/qoslab/amf/internal/transform"
)

// viewShardCount is the number of hash shards a PredictView's entity
// tables are split into. It must be a power of two (IDs are mapped to
// shards by masking). A shard is the unit of membership: each one carries
// its own id index, rebuilt only when an entity joins or leaves that
// shard. Factor updates are published at a finer grain still — the
// fixed-height pages of page.go — so a refresh copies the pages holding a
// changed row and shares everything else with the previous view by
// pointer: its cost follows the number of entities touched since the last
// publish, not the size of the catalog.
const viewShardCount = 64

// viewEntity is the published state of one user or service as handed to
// the read paths: the latent factor vector (aliasing the entity's row in
// its immutable page), plus where to find the tracked error and update
// count frozen at publish time — by reference, so the ranking paths,
// which need only the vector, never touch that memory.
//
// vec is float32, like the page it aliases (page.go): every view-side
// prediction is veDot over two such vectors.
type viewEntity struct {
	vec  []float32
	meta *pageMeta
	o    int // the entity's row within its page
}

func (e viewEntity) err() float64 { return e.meta.errs[e.o] }
func (e viewEntity) updates() int { return e.meta.updates[e.o] }

// veDot is the inner product of two frozen entities, widened to the
// float64 the heap and the value transform work in. A float32 widens
// exactly, so it is the same key a page scan stores for the row
// (DotBatch32 of one row is Dot32, kernels32.go).
func veDot(u, s viewEntity) float64 { return float64(matrix.Dot32(u.vec, s.vec)) }

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
	// replaced lists the pages of the view this one was refreshed from
	// that this one copied away from, for Recycle. Readers never touch it.
	replaced []viewPage
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
	buildTable(&v.users, m.users, m.dirtyUsers, pb)
	buildTable(&v.services, m.services, m.dirtyServices, pb)
	return v
}

// buildTable freezes every model entity into its view shard as a refresh
// of an empty shard with every id of the shard's touched, which also
// leaves every entity clean.
func buildTable(dst *viewTable, src *entityTable, dirty *dirtyList, pb publish) {
	dst.rank = pb.m.cfg.Rank
	var ids [viewShardCount][]int
	src.Each(func(id int, _ *entity) {
		ids[shardOf(id)] = append(ids[shardOf(id)], id)
	})
	for si := range dst.shards {
		dst.shards[si] = viewShard{idx: emptyIndex}
		dst.count += dst.shards[si].refresh(src, ids[si], pb)
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
// prev is left as it was: the pages the new view copied away from stay
// prev's until the caller hands them back with Recycle, and without that
// call they are left to the collector.
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
	}
	pb := publish{m, v}
	refreshTable(&v.users, m.users, m.dirtyUsers, pb)
	refreshTable(&v.services, m.services, m.dirtyServices, pb)
	return v
}

// refreshTable brings the touched shards of dst (currently aliasing the
// previous view's) up to date with src and empties the dirty lists. Dirty
// lists are sharded with the view's hash, so the walk is per shard.
func refreshTable(dst *viewTable, src *entityTable, dirty *dirtyList, pb publish) {
	for si := range dirty.shards {
		touched := dirty.shards[si]
		if len(touched) == 0 {
			continue
		}
		dst.count += dst.shards[si].refresh(src, touched, pb)
		dirty.shards[si] = touched[:0]
	}
}

// Recycle hands the model the pages v's refresh copied away from — pages
// of the view v was refreshed from that v no longer holds — so that later
// refreshes copy into them instead of into fresh allocations. The caller
// promises that no reader can reach them any more: every view v came
// after is unreachable, except views that escaped the caller's
// bookkeeping, whose newest version is escaped; a page first published at
// or before escaped is left to the collector. So is everything past the
// spare list's cap, v's own page count. A view Recycle has seen has
// nothing left to recycle.
func (m *Model) Recycle(v *PredictView, escaped uint64) {
	if v.owner == m {
		limit := v.users.pageCount() + v.services.pageCount()
		for _, p := range v.replaced {
			if p.meta.born > escaped && len(m.spare) < limit {
				m.spare = append(m.spare, p)
			}
		}
	}
	v.replaced = nil
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
		vec := make([]float64, len(e.vec))
		for i, x := range e.vec {
			vec[i] = float64(x)
		}
		out = append(out, entitySnapshot{ID: id, Vec: vec, Err: e.err(), Updates: e.updates()})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
