package core

import (
	"math"
	"math/rand"
	"time"

	"github.com/qoslab/amf/internal/idtab"
	"github.com/qoslab/amf/internal/matrix"
	"github.com/qoslab/amf/internal/stats"
	"github.com/qoslab/amf/internal/stream"
	"github.com/qoslab/amf/internal/transform"
)

// entity is the per-user or per-service state: a latent factor vector and
// the exponential moving average of its relative prediction error, which
// drives the adaptive weights.
type entity struct {
	vec     []float64
	err     *stats.EMA
	updates int
	// dirty: listed in the model's dirtyList since the last publish
	// (table.go). Guarded like the rest of the entity.
	dirty bool
	// unserved: created by Observe and not yet frozen into a view, so no
	// reader has been served a prediction for it (ObserveAllScored).
	unserved bool
}

// Model is the AMF predictor. It is not safe for concurrent use; the
// prediction service serves it through internal/engine (one writer,
// lock-free readers on a published PredictView).
type Model struct {
	cfg      Config
	tr       *transform.Transformer
	rng      *rand.Rand
	pool     *stream.Pool
	users    *entityTable
	services *entityTable
	updates  int64

	// dirtyUsers/dirtyServices list entities touched since the last
	// published view so RefreshView can copy only the affected pages.
	// Sharded like the entity tables (see table.go). nil until
	// EnableViewTracking (or the first BuildView); see view.go.
	dirtyUsers    *dirtyList
	dirtyServices *dirtyList

	// What Recycle hands back (view.go): spare holds view pages no reader
	// can reach any more, for the next refresh to copy into; twins counts
	// those held as some page's twin instead (pageMeta.twin); spareSlices
	// holds per table (users, services) and shard a page slice for the
	// shard's next copy; replaced and replacedSlices are emptied lists for
	// the next refreshed view to fill.
	spare          []viewPage
	twins          int
	spareSlices    [2][viewShardCount][]viewPage
	replaced       []replacedPage
	replacedSlices []replacedSlice

	// pairs and touched are observeAll's and viewShard.refresh's scratch.
	pairs   []entityPair
	touched []touchedRow
}

// New constructs an empty AMF model.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	tr, err := transform.New(cfg.Alpha, cfg.RMin, cfg.RMax)
	if err != nil {
		return nil, err
	}
	return &Model{
		cfg:      cfg,
		tr:       tr,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		pool:     stream.NewPool(cfg.Expiry, cfg.Seed+1),
		users:    idtab.New[*entity](0),
		services: idtab.New[*entity](0),
	}, nil
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(cfg Config) *Model {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// newEntity randomly initializes a latent vector (Algorithm 1 line 6) and
// seeds the error tracker at 1 (line 7): a brand-new entity is maximally
// untrusted, so the adaptive weights route most of each update to it.
func (m *Model) newEntity() *entity {
	v := make([]float64, m.cfg.Rank)
	scale := 1 / math.Sqrt(float64(m.cfg.Rank))
	for k := range v {
		v[k] = m.rng.Float64() * scale
	}
	return &entity{vec: v, err: stats.NewEMAInit(m.cfg.Beta, 1), unserved: true}
}

// entity returns id's entity in t, registering a new one on first sight.
func (m *Model) entity(t *entityTable, id int) *entity {
	e, ok := t.Get(id)
	if !ok {
		e = m.newEntity()
		t.Put(id, e)
	}
	return e
}

// Observe ingests a newly observed QoS sample: it registers any new user
// or service, stores the sample in the replay pool, and performs one
// online SGD update (Algorithm 1 lines 3-9).
func (m *Model) Observe(s stream.Sample) { m.observeAll([]stream.Sample{s}, nil) }

// ObserveAll ingests samples in order, as that many Observe calls do.
func (m *Model) ObserveAll(ss []stream.Sample) { m.observeAll(ss, nil) }

// Scorer takes, sample by sample, what the model predicted for a pair
// just before the sample trained it (obs.AccuracyTracker is one).
type Scorer interface {
	// Record takes the prediction, in QoS units, and the observed value.
	Record(prior, observed float64)
	// RecordMiss stands for a sample with no prediction to score.
	RecordMiss()
}

// ObserveAllScored is ObserveAll for a caller that scores the model live:
// for each sample it hands sc what the model predicted for the pair just
// before the sample trained it, from the float64 factors the SGD step
// computes on — every earlier sample, the same batch's included, already
// applied. A first sighting is a miss: the user or the service is not in
// any view yet (this batch or one since the last BuildView/RefreshView
// created it), so no reader could have been served a prediction to score.
func (m *Model) ObserveAllScored(ss []stream.Sample, sc Scorer) { m.observeAll(ss, sc) }

// entityPair is one sample's user and service, resolved.
type entityPair struct{ u, v *entity }

// observeAll trains ss in order, in two passes. The first resolves every
// sample's user and service, registering newcomers in sample order — so
// newEntity draws from the rng exactly as one pass would — lists them as
// touched and stores the sample in the replay pool. The second trains
// each sample from the resolved pointers and scores it when sc is not
// nil. Nothing the first pass does for a later sample changes what the
// second reads for an earlier one, so the trained model is the same bit
// for bit (TestGoldenTraining), while the lookups' cache misses overlap
// instead of each waiting behind an SGD step.
func (m *Model) observeAll(ss []stream.Sample, sc Scorer) {
	pairs := m.pairs[:0]
	for _, s := range ss {
		u := m.entity(m.users, s.User)
		v := m.entity(m.services, s.Service)
		m.dirtyUsers.mark(s.User, u)
		m.dirtyServices.mark(s.Service, v)
		m.pool.Add(s)
		pairs = append(pairs, entityPair{u, v})
	}
	for i, s := range ss {
		u, v := pairs[i].u, pairs[i].v
		// An entity is unserved from its creation to the next publish, so
		// the flags read here what one pass would have read.
		served := !u.unserved && !v.unserved
		g := m.update(u, v, s.Value)
		switch {
		case sc == nil:
		case served:
			sc.Record(m.tr.Backward(g), s.Value)
		default:
			sc.RecordMiss()
		}
	}
	clear(pairs)
	m.pairs = pairs[:0]
}

// ReplayStep performs one online update on a randomly picked existing
// sample (Algorithm 1 lines 11-15). It reports false when no live sample
// remains, i.e. the model should wait for new data; true means exactly
// one update ran.
func (m *Model) ReplayStep() bool {
	for {
		s, ok := m.pool.Pick()
		if !ok {
			return false
		}
		u, okU := m.users.Get(s.User)
		v, okV := m.services.Get(s.Service)
		if okU && okV {
			m.update(u, v, s.Value)
			m.dirtyUsers.mark(s.User, u)
			m.dirtyServices.mark(s.Service, v)
			return true
		}
		// A replayed sample must not resurrect a departed user or
		// service; only Observe (new data) registers entities. A departed
		// service's samples are found here, one pick at a time (a
		// departed user's went with RemoveUser): drop it and pick again,
		// each round leaving the pool one shorter.
		m.pool.Remove(s.User, s.Service)
	}
}

// AdvanceTo moves the model clock forward, expiring replay samples older
// than the configured expiry.
func (m *Model) AdvanceTo(t time.Duration) { m.pool.AdvanceTo(t) }

// update is OnlineUpdate(tij, ui, sj, Rij) from Algorithm 1:
// normalize, compute weights from current errors, measure the relative
// error, fold it into both error trackers, and take simultaneous weighted
// gradient steps on the two factor vectors (Eq. 16-17). It returns g, the
// sigmoid-space prediction the step started from.
func (m *Model) update(u, v *entity, value float64) float64 {
	cfg := &m.cfg
	r := m.tr.Forward(value)

	x := matrix.Dot(u.vec, v.vec)
	g := transform.Sigmoid(x)
	gp := g * (1 - g) // g'(x), from the g already computed: one exp per sample

	// Adaptive weights (Eq. 12); without them the model degenerates to
	// the unweighted updates of Eq. 8-9.
	wu, wv := 1.0, 1.0
	if cfg.AdaptiveWeights {
		eu, ev := u.err.Value(), v.err.Value()
		if sum := eu + ev; sum > 0 {
			wu, wv = eu/sum, ev/sum
		} else {
			wu, wv = 0.5, 0.5
		}
	}

	// Per-sample error (Eq. 15) and error-tracker updates (Eq. 13-14).
	var eij float64
	if cfg.RelativeLoss {
		eij = math.Abs(r-g) / r
	} else {
		eij = math.Abs(r - g)
	}
	u.err.UpdateWeighted(wu, eij)
	v.err.UpdateWeighted(wv, eij)

	// Common gradient factor of Eq. 16-17: (g−r)·g′/r² for the relative
	// loss, (g−r)·g′ for the absolute ablation.
	grad := (g - r) * gp
	if cfg.RelativeLoss {
		grad /= r * r
	}
	if cfg.MaxGradNorm > 0 {
		if grad > cfg.MaxGradNorm {
			grad = cfg.MaxGradNorm
		} else if grad < -cfg.MaxGradNorm {
			grad = -cfg.MaxGradNorm
		}
	}

	// Simultaneous update: Sj's step uses the pre-step Ui (Algorithm 1
	// line 24 updates "simultaneously").
	etaU := cfg.LearnRate * wu
	etaV := cfg.LearnRate * wv
	for k := range u.vec {
		uk, vk := u.vec[k], v.vec[k]
		u.vec[k] = uk - etaU*(grad*vk+cfg.RegUser*uk)
		v.vec[k] = vk - etaV*(grad*uk+cfg.RegService*vk)
	}
	u.updates++
	v.updates++
	m.updates++
	return g
}

// Predict estimates the QoS value between a user and a service the model
// has seen before (Iij may be 0; that is the point). The latent inner
// product is squashed by the sigmoid link and mapped back through the
// inverse data transformation.
func (m *Model) Predict(user, service int) (float64, error) {
	u, ok := m.users.Get(user)
	if !ok {
		return 0, ErrUnknownUser
	}
	v, ok := m.services.Get(service)
	if !ok {
		return 0, ErrUnknownService
	}
	g := transform.Sigmoid(matrix.Dot(u.vec, v.vec))
	return m.tr.Backward(g), nil
}

// PredictWithConfidence returns Predict's estimate together with a
// confidence score in (0, 1]: the complement of the combined tracked
// relative errors of the user and the service,
//
//	confidence = 1 / (1 + e_ui + e_sj)
//
// A converged pair (both trackers near 0) approaches confidence 1; a
// fresh entity (tracker seeded at 1, Algorithm 1 line 7) drags confidence
// toward 1/2 or below. This reuses the adaptive-weight error state, so it
// costs nothing extra to maintain; adaptation policies can use it to
// require a minimum confidence before acting on a prediction.
//
// The served spelling is PredictView.PredictWithConfidence; this one
// stays as the float64 reference its tests compare against.
func (m *Model) PredictWithConfidence(user, service int) (value, confidence float64, err error) {
	u, ok := m.users.Get(user)
	if !ok {
		return 0, 0, ErrUnknownUser
	}
	v, ok := m.services.Get(service)
	if !ok {
		return 0, 0, ErrUnknownService
	}
	g := transform.Sigmoid(matrix.Dot(u.vec, v.vec))
	confidence = 1 / (1 + u.err.Value() + v.err.Value())
	return m.tr.Backward(g), confidence, nil
}

// KnowsUser reports whether the user has been observed.
func (m *Model) KnowsUser(id int) bool { _, ok := m.users.Get(id); return ok }

// KnowsService reports whether the service has been observed.
func (m *Model) KnowsService(id int) bool { _, ok := m.services.Get(id); return ok }

// NumUsers returns the number of registered users.
func (m *Model) NumUsers() int { return m.users.Len() }

// NumServices returns the number of registered services.
func (m *Model) NumServices() int { return m.services.Len() }

// Updates returns the total number of SGD updates performed.
func (m *Model) Updates() int64 { return m.updates }

// RemoveUser forgets a user entirely (framework Sec. III: users may leave
// the environment), replay samples included: the pool indexes them by
// user.
func (m *Model) RemoveUser(id int) {
	m.users.Remove(id)
	m.pool.RemoveUser(id)
	m.dirtyUsers.add(id)
}

// RemoveService forgets a service entirely. Its replay samples are spread
// over every user's row, so they go lazily: ReplayStep drops each one the
// first time it is picked, and expiry takes the rest.
func (m *Model) RemoveService(id int) {
	m.services.Remove(id)
	m.dirtyServices.add(id)
}

// SetLearnRate changes the SGD step size η for subsequent updates. It
// enables learning-rate annealing schedules: a large η converges fast
// from cold, a smaller one tightens the fixed point once near it (the
// variance of SGD's stationary distribution scales with η).
func (m *Model) SetLearnRate(eta float64) {
	if eta > 0 {
		m.cfg.LearnRate = eta
	}
}
