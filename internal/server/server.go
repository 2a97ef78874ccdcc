package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/engine"
	"github.com/qoslab/amf/internal/obs"
	"github.com/qoslab/amf/internal/obs/trace"
	"github.com/qoslab/amf/internal/registry"
	"github.com/qoslab/amf/internal/store"
	"github.com/qoslab/amf/internal/stream"
)

// Server is the QoS prediction service. Construct with New (or
// NewWithEngine to tune the serving engine), mount its Handler on an
// http.Server, and optionally run RunReplay in a goroutine for
// continuous background model updating between observations.
//
// All model access goes through an engine.Engine: prediction endpoints
// read a published immutable view without taking any lock, while
// observations and control operations are serialized on the engine's
// mutex, each on its caller's goroutine. Call Close on shutdown.
type Server struct {
	eng      *engine.Engine
	users    *registry.Registry
	services *registry.Registry
	base     time.Time
	now      func() time.Time
	mux      Mux

	// churn orders departures against observes: observe (both doors)
	// holds it shared from resolving a name until the engine has the
	// sample, handleDelete exclusively, so a name is never deregistered
	// and purged between an observation's registration and its hand-off.
	// No read route touches it.
	churn sync.RWMutex

	// joinUser and joinService journal a joining name's binding (see
	// journalRegistration). The registries call them before releasing
	// their lock, so no request can resolve a name — and have the engine
	// journal a sample under its ID — before the binding is in the WAL:
	// otherwise a crash between the two would leave factors for an ID no
	// name resolves to.
	joinUser, joinService func(id int, name string)

	// MaxBatch bounds observe/predict batch sizes (guards memory against
	// hostile requests). Defaults to 10000.
	MaxBatch int

	// durable is the optional durable-state manager (see AttachDurable):
	// WAL journaling, background checkpoints, crash recovery. Promotion
	// attaches it while reads are served, hence the atomic.
	durable atomic.Pointer[store.Manager]

	// Observability (see obs.go): the metric registry behind /metrics,
	// request middleware state, the live accuracy tracker, and the
	// structured logger. reqSeq numbers requests for log correlation.
	reg         *obs.Registry
	metrics     counters
	httpHist    *obs.HistogramVec
	inflight    *obs.Gauge
	statusClass [6]*obs.Counter // 0 unused; 1..5 = 1xx..5xx
	acc         *obs.AccuracyTracker
	traces      *trace.Recorder

	// SLO admission (see admission.go): gate is nil
	// until EnableAdmission. The admission metric families are always
	// registered (zero while disabled) so dashboards and the docs lint see
	// a stable surface.
	gate          atomic.Pointer[admissionGate]
	admReq        [NumClasses]*obs.Counter
	admShed       [NumClasses]atomic.Int64
	admWaitEst    *obs.Histogram
	log           *slog.Logger
	logDebug      bool // cached log.Enabled(debug), see NewWithEngine
	slowThreshold time.Duration
	reqSeq        atomic.Uint64
	closed        atomic.Bool

	// Cluster role (see replication.go): follower marks a replica that
	// tails a leader's directory and rejects direct writes; repl is its
	// tailer. Both are set by StartFollower before serving traffic;
	// follower flips on Promote and Demote.
	follower  atomic.Bool
	repl      *Replicator
	demotedTo atomic.Value // string: leader URL learned at demotion
	promoteMu sync.Mutex
}

// Option customizes a Server at construction time.
type Option func(*Server)

// WithLogger sets the structured logger used for request and lifecycle
// events (default slog.Default()).
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) {
		if l != nil {
			s.log = l
		}
	}
}

// WithSlowRequestThreshold sets the latency above which a request is
// logged as slow (default 1s; 0 keeps the default).
func WithSlowRequestThreshold(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.slowThreshold = d
		}
	}
}

// New creates a prediction service around an AMF model with default
// engine settings.
func New(model *core.Model, opts ...Option) *Server {
	return NewWithEngine(engine.New(model, engine.Config{}), opts...)
}

// NewWithEngine creates a prediction service on a serving engine the
// caller built. The server takes ownership: nothing else may write
// through the engine.
func NewWithEngine(eng *engine.Engine, opts ...Option) *Server {
	s := &Server{
		eng:           eng,
		users:         registry.New(),
		services:      registry.New(),
		now:           time.Now,
		MaxBatch:      10000,
		log:           slog.Default(),
		slowThreshold: time.Second,
	}
	s.joinUser = func(id int, name string) {
		s.journalRegistration((*store.WAL).AppendRegisterUser, id, name)
	}
	s.joinService = func(id int, name string) {
		s.journalRegistration((*store.WAL).AppendRegisterService, id, name)
	}
	for _, opt := range opts {
		opt(s)
	}
	// Per-request debug logging (and with it request-ID minting) is
	// decided once per server, not per request, so the untraced fast path
	// stays free of slog calls.
	s.logDebug = s.log.Enabled(context.Background(), slog.LevelDebug)
	// The trace recorder shares the slow-request threshold: a span worth a
	// slow-log warning is a span worth retaining past ring churn.
	s.traces = trace.NewRecorder(trace.Config{SlowThreshold: s.slowThreshold})
	s.base = s.now()
	s.buildMetrics()
	s.routes()
	return s
}

// NewWithClock injects a clock for tests.
func NewWithClock(model *core.Model, now func() time.Time) *Server {
	s := New(model)
	s.now = now
	s.base = now()
	return s
}

// Close marks the server closing — /readyz starts failing so load
// balancers stop routing new traffic — and stops a follower's tailer. The
// HTTP handlers keep working afterwards, so shutdown sequencing with an
// http.Server is not order-sensitive.
func (s *Server) Close() {
	if s.closed.CompareAndSwap(false, true) {
		s.log.Info("server closing", "component", "server")
	}
	if rp := s.repl; rp != nil {
		rp.Stop()
	}
}

// Engine exposes the serving engine (stats, manual flush) for embedders
// and tests.
func (s *Server) Engine() *engine.Engine { return s.eng }

// Handler returns the HTTP handler for the service.
func (s *Server) Handler() http.Handler { return &s.mux }

func (s *Server) routes() {
	s.handle("GET /healthz", s.handleHealth)
	s.handle("GET /readyz", s.handleReady)
	// The expensive API routes pass through the SLO admission gate
	// (inert until EnableAdmission — one atomic load while disabled).
	// Health, metrics and cluster control stay ungated: an
	// overloaded server must remain observable and steerable.
	s.handleGated("POST /api/v1/observe", s.handleObserve)
	s.handleGated("GET /api/v1/predict", s.handlePredict)
	s.handleGated("POST /api/v1/predict", s.handleBatchPredict)
	s.rankRoutes()
	s.handle("GET /api/v1/stats", s.handleStats)
	s.handle("GET /api/v1/users", s.handleListUsers)
	s.handle("GET /api/v1/services", s.handleListServices)
	s.handle("DELETE /api/v1/users", s.handleDeleteUser)
	s.handle("DELETE /api/v1/services", s.handleDeleteService)
	s.stateRoutes()
	s.durableRoutes()
	s.replicationRoutes()
	s.metricsRoutes()
	s.flaggedRoutes()
	// Outside the middleware, like pprof: a debug scrape should not
	// pollute the request histograms it exists to explain.
	s.mux.Handle("GET /debug/traces", s.traces)
}

// RunReplay keeps the model converging between observations: every
// interval it performs up to batch replay updates (Algorithm 1's
// "randomly pick an existing data sample" loop). It returns when ctx is
// cancelled.
func (s *Server) RunReplay(ctx context.Context, interval time.Duration, batch int) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			s.eng.AdvanceTo(s.now().Sub(s.base))
			s.eng.ReplaySteps(batch)
		}
	}
}

// writeJSON renders a JSON response and tallies its status class. The
// middleware deliberately does not wrap ResponseWriter (the wrapper and
// its pool were measurable on the predict fast path); counting happens
// here, where the status is known, and the few handlers that write
// non-JSON bodies call countStatus themselves.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	s.countStatus(status)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// countStatus tallies a response in the status-class counters.
func (s *Server) countStatus(status int) {
	if class := status / 100; class >= 1 && class <= 5 {
		s.statusClass[class].Inc()
	}
}

// countError tallies an error response in the metrics and writes it.
func (s *Server) countError(w http.ResponseWriter, status int, format string, args ...any) {
	switch {
	case status == http.StatusNotFound:
		s.metrics.notFound.Add(1)
	case status >= 400 && status < 500:
		s.metrics.badRequests.Add(1)
	}
	s.writeError(w, status, format, args...)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is the readiness probe: it fails once Close has begun so a
// load balancer drains traffic, and succeeds while a published view is
// servable (which is always, after New).
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.closed.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "closing"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{
		"status":       "ready",
		"view_version": fmt.Sprint(s.eng.Stats().Version),
	})
}

// hotBuf is the per-request scratch of the four hot routes: the body as
// read, the decoder whose views point into it, the registry and model
// scratch sized by the request's list, and the encoded response. Pooled
// whole, so a request's allocation count does not follow its candidates
// or samples.
type hotBuf struct {
	dec      Decoder
	raw      []byte
	out      []byte
	ids      []int // the request's service IDs, in request order
	uids     []int // an observe's user IDs, one per run of a user's observations
	users    [][]byte
	services [][]byte
	cands    []int // IDs of the known candidates, in request order
	candAt   []int // cands[i] is the request's service candAt[i]
	unknown  [][]byte
	values   []float64
	confs    []float64
	rows     []batchRow
	ranked   []RankedService
	samples  []stream.Sample
}

var hotBufPool = sync.Pool{New: func() any { return new(hotBuf) }}

func (b *hotBuf) release() {
	if cap(b.raw) > maxPooledBytes || cap(b.out) > maxPooledBytes || b.dec.oversized() {
		return
	}
	hotBufPool.Put(b)
}

// readHot reads a hot request body into pooled scratch, answering 413
// past MaxBodyBytes. ok is false when the response has been written;
// otherwise the caller releases b.
func (s *Server) readHot(w http.ResponseWriter, r *http.Request) (b *hotBuf, ok bool) {
	b = hotBufPool.Get().(*hotBuf)
	var err error
	if b.raw, err = ReadBody(w, r, MaxBodyBytes, b.raw); err != nil {
		b.release()
		s.countError(w, BodyErrorStatus(err), "read body: %v", err)
		return nil, false
	}
	return b, true
}

// decodeError answers a codec error: 413 for a list past MaxBatch (what
// names the list in the message), 400 for anything else.
func (s *Server) decodeError(w http.ResponseWriter, err error, what string) {
	var limit *LimitError
	if errors.As(err, &limit) {
		s.countError(w, http.StatusRequestEntityTooLarge, "%s of at least %d exceeds limit %d", what, limit.Limit+1, limit.Limit)
		return
	}
	s.countError(w, http.StatusBadRequest, "invalid JSON: %v", err)
}

// jsonContentType is shared by every hot response: header values are
// read, never written, once set.
var jsonContentType = []string{"application/json"}

// writeHot writes a response the codec encoded, with its length, so the
// connection carries one frame instead of chunks. An encoding error
// (a NaN the model should never produce) becomes a 500.
func (s *Server) writeHot(w http.ResponseWriter, body []byte, err error) {
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	s.countStatus(http.StatusOK)
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request, sp *trace.Span) {
	if s.rejectFollowerWrite(w) {
		return
	}
	b, ok := s.readHot(w, r)
	if !ok {
		return
	}
	defer b.release()
	obs, err := b.dec.Observe(b.raw, s.MaxBatch)
	if err != nil {
		s.decodeError(w, err, "batch")
		return
	}
	if len(obs) == 0 {
		s.countError(w, http.StatusBadRequest, "no observations")
		return
	}
	// Synchronous apply + republish: the HTTP observe API promises
	// read-your-writes (a client that uploads a measurement sees it
	// reflected in the next predict call). The engine's per-stage
	// breakdown becomes span annotations on a traced request (a nil span
	// takes none).
	resp, tm, err := s.observe(obs, b)
	switch {
	case errors.Is(err, errFollowerWrite): // demoted since the check above
		s.refuseFollowerWrite(w)
		return
	case err != nil:
		s.countError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sp.Annotate("engine_queue_wait", tm.QueueWait)
	sp.Annotate("engine_journal", tm.Journal)
	sp.Annotate("engine_apply", tm.Apply)
	sp.Annotate("engine_publish", tm.Publish)
	sp.Annotate("engine_commit_wait", tm.CommitWait)
	b.out = appendObserveResponse(b.out[:0], resp)
	s.writeHot(w, b.out, nil)
}

// sampleTime is an observation's model time on both write doors: its
// timestamp relative to the server's epoch, clamped at the epoch, or now
// when it carries none.
func (s *Server) sampleTime(timestampMs int64, now time.Duration) time.Duration {
	if timestampMs <= 0 {
		return now
	}
	return max(time.UnixMilli(timestampMs).Sub(s.base), 0)
}

// resolve maps names to model IDs, distinguishing which side is unknown.
func (s *Server) resolve(user, service string) (uid, sid int, err error) {
	uid, ok := s.users.Lookup(user)
	if !ok {
		return 0, 0, fmt.Errorf("unknown user %q", user)
	}
	sid, ok = s.services.Lookup(service)
	if !ok {
		return 0, 0, fmt.Errorf("unknown service %q", service)
	}
	return uid, sid, nil
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request, _ *trace.Span) {
	user := QueryParam(r.URL.RawQuery, "user")
	service := QueryParam(r.URL.RawQuery, "service")
	if user == "" || service == "" {
		s.countError(w, http.StatusBadRequest, "user and service query parameters are required")
		return
	}
	uid, sid, err := s.resolve(user, service)
	if err != nil {
		s.countError(w, http.StatusNotFound, "%v", err)
		return
	}
	view := s.eng.Pin()
	v, conf, err := view.PredictWithConfidence(uid, sid)
	s.eng.Unpin(view)
	if err != nil {
		// Registered but never observed (e.g. deregistered from the
		// model after churn): treat as not found.
		s.countError(w, http.StatusNotFound, "no prediction for (%s, %s): %v", user, service, err)
		return
	}
	s.metrics.predictions.Add(1)
	b := hotBufPool.Get().(*hotBuf)
	defer b.release()
	b.out, err = appendPredictResponse(b.out[:0], user, service, v, conf)
	s.writeHot(w, b.out, err)
}

func (s *Server) handleBatchPredict(w http.ResponseWriter, r *http.Request, _ *trace.Span) {
	b, ok := s.readHot(w, r)
	if !ok {
		return
	}
	defer b.release()
	q, err := b.dec.Batch(b.raw, s.MaxBatch)
	if err != nil {
		s.decodeError(w, err, "batch")
		return
	}
	if len(q.User) == 0 || len(q.Services) == 0 {
		s.countError(w, http.StatusBadRequest, "user and services are required")
		return
	}
	uid, userKnown := s.users.LookupBytes(q.User)
	// One registry pass for the whole candidate list (single RLock), then
	// one view pass that loads the user once; an unregistered name's ID is
	// -1, which no view holds, so its row reads NaN like an unknown
	// service's.
	b.ids = s.services.ResolveAll(q.Services, b.ids)
	values, confs := slices.Grow(b.values[:0], len(b.ids))[:len(b.ids)], slices.Grow(b.confs[:0], len(b.ids))[:len(b.ids)]
	b.values, b.confs = values, confs
	if userKnown {
		view := s.eng.Pin() // one consistent snapshot for the whole batch
		// A user the view does not hold (yet, or any more) is no error here:
		// every row reads NaN, and the response says ok:false for each.
		_ = view.PredictBatchWithConfidence(uid, b.ids, values, confs)
		s.eng.Unpin(view)
	}
	rows := b.rows[:0]
	for i, name := range q.Services {
		row := batchRow{Service: name}
		if userKnown && !math.IsNaN(values[i]) {
			row.Value, row.Confidence, row.OK = values[i], confs[i], true
		}
		rows = append(rows, row)
	}
	b.rows = rows
	b.out, err = appendBatchResponse(b.out[:0], q.User, rows)
	s.writeHot(w, b.out, err)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, StatsResponse{
		Users:    s.users.Len(),
		Services: s.services.Len(),
		Updates:  s.eng.Updates(),
		UptimeMs: s.now().Sub(s.base).Milliseconds(),
	})
}

func (s *Server) handleListUsers(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, infoList(s.users))
}

func (s *Server) handleListServices(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, infoList(s.services))
}

func infoList(r *registry.Registry) []EntityInfo {
	list := r.List()
	out := make([]EntityInfo, len(list))
	for i, info := range list {
		out[i] = EntityInfo{Name: info.Name, ID: info.ID}
	}
	return out
}

func (s *Server) handleDeleteUser(w http.ResponseWriter, r *http.Request) {
	s.handleDelete(w, r, s.users, s.eng.RemoveUser)
}

func (s *Server) handleDeleteService(w http.ResponseWriter, r *http.Request) {
	s.handleDelete(w, r, s.services, s.eng.RemoveService)
}

// handleDelete implements churn departure: the entity leaves the registry
// and its model state is purged.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request, reg *registry.Registry, purge func(int)) {
	if s.rejectFollowerWrite(w) {
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		s.countError(w, http.StatusBadRequest, "name query parameter is required")
		return
	}
	// Exclusive against the write doors: an observation that resolved the
	// name before this point is already in the engine, whose removal runs
	// after everything it accepted earlier; one that resolves it after
	// registers a new ID.
	s.churn.Lock()
	id, ok := reg.Deregister(name)
	if ok {
		purge(id)
	}
	s.churn.Unlock()
	if !ok {
		s.countError(w, http.StatusNotFound, "unknown entity %q", name)
		return
	}
	s.metrics.churnRemovals.Add(1)
	s.writeJSON(w, http.StatusOK, map[string]string{"removed": name})
}
