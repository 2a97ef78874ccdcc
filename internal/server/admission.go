package server

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/qoslab/amf/internal/control"
	"github.com/qoslab/amf/internal/obs"
	"github.com/qoslab/amf/internal/obs/trace"
)

// This file is the server's SLO-gated admission layer and the HTTP face
// of the control plane:
//
//   - a predictive admission gate on the expensive API routes (observe,
//     predict, rank): it parses the request's X-Amf-Slo-Class header,
//     estimates how long the request would wait from the requests in
//     flight and the route's own latency, and refuses work whose class
//     budget the estimate blows — with a 429, a Retry-After derived from
//     the estimate, and an X-Amf-Shed-Reason header. Critical-class
//     requests are NEVER shed, by construction (the gate admits them
//     before any estimate is computed).
//
//   - GET/PUT /api/v1/config: live inspection and override of every
//     registered tunable (the engine's and the gate's own budgets).
//
// With admission disabled (the default) the gate costs one atomic
// pointer load + nil check per gated route.

// ShedReasonHeader names why a request was refused: "slo_budget"
// (predicted wait exceeds the class budget), "follower" (a write sent to
// a follower), or — at the gateway — "edge_saturation" (target shard
// group reported saturation).
const ShedReasonHeader = "X-Amf-Shed-Reason"

// shedReasonBudget is the one reason the server gate sheds for.
const shedReasonBudget = "slo_budget"

// quantileRefresh bounds how often the gate recomputes histogram
// quantiles for its cost model; between refreshes decisions reuse the
// cached values (two atomic loads).
const quantileRefresh = 50 * time.Millisecond

// AdmissionConfig configures EnableAdmission. Budgets are per-class
// predicted-wait ceilings; critical has none (never shed).
type AdmissionConfig struct {
	// BudgetStandard is the predicted-wait budget for standard-class
	// requests. Default 2s.
	BudgetStandard time.Duration
	// BudgetSheddable is the predicted-wait budget for sheddable-class
	// requests. Default 250ms.
	BudgetSheddable time.Duration
	// Headroom scales both budgets (admit while estimate ≤
	// budget×headroom). Default 1.0, which is what amfserver starts
	// with: it is the baseline of the admission.headroom tunable, moved
	// at runtime through PUT /api/v1/config; tests set the field.
	Headroom float64
}

// admissionGate is the per-server gate state. One instance per
// EnableAdmission call, reached through an atomic pointer so the
// disabled fast path stays branch-plus-load cheap.
type admissionGate struct {
	s *Server

	// Gate tunables, registered on the engine's control registry so the
	// config API and the docs lint see one namespace.
	budgetStandard  *control.Duration
	budgetSheddable *control.Duration
	headroom        *control.Float

	// Cumulative gate accounting (all classes), for the rolling ShedRate
	// window.
	requests atomic.Int64
	sheds    atomic.Int64

	// estimator overrides the cost model in tests (forced-overload
	// invariant tests); nil in production.
	estimator func(rt *routeGate) time.Duration

	// Rolling shed-rate window (see ShedRate).
	rateMu   sync.Mutex
	rateAt   time.Time
	rateReq  int64
	rateShed int64
	rate     atomic.Uint64 // float64 bits
}

// routeGate is the per-route slice of gate state: the route's latency
// histogram (shared with the middleware) and its cached p50.
type routeGate struct {
	hist        *obs.Histogram
	p50         atomic.Uint64 // float64 bits
	lastRefresh atomic.Int64  // UnixNano
}

// verdict is one admission decision.
type verdict struct {
	admit    bool
	class    control.Class
	estimate time.Duration
}

// EnableAdmission switches the SLO admission gate on. Call once, after
// construction and before serving traffic; the gate's budget tunables
// are registered on the engine's control registry (visible in
// GET /api/v1/config and adaptable like any other tunable). Subsequent
// calls are no-ops.
func (s *Server) EnableAdmission(cfg AdmissionConfig) {
	if s.gate.Load() != nil {
		return
	}
	if cfg.BudgetStandard <= 0 {
		cfg.BudgetStandard = 2 * time.Second
	}
	if cfg.BudgetSheddable <= 0 {
		cfg.BudgetSheddable = 250 * time.Millisecond
	}
	if cfg.Headroom <= 0 {
		cfg.Headroom = 1.0
	}
	ctl := s.eng.Control()
	g := &admissionGate{s: s}
	g.budgetStandard = ctl.Duration("admission.budget_standard",
		"Predicted-wait budget for standard-class requests; above budget×headroom the request is shed.",
		cfg.BudgetStandard, cfg.BudgetStandard/64, cfg.BudgetStandard*64, control.SourceFlag)
	g.budgetSheddable = ctl.Duration("admission.budget_sheddable",
		"Predicted-wait budget for sheddable-class requests.",
		cfg.BudgetSheddable, cfg.BudgetSheddable/64, cfg.BudgetSheddable*64, control.SourceFlag)
	g.headroom = ctl.Float("admission.headroom",
		"Multiplier on class budgets (admit while estimate ≤ budget×headroom).",
		cfg.Headroom, 0.05, 16, control.SourceDefault)
	g.rateAt = time.Now()
	s.gate.Store(g)
	s.log.Info("slo admission enabled",
		"budget_standard", cfg.BudgetStandard,
		"budget_sheddable", cfg.BudgetSheddable,
		"headroom", cfg.Headroom)
}

// handleGated registers an expensive API route behind the admission
// gate, inside the observability middleware, so shed responses are still
// counted and timed like any other response.
func (s *Server) handleGated(pattern string, h spanHandler) {
	s.handleSpan(pattern, s.gated(pattern, h))
}

// gated wraps a handler with the admission gate; a traced request's span
// carries the gate's estimate and, when shed, the refusal. Disabled
// cost: one atomic load and a nil check.
func (s *Server) gated(route string, h spanHandler) spanHandler {
	rt := &routeGate{hist: s.httpHist.With(route)}
	return func(w http.ResponseWriter, r *http.Request, sp *trace.Span) {
		g := s.gate.Load()
		if g == nil {
			h(w, r, sp)
			return
		}
		v := g.decide(rt, r)
		sp.Annotate("admission_wait_estimate", v.estimate)
		if !v.admit {
			sp.Annotate("admission_shed", 1)
			sp.SetError()
			g.shed(w, v)
			return
		}
		h(w, r, sp)
	}
}

// decide evaluates one request. The order encodes the class contract:
// critical is admitted before any estimate is consulted, so no cost-model
// bug can ever shed it.
func (g *admissionGate) decide(rt *routeGate, r *http.Request) verdict {
	class := control.ClassFromHeader(r.Header)
	g.requests.Add(1)
	g.s.admReq[class].Inc()
	if class == control.Critical {
		return verdict{admit: true, class: class}
	}

	est := g.estimate(rt)
	g.s.admWaitEst.ObserveDuration(est)
	budget := g.budgetStandard
	if class == control.Sheddable {
		budget = g.budgetSheddable
	}
	if float64(est) > float64(budget.Load())*g.headroom.Load() {
		return verdict{class: class, estimate: est}
	}
	return verdict{admit: true, class: class, estimate: est}
}

// estimate predicts how long this request would wait: the requests
// already in flight times this route's own p50. The quantile is cached
// and refreshed at most every quantileRefresh, so steady-state decisions
// cost a few atomic loads.
func (g *admissionGate) estimate(rt *routeGate) time.Duration {
	if g.estimator != nil {
		return g.estimator(rt)
	}
	now := time.Now().UnixNano()
	if last := rt.lastRefresh.Load(); now-last > int64(quantileRefresh) && rt.lastRefresh.CompareAndSwap(last, now) {
		rt.p50.Store(math.Float64bits(rt.hist.Quantile(0.5)))
	}
	sec := float64(g.s.inflight.Value()) * math.Float64frombits(rt.p50.Load())
	return time.Duration(sec * float64(time.Second))
}

// shed writes the 429 refusal: Retry-After from the wait estimate
// (floor 1s — the client should at least let one publish interval
// pass), the shed reason header, and per-class/per-reason accounting.
func (g *admissionGate) shed(w http.ResponseWriter, v verdict) {
	g.sheds.Add(1)
	g.s.admShed[v.class].Add(1)
	g.s.admBudgetShed.Inc()
	w.Header().Set("Retry-After", retryAfterSeconds(v.estimate))
	w.Header().Set(ShedReasonHeader, shedReasonBudget)
	g.s.writeError(w, http.StatusTooManyRequests,
		"overloaded: %s-class request shed (%s); retry after the indicated delay", v.class, shedReasonBudget)
}

// retryAfterSeconds renders a wait estimate as a whole-second
// Retry-After value, minimum 1.
func retryAfterSeconds(est time.Duration) string {
	secs := int64(math.Ceil(est.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// ShedRate reports the fraction of gate-evaluated requests shed over
// the most recent ~1s window. The gateway's probe loop reads it (via
// /api/v1/cluster/status) to decide edge shedding.
func (g *admissionGate) ShedRate() float64 {
	g.rateMu.Lock()
	now := time.Now()
	if now.Sub(g.rateAt) >= time.Second {
		req, shed := g.requests.Load(), g.sheds.Load()
		r := 0.0
		if d := req - g.rateReq; d > 0 {
			r = float64(shed-g.rateShed) / float64(d)
		}
		g.rate.Store(math.Float64bits(r))
		g.rateAt, g.rateReq, g.rateShed = now, req, shed
	}
	g.rateMu.Unlock()
	return math.Float64frombits(g.rate.Load())
}

// ShedRate reports the server's current shed rate: the gate's rolling
// window, or 0 while admission is disabled.
func (s *Server) ShedRate() float64 {
	if g := s.gate.Load(); g != nil {
		return g.ShedRate()
	}
	return 0
}

// ---------------------------------------------------------------------------
// Config API: live inspection and override of registered tunables.

// TunableInfo is one tunable in GET /api/v1/config.
type TunableInfo struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"` // int | duration | float
	Value    string `json:"value"`
	Baseline string `json:"baseline"` // flag value or package default
	Min      string `json:"min"`
	Max      string `json:"max"`
	Source   string `json:"source"` // default | flag | override
	Help     string `json:"help"`
}

// ConfigResponse is the body of GET /api/v1/config.
type ConfigResponse struct {
	Tunables []TunableInfo `json:"tunables"`
}

// ConfigUpdateRequest is the body of PUT /api/v1/config: tunable name →
// new value (parsed per the tunable's kind; durations as "80ms").
type ConfigUpdateRequest struct {
	Set map[string]string `json:"set"`
}

// ConfigUpdateResponse reports per-name outcomes of a PUT. Updates are
// applied independently in name order: entries in Applied took effect
// even when Errors is non-empty (the response status is 400 then).
type ConfigUpdateResponse struct {
	Applied map[string]string `json:"applied,omitempty"`
	Errors  map[string]string `json:"errors,omitempty"`
}

func (s *Server) configRoutes() {
	s.handle("GET /api/v1/config", s.handleGetConfig)
	s.handle("PUT /api/v1/config", s.handlePutConfig)
}

func (s *Server) handleGetConfig(w http.ResponseWriter, _ *http.Request) {
	list := s.eng.Control().List()
	resp := ConfigResponse{Tunables: make([]TunableInfo, 0, len(list))}
	for _, t := range list {
		resp.Tunables = append(resp.Tunables, TunableInfo{
			Name:     t.Name(),
			Kind:     t.Kind(),
			Value:    t.Value(),
			Baseline: t.Baseline(),
			Min:      t.MinString(),
			Max:      t.MaxString(),
			Source:   t.Source().String(),
			Help:     t.Help(),
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePutConfig(w http.ResponseWriter, r *http.Request) {
	var req ConfigUpdateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.countError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if len(req.Set) == 0 {
		s.countError(w, http.StatusBadRequest, "no tunables in request (expected {\"set\": {name: value}})")
		return
	}
	ctl := s.eng.Control()
	names := make([]string, 0, len(req.Set))
	for name := range req.Set {
		names = append(names, name)
	}
	sort.Strings(names)
	resp := ConfigUpdateResponse{}
	for _, name := range names {
		t, ok := ctl.Lookup(name)
		if !ok {
			if resp.Errors == nil {
				resp.Errors = map[string]string{}
			}
			resp.Errors[name] = "unknown tunable"
			continue
		}
		if err := t.SetString(req.Set[name], control.SourceOverride); err != nil {
			if resp.Errors == nil {
				resp.Errors = map[string]string{}
			}
			resp.Errors[name] = err.Error()
			continue
		}
		if resp.Applied == nil {
			resp.Applied = map[string]string{}
		}
		resp.Applied[name] = t.Value()
		s.log.Info("tunable overridden", "tunable", name, "value", t.Value())
	}
	status := http.StatusOK
	if len(resp.Errors) > 0 {
		status = http.StatusBadRequest
		s.metrics.badRequests.Add(1)
	}
	s.writeJSON(w, status, resp)
}
