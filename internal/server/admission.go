package server

import (
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/qoslab/amf/internal/obs"
	"github.com/qoslab/amf/internal/obs/trace"
)

// This file is the server's SLO-gated admission layer: a predictive
// admission gate on the expensive API routes (observe, predict, rank). It
// parses the request's X-Amf-Slo-Class header, estimates how long the
// request would wait from the requests in flight and the route's own
// latency, and refuses work whose class budget the estimate blows — with
// a 429, a Retry-After derived from the estimate, and an
// X-Amf-Shed-Reason header. Critical-class requests are NEVER shed, by
// construction (the gate admits them before any estimate is computed).
// The file also owns the SLO class vocabulary, which the gateway reads
// and forwards on the same header.
//
// With admission disabled (the default) the gate costs one atomic
// pointer load + nil check per gated route.

// Class is a request's SLO class. Classes order from most to least
// important: admission never sheds Critical, and Standard and Sheddable
// are shed when the predicted wait blows their class budget (Sheddable's
// is the tighter one).
type Class uint8

const (
	Critical Class = iota
	Standard
	Sheddable
	// NumClasses sizes per-class arrays indexed by Class.
	NumClasses = 3
)

// ClassHeader is the HTTP header carrying the SLO class end to end
// (client → gateway → server).
const ClassHeader = "X-Amf-Slo-Class"

func (c Class) String() string {
	switch c {
	case Critical:
		return "critical"
	case Sheddable:
		return "sheddable"
	default:
		return "standard"
	}
}

// Classes lists every SLO class, most important first.
func Classes() []Class { return []Class{Critical, Standard, Sheddable} }

// parseClass maps the wire form to a Class. Unknown or empty strings
// report ok=false; callers default to Standard.
func parseClass(s string) (Class, bool) {
	switch s {
	case "critical":
		return Critical, true
	case "standard":
		return Standard, true
	case "sheddable":
		return Sheddable, true
	}
	return Standard, false
}

// ClassFromHeader reads the request's SLO class, defaulting to
// Standard when the header is absent or unrecognised.
func ClassFromHeader(h http.Header) Class {
	c, _ := parseClass(h.Get(ClassHeader))
	return c
}

// ShedReasonHeader names why a request was refused: "slo_budget"
// (predicted wait exceeds the class budget) or "follower" (a write sent
// to a follower). The gateway relays it verbatim and sets none itself.
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
}

// admissionGate is the per-server gate state. One instance per
// EnableAdmission call, reached through an atomic pointer so the
// disabled fast path stays branch-plus-load cheap.
type admissionGate struct {
	s *Server

	// Per-class predicted-wait budgets, fixed at EnableAdmission.
	budgetStandard  time.Duration
	budgetSheddable time.Duration

	// estimator overrides the cost model in tests (forced-overload
	// invariant tests); nil in production.
	estimator func(rt *routeGate) time.Duration
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
	class    Class
	estimate time.Duration
}

// EnableAdmission switches the SLO admission gate on. Call once, after
// construction and before serving traffic; the budgets are read once,
// here. Subsequent calls are no-ops.
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
	g := &admissionGate{s: s, budgetStandard: cfg.BudgetStandard, budgetSheddable: cfg.BudgetSheddable}
	s.gate.Store(g)
	s.log.Info("slo admission enabled",
		"budget_standard", cfg.BudgetStandard,
		"budget_sheddable", cfg.BudgetSheddable)
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
	class := ClassFromHeader(r.Header)
	g.s.admReq[class].Inc()
	if class == Critical {
		return verdict{admit: true, class: class}
	}

	est := g.estimate(rt)
	g.s.admWaitEst.ObserveDuration(est)
	budget := g.budgetStandard
	if class == Sheddable {
		budget = g.budgetSheddable
	}
	if est > budget {
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
	g.s.admShed[v.class].Add(1)
	w.Header().Set("Retry-After", RetryAfter(v.estimate))
	w.Header().Set(ShedReasonHeader, shedReasonBudget)
	g.s.writeError(w, http.StatusTooManyRequests,
		"overloaded: %s-class request shed (%s); retry after the indicated delay", v.class, shedReasonBudget)
}

// RetryAfter renders a wait as a whole-second Retry-After value, rounded
// up, minimum 1: the one spelling of the hint on both hops.
func RetryAfter(wait time.Duration) string {
	secs := int64(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
