package server

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/qoslab/amf/internal/control"
	"github.com/qoslab/amf/internal/obs"
	"github.com/qoslab/amf/internal/obs/trace"
)

// This file wires the observability layer (internal/obs) through the HTTP
// service: the metric registry behind /metrics, the per-route middleware,
// the live accuracy tracker the engine feeds, and optional pprof.

// counters holds the service's operational counters, registered on the
// obs registry at construction.
type counters struct {
	observations     *obs.Counter // accepted QoS observations
	predictions      *obs.Counter // single predictions served
	batchPredictions *obs.Counter // batch prediction entries served
	notFound         *obs.Counter // 404 responses (unknown users/services)
	badRequests      *obs.Counter // 400-level rejections
	churnRemovals    *obs.Counter // users/services deregistered
	rankRequests     *obs.Counter // candidate rankings served
	rankCandidates   *obs.Counter // candidates scanned across all rankings
}

// buildMetrics constructs the registry and every metric family the server
// exports. Called once from NewWithEngine, before routes are registered.
func (s *Server) buildMetrics() {
	r := obs.NewRegistry()
	s.reg = r

	// Service counters.
	s.metrics = counters{
		observations:     r.NewCounter("amf_observations_total", "QoS observations accepted (HTTP observe + TCP ingest)."),
		predictions:      r.NewCounter("amf_predictions_total", "Single predictions served."),
		batchPredictions: r.NewCounter("amf_batch_predictions_total", "Batch prediction entries served."),
		notFound:         r.NewCounter("amf_not_found_total", "404 responses (unknown users/services)."),
		badRequests:      r.NewCounter("amf_bad_requests_total", "400-level request rejections."),
		churnRemovals:    r.NewCounter("amf_churn_removals_total", "Users/services deregistered (churn departures)."),
		rankRequests:     r.NewCounter("amf_rank_requests_total", "Candidate rankings served."),
		rankCandidates:   r.NewCounter("amf_rank_candidates_total", "Candidates scanned across all ranking requests."),
	}

	// Ranking fast path: latency by execution mode (serial = a candidate
	// list, full_scan = the whole catalog). Unsampled — rankings are
	// orders of magnitude rarer than predicts and each one is worth
	// timing. The mode children are materialized up front so /metrics
	// always exposes the full family (and so the exposition validates
	// before the first ranking arrives).
	s.rankLatency = r.NewHistogramVec("amf_rank_latency_seconds",
		"Candidate-ranking latency by execution mode.", "mode", 1e-6, 60, 8)
	for _, mode := range []string{"serial", "full_scan"} {
		s.rankLatency.With(mode)
	}

	// Build identification (ldflags-stamped).
	obs.RegisterBuildInfo(r)

	// Model gauges.
	r.GaugeFunc("amf_model_users", "Users currently registered.", func() float64 { return float64(s.users.Len()) })
	r.GaugeFunc("amf_model_services", "Services currently registered.", func() float64 { return float64(s.services.Len()) })
	r.CounterFunc("amf_model_updates_total", "SGD updates applied to the model.", s.eng.Updates)
	r.GaugeFunc("amf_uptime_seconds", "Seconds since the server started.",
		func() float64 { return s.now().Sub(s.base).Seconds() })

	// Serving-engine health: what was applied and published, and the
	// latency histograms the engine maintains internally.
	eng := s.eng
	r.CounterFunc("amf_engine_applied_total", "Samples applied to the model.",
		func() int64 { return eng.Stats().Applied })
	r.CounterFunc("amf_engine_replayed_total", "Replay updates performed by or through the engine.",
		func() int64 { return eng.Stats().Replayed })
	r.CounterFunc("amf_engine_published_total", "Read views published (RCU pointer swings).",
		func() int64 { return eng.Stats().Published })
	r.GaugeFunc("amf_engine_view_version", "Version of the currently published read view.",
		func() float64 { return float64(eng.Stats().Version) })
	em := eng.Metrics()
	r.RegisterHistogram("amf_engine_apply_seconds",
		"Per-update model apply latency, observes and replay alike: time inside the SGD step only (no journal append), batch mean attributed to each update.", em.Apply)
	r.RegisterHistogram("amf_engine_publish_seconds",
		"View refresh+publish latency (dirty-page copy plus pointer swing).", em.Publish)

	// SLO admission (see admission.go). Families are registered even
	// while the gate is disabled — they read zero — so the metrics
	// surface does not depend on flags.
	admReqVec := r.NewCounterVec("amf_admission_requests_total",
		"Requests evaluated by the SLO admission gate, by class (0 while admission is disabled).", "class")
	shedVec := r.NewCounterFuncVec("amf_admission_shed_total",
		"Requests the SLO admission gate refused, by class.", "class")
	for _, c := range control.Classes() {
		s.admReq[c] = admReqVec.With(c.String())
		shedVec.With(c.String(), s.admShed[c].Load) // critical: 0 by construction
	}
	s.admBudgetShed = r.NewCounterVec("amf_admission_shed_reasons_total",
		"Gate refusals by reason: slo_budget (predicted wait over the class budget).", "reason").With(shedReasonBudget)
	s.admWaitEst = obs.NewHistogram(1e-6, 600, 8)
	r.RegisterHistogram("amf_admission_wait_estimate_seconds",
		"Predicted wait computed by the admission gate for non-critical requests.", s.admWaitEst)
	r.GaugeFunc("amf_admission_enabled", "1 while the SLO admission gate is active.",
		func() float64 {
			if s.gate.Load() != nil {
				return 1
			}
			return 0
		})

	// HTTP middleware metrics.
	s.httpHist = r.NewHistogramVec("amf_http_request_duration_seconds",
		"HTTP request latency by route (1-in-8 sampled, weight-8 attribution).", "route", 1e-6, 60, 8)
	s.inflight = r.NewGauge("amf_http_requests_in_flight", "HTTP requests currently being served.")
	statusVec := r.NewCounterVec("amf_http_responses_total", "HTTP responses by status class.", "code")
	for class := 1; class <= 5; class++ {
		s.statusClass[class] = statusVec.With(strconv.Itoa(class) + "xx")
	}

	// Live accuracy: the paper's §V metrics as runtime gauges, fed by the
	// engine as it applies what clients observe (both observe doors; a
	// replayed WAL or replication stream is not scored).
	view := s.eng.Pin()
	s.acc = obs.NewAccuracyTracker(view.Config().Beta)
	s.eng.Unpin(view)
	s.acc.Register(r, "amf_accuracy")
	s.eng.SetAccuracy(s.acc)
}

// requestIDHeader is spelled in canonical MIME form so Header.Get and
// direct map assignment skip the per-call canonicalization alloc that
// "X-Request-ID" would pay. Clients may send either spelling.
const requestIDHeader = "X-Request-Id"

// latencySampleMask selects which requests are timed: request n (a
// per-route counter) is sampled when n&mask == 1, i.e. the first
// request on each route and every 8th thereafter. On virtualized hosts
// without a vDSO clock fast path, the two clock reads a latency
// measurement needs cost more than the rest of the middleware combined;
// 1-in-8 sampling with weight-8 attribution keeps the histograms
// statistically faithful while amortizing the clock cost to ~1/8 per
// request. Debug-level request logging forces every request onto the
// timed path (tracing wants exact per-request durations).
const latencySampleMask = 7

// handle registers a route through the observability middleware: per-route
// latency histogram, in-flight gauge, request IDs, and slow-request
// logging. The amortized fast-path cost is a few atomic adds —
// BenchmarkPredictPath holds it within 5% of the lock-free predict path.
// The deliberate fast-path choices that keep it there:
//
//   - no ResponseWriter wrapper: status classes are tallied by
//     writeJSON/countStatus where the status is known, so the handler
//     keeps the concrete writer and the middleware allocates nothing;
//   - sampled latency timing (see latencySampleMask): untimed requests
//     skip both clock reads; timed ones record with the sample weight
//     so bucket counts still approximate true request totals.
//     Slow-request detection rides the timed subset — a persistent
//     slowness regime is still caught within a handful of requests;
//   - debug request logs are gated on a cached Enabled check (no slog
//     argument boxing when disabled);
//   - request-ID handling rides the timed subset, where it has a
//     consumer: a client-sent ID is echoed and logged on timed
//     requests (the first and every 8th per route — deterministic for
//     single-shot probes), one is generated up front when request
//     logging is enabled (which forces every request onto the timed
//     path), and slow requests get one after the fact for the warning;
//   - trace adoption costs the untraced path one header-map index. A
//     request carrying a valid X-Amf-Trace header (stamped by the
//     gateway) opens a span under the gateway's trace ID, adopts that
//     ID as its request ID (so gateway and shard log lines correlate),
//     and rides the timed path for an exact duration — but does NOT
//     perturb the latency histograms: the 1-in-8 sampling counter
//     still decides which requests are recorded, traced or not. The
//     span reaches the route as an argument (see spanHandler), not
//     through the request's context, so adoption copies no request.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.handleSpan(pattern, func(w http.ResponseWriter, r *http.Request, _ *trace.Span) { h(w, r) })
}

// spanHandler is a route that reads the span the middleware adopted for
// its request — nil on an untraced one. The span dies when the route
// returns: the middleware finishes it, and Finish recycles it.
type spanHandler func(w http.ResponseWriter, r *http.Request, sp *trace.Span)

// handleSpan registers a spanHandler through the middleware (see handle).
func (s *Server) handleSpan(pattern string, h spanHandler) {
	hist := s.httpHist.With(pattern)
	tick := new(atomic.Uint64) // per-route sampling counter
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		// net/http stores parsed request headers under canonical keys,
		// so direct map indexes replace Header.Get's canonicalization.
		var (
			sp  *trace.Span
			tid trace.ID // sp's trace ID, which outlives sp for the slow-request log
			rid string
		)
		if vals := r.Header[trace.Header]; len(vals) > 0 {
			if id, parent, ok := trace.ParseHeader(vals[0]); ok {
				sp, tid = s.traces.Start(id, parent, pattern), id
				// Adopt the gateway's trace ID as the request ID: one
				// identifier names the request at every hop. It is the
				// header's own 32-hex prefix, not a second rendering.
				rid = vals[0][:32]
			}
		}
		sampled := tick.Add(1)&latencySampleMask == 1
		timed := sampled || s.logDebug || sp != nil
		var start time.Time
		if timed {
			start = time.Now()
			if vals := r.Header[requestIDHeader]; rid == "" && len(vals) > 0 {
				rid = vals[0]
			}
			if rid == "" && s.logDebug {
				rid = s.nextRequestID()
			}
			if rid != "" {
				w.Header()[requestIDHeader] = []string{rid}
			}
		}
		s.inflight.Add(1)
		h(w, r, sp)
		s.inflight.Add(-1)
		if !timed {
			return
		}
		d := time.Since(start)
		if sampled || s.logDebug {
			hist.ObserveDurationN(d, latencySampleMask+1)
		}
		sp.Finish(d) // sp is dead from here on
		switch {
		case d >= s.slowThreshold:
			if rid == "" {
				rid = s.nextRequestID()
			}
			if !tid.IsZero() {
				s.log.Warn("slow request", "route", pattern,
					"request_id", rid, "duration", d,
					"trace", "/debug/traces?trace="+tid.String())
			} else {
				s.log.Warn("slow request",
					"route", pattern, "request_id", rid, "duration", d)
			}
		case s.logDebug:
			s.log.Debug("request",
				"route", pattern, "request_id", rid, "duration", d)
		}
	})
}

// nextRequestID mints a short unique request id: a monotonic counter
// rendered in base36 ("r1", "r2", … "rzz", …).
func (s *Server) nextRequestID() string {
	var buf [14]byte
	buf[0] = 'r'
	return string(strconv.AppendUint(buf[:1], s.reqSeq.Add(1), 36))
}

// EnablePprof mounts net/http/pprof's profiling endpoints under
// /debug/pprof/ on the service mux (outside the middleware: profile
// downloads run for seconds by design and would pollute the latency
// histograms). Call before serving; amfserver wires it to -pprof.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	s.log.Info("pprof enabled", "path", "/debug/pprof/")
}
