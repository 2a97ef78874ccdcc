package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/obs"
	"github.com/qoslab/amf/internal/obs/trace"
	"github.com/qoslab/amf/internal/store"
)

func testConfig() core.Config {
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	return cfg
}

func mustModel(cfg core.Config) *core.Model { return core.MustNew(cfg) }

func newReqWithHeader(method, path, key, val string) (*http.Request, *httptest.ResponseRecorder) {
	req := httptest.NewRequest(method, path, nil)
	req.Header.Set(key, val)
	return req, httptest.NewRecorder()
}

// TestMetricsPrometheusGrammar validates the entire /metrics page against
// the strict text-format parser: every family HELP/TYPE'd, every counter
// _total, histogram buckets cumulative with le="+Inf", _count == +Inf.
func TestMetricsPrometheusGrammar(t *testing.T) {
	s := testServer(t)
	observeSome(t, s)
	doReq(t, s, http.MethodGet, "/api/v1/predict?user=u1&service=s1", nil)
	doReq(t, s, http.MethodGet, "/api/v1/predict?user=ghost&service=s1", nil)
	doReq(t, s, http.MethodPost, "/api/v1/predict", BatchPredictRequest{User: "u1", Services: []string{"s0", "s1"}})
	doReq(t, s, http.MethodDelete, "/api/v1/users?name=u3", nil)
	doReq(t, s, http.MethodGet, "/api/v1/flagged?threshold=0.5", nil)
	doReq(t, s, http.MethodGet, "/metrics", nil) // self-scrape counts too

	w := doReq(t, s, http.MethodGet, "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	tm, err := obs.ParseMetrics(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, w.Body.String())
	}
	if err := tm.Validate(); err != nil {
		t.Fatalf("/metrics does not validate: %v\n%s", err, w.Body.String())
	}

	// The catalog the acceptance criteria call out.
	for _, fam := range []string{
		"amf_http_request_duration_seconds", // per-route latency histograms
		"amf_http_requests_in_flight",
		"amf_http_responses_total",
		"amf_engine_apply_seconds",
		"amf_engine_publish_seconds",
		"amf_accuracy_mre",  // live EMA/median accuracy
		"amf_accuracy_npre", // live tail accuracy
		"amf_accuracy_ema_relative_error",
		"amf_uptime_seconds",
	} {
		if _, ok := tm.Families[fam]; !ok {
			t.Errorf("metrics missing family %s", fam)
		}
	}

	// Per-route series exist for the routes we exercised.
	f := tm.Families["amf_http_request_duration_seconds"]
	routes := map[string]bool{}
	for _, smp := range f.Samples {
		routes[smp.Labels["route"]] = true
	}
	for _, want := range []string{"GET /api/v1/predict", "POST /api/v1/observe", "GET /metrics"} {
		if !routes[want] {
			t.Errorf("no latency series for route %q (have %v)", want, routes)
		}
	}

	// Status classes counted.
	if v, ok := tm.Value("amf_http_responses_total", map[string]string{"code": "2xx"}); !ok || v < 5 {
		t.Errorf("2xx responses = %g, %v", v, ok)
	}
	if v, ok := tm.Value("amf_http_responses_total", map[string]string{"code": "4xx"}); !ok || v < 1 {
		t.Errorf("4xx responses = %g, %v", v, ok)
	}

	// The only request in flight during the scrape is the scrape itself,
	// and the gauge returns to zero once it completes.
	if v, _ := tm.Value("amf_http_requests_in_flight", nil); v != 1 {
		t.Errorf("in-flight during scrape = %g, want 1 (the scrape)", v)
	}
	if v := s.inflight.Value(); v != 0 {
		t.Errorf("in-flight at rest = %d, want 0", v)
	}

	// Old-name counters kept their values and _total suffix.
	if v, _ := tm.Value("amf_observations_total", nil); v != 20 {
		t.Errorf("amf_observations_total = %g, want 20", v)
	}
	// The ms-suffixed uptime gauge is gone.
	if strings.Contains(w.Body.String(), "amf_uptime_ms") {
		t.Error("amf_uptime_ms still exposed")
	}
}

// TestLiveAccuracyTracksObservations: the engine scores what clients
// observe, through both write doors, against the model's own
// prediction from just before each sample trained it — and scores nothing
// that is a log being replayed (WAL recovery, replication apply).
func TestLiveAccuracyTracksObservations(t *testing.T) {
	dir := t.TempDir()
	s, _, ts := leaderServer(t, dir, store.SyncGroup)
	observeSome(t, s) // first sightings: all unscored
	if s.acc.Samples() != 0 {
		t.Fatalf("first sightings were scored: %d", s.acc.Samples())
	}
	if s.acc.Misses() != 20 {
		t.Fatalf("misses = %d, want 20", s.acc.Misses())
	}
	// A user that joins in a batch is a first sighting for the whole
	// batch: by its second sample the writer's model knows it, but no
	// reader could have been served a prediction for it.
	var joining []Observation
	for j := 0; j < 5; j++ {
		joining = append(joining, Observation{User: "joiner", Service: fmt.Sprintf("s%d", j), Value: 1.5})
	}
	if w := doReq(t, s, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: joining}); w.Code != http.StatusOK {
		t.Fatalf("observe status %d: %s", w.Code, w.Body.String())
	}
	if s.acc.Samples() != 0 || s.acc.Misses() != 25 {
		t.Fatalf("a user joining mid-batch: %d scored, %d misses; want 0 and 25", s.acc.Samples(), s.acc.Misses())
	}
	observeSome(t, s) // repeats: every pair now has a prior prediction
	if s.acc.Samples() != 20 {
		t.Fatalf("samples = %d, want 20", s.acc.Samples())
	}
	if mre := s.acc.MRE(); mre <= 0 {
		t.Fatalf("live MRE = %g after scored samples", mre)
	}
	// The TCP-ingest path commits through the same observe, scored alike.
	if err := observeStream(s, "u0", "s0", 1.0); err != nil {
		t.Fatal(err)
	}
	if s.acc.Samples() != 21 {
		t.Fatalf("ingest sample not scored: %d", s.acc.Samples())
	}

	// Replication apply: the follower trains on the leader's stream, pairs
	// it has published included, and scores none of it.
	f := startFollower(t, FollowerConfig{Leader: ts.URL, LeaderData: dir})
	waitFor(t, 5*time.Second, "bootstrap state", func() bool {
		return f.Engine().View().Updates() == s.Engine().View().Updates()
	})
	observeSome(t, s)
	if s.acc.Samples() != 41 {
		t.Fatalf("samples = %d on the leader, want 41", s.acc.Samples())
	}
	waitFor(t, 5*time.Second, "tailed observations", func() bool {
		return f.Engine().View().Updates() == s.Engine().View().Updates()
	})
	if f.acc.Samples() != 0 || f.acc.Misses() != 0 {
		t.Fatalf("replication apply was scored: %d samples, %d misses", f.acc.Samples(), f.acc.Misses())
	}

	// WAL recovery: a second server on the same directory (the first
	// abandoned as a crash would) replays every sample and scores none.
	s2, _, rs := durableServer(t, dir, store.SyncGroup)
	defer s2.Close()
	if rs.Samples != 66 {
		t.Fatalf("recovery replayed %d samples, want 66", rs.Samples)
	}
	if s2.acc.Samples() != 0 || s2.acc.Misses() != 0 {
		t.Fatalf("WAL recovery was scored: %d samples, %d misses", s2.acc.Samples(), s2.acc.Misses())
	}
	// The recovered server scores again from its first client write.
	observeSome(t, s2)
	if s2.acc.Samples() != 20 {
		t.Fatalf("samples = %d after recovery and one repeat batch, want 20", s2.acc.Samples())
	}
}

func TestReadyz(t *testing.T) {
	s := testServer(t)
	w := doReq(t, s, http.MethodGet, "/readyz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("readyz = %d before close", w.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ready" {
		t.Fatalf("status %q", body["status"])
	}
	s.Close()
	if w := doReq(t, s, http.MethodGet, "/readyz", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d after close, want 503", w.Code)
	}
	// healthz (liveness) keeps succeeding: the process is healthy even
	// while draining.
	if w := doReq(t, s, http.MethodGet, "/healthz", nil); w.Code != http.StatusOK {
		t.Fatalf("healthz = %d after close", w.Code)
	}
}

func TestRequestIDHeader(t *testing.T) {
	// Client-supplied IDs are always echoed (either header spelling).
	s := testServer(t)
	req, w := newReqWithHeader(http.MethodGet, "/healthz", "X-Request-ID", "trace-123")
	s.Handler().ServeHTTP(w, req)
	if got := w.Header().Get("X-Request-ID"); got != "trace-123" {
		t.Fatalf("request id %q, want trace-123", got)
	}
	// Untraced requests pay nothing: no generated ID unless request
	// logging will consume it.
	if w := doReq(t, s, http.MethodGet, "/healthz", nil); w.Header().Get("X-Request-ID") != "" {
		t.Fatalf("unexpected generated id %q without request logging", w.Header().Get("X-Request-ID"))
	}
	// With debug-level request logging, IDs are minted and returned.
	lg := slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug}))
	s2 := New(mustModel(testConfig()), WithLogger(lg))
	if w := doReq(t, s2, http.MethodGet, "/healthz", nil); w.Header().Get("X-Request-ID") == "" {
		t.Fatal("no X-Request-ID assigned with request logging enabled")
	}
}

func TestSlowRequestLogged(t *testing.T) {
	var buf bytes.Buffer
	lg := slog.New(slog.NewJSONHandler(&buf, nil))
	cfg := testConfig()
	s := New(mustModel(cfg), WithLogger(lg), WithSlowRequestThreshold(time.Nanosecond))
	doReq(t, s, http.MethodGet, "/healthz", nil)
	if !strings.Contains(buf.String(), "slow request") {
		t.Fatalf("no slow-request warning: %s", buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.SplitN(buf.String(), "\n", 2)[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["route"] != "GET /healthz" || rec["request_id"] == "" {
		t.Fatalf("slow log missing fields: %v", rec)
	}
}

// TestTracedRequestAdoptsHeader: a request carrying X-Amf-Trace echoes
// the header's trace ID as X-Request-Id, records its span under that
// trace and parent, and — past the slow threshold, where the span is
// already finished and recycled — logs the trace's own link.
func TestTracedRequestAdoptsHeader(t *testing.T) {
	var buf bytes.Buffer
	lg := slog.New(slog.NewJSONHandler(&buf, nil))
	s := New(mustModel(testConfig()), WithLogger(lg), WithSlowRequestThreshold(time.Nanosecond))
	defer s.Close()
	id := trace.NewID()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set(trace.Header, trace.HeaderValue(id, 7))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if got := w.Header().Get(requestIDHeader); got != id.String() {
		t.Fatalf("X-Request-Id = %q, want the trace ID %q", got, id)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.SplitN(buf.String(), "\n", 2)[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["request_id"] != id.String() || rec["trace"] != "/debug/traces?trace="+id.String() {
		t.Fatalf("slow log names request %v, trace %v; want %s", rec["request_id"], rec["trace"], id)
	}
	w = doReq(t, s, http.MethodGet, "/debug/traces?trace="+id.String(), nil)
	var page struct {
		Traces []struct {
			Spans []struct{ Name, Parent string }
		}
	}
	if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Traces) != 1 || len(page.Traces[0].Spans) != 1 ||
		page.Traces[0].Spans[0].Name != "GET /healthz" || page.Traces[0].Spans[0].Parent != trace.SpanID(7).String() {
		t.Fatalf("/debug/traces for %s: %+v, want one GET /healthz span under parent 7", id, page.Traces)
	}
}

func TestPprofEndpoints(t *testing.T) {
	s := testServer(t)
	if w := doReq(t, s, http.MethodGet, "/debug/pprof/", nil); w.Code != http.StatusNotFound {
		t.Fatalf("pprof mounted without EnablePprof: %d", w.Code)
	}
	s.EnablePprof()
	if w := doReq(t, s, http.MethodGet, "/debug/pprof/", nil); w.Code != http.StatusOK {
		t.Fatalf("pprof index = %d", w.Code)
	}
	if w := doReq(t, s, http.MethodGet, "/debug/pprof/cmdline", nil); w.Code != http.StatusOK {
		t.Fatalf("pprof cmdline = %d", w.Code)
	}
}
