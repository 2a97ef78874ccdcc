package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/control"
	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/obs"
)

func admissionModel(t testing.TB) *core.Model {
	t.Helper()
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	return core.MustNew(cfg)
}

// gatedServer builds a server with admission enabled and the cost model
// replaced by a fixed estimate, so overload is deterministic: any
// non-critical request sheds when est exceeds its class budget.
func gatedServer(t testing.TB, est time.Duration) *Server {
	t.Helper()
	s := New(admissionModel(t))
	t.Cleanup(s.Close)
	s.EnableAdmission(AdmissionConfig{BudgetStandard: 100 * time.Millisecond, BudgetSheddable: 10 * time.Millisecond})
	s.gate.Load().estimator = func(*routeGate) time.Duration { return est }
	return s
}

func classedReq(t testing.TB, s *Server, class string, obs []Observation) *httptest.ResponseRecorder {
	t.Helper()
	body := ObserveRequest{Observations: obs}
	req := httptest.NewRequest(http.MethodPost, "/api/v1/observe", marshalBody(t, body))
	if class != "" {
		req.Header.Set(control.ClassHeader, class)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func marshalBody(t testing.TB, v any) *strings.Reader {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return strings.NewReader(string(buf))
}

func decodeBody(t testing.TB, w *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
		t.Fatalf("decode body %q: %v", w.Body.String(), err)
	}
}

func oneObs(u string) []Observation {
	return []Observation{{User: u, Service: "svc", Value: 1.5}}
}

// TestAdmissionShedContract pins the shed response shape (satellite:
// every shed carries Retry-After and X-Amf-Shed-Reason) and the class
// contract at the HTTP layer: critical always passes, standard and
// sheddable shed when the predicted wait exceeds their budget, and the
// default class (no header, or an unknown value) is standard.
func TestAdmissionShedContract(t *testing.T) {
	s := gatedServer(t, 30*time.Second) // over every budget

	if w := classedReq(t, s, "critical", oneObs("u1")); w.Code != http.StatusOK {
		t.Fatalf("critical: status %d, want 200: %s", w.Code, w.Body.String())
	}
	for _, class := range []string{"", "standard", "sheddable", "bogus-class"} {
		w := classedReq(t, s, class, oneObs("u2"))
		if w.Code != http.StatusTooManyRequests {
			t.Fatalf("class %q: status %d, want 429: %s", class, w.Code, w.Body.String())
		}
		if got := w.Header().Get(ShedReasonHeader); got != shedReasonBudget {
			t.Fatalf("class %q: shed reason %q, want %q", class, got, shedReasonBudget)
		}
		ra, err := strconv.Atoi(w.Header().Get("Retry-After"))
		if err != nil || ra < 1 {
			t.Fatalf("class %q: Retry-After %q, want integer >= 1", class, w.Header().Get("Retry-After"))
		}
		// 30s estimate should surface as a 30s retry hint, not the floor.
		if ra != 30 {
			t.Fatalf("class %q: Retry-After %d, want 30 (ceil of estimate)", class, ra)
		}
	}

	// Below-budget estimate admits everything again.
	s.gate.Load().estimator = func(*routeGate) time.Duration { return time.Millisecond }
	for _, class := range []string{"critical", "standard", "sheddable"} {
		if w := classedReq(t, s, class, oneObs("u3")); w.Code != http.StatusOK {
			t.Fatalf("calm %s: status %d, want 200: %s", class, w.Code, w.Body.String())
		}
	}
}

// TestAdmissionDisabledIsInert: without EnableAdmission the gate is a
// nil pointer — classed requests flow through untouched and the
// admission metric families expose zeros.
func TestAdmissionDisabledIsInert(t *testing.T) {
	s := testServer(t)
	t.Cleanup(s.Close)
	if s.gate.Load() != nil {
		t.Fatal("admission enabled on a fresh server")
	}
	if w := classedReq(t, s, "sheddable", oneObs("u1")); w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", w.Code, w.Body.String())
	}
	tm := scrapeMetrics(t, s)
	if v := metricValue(t, tm, "amf_admission_enabled", "", ""); v != 0 {
		t.Fatalf("amf_admission_enabled = %v, want 0", v)
	}
	if v := metricValue(t, tm, "amf_admission_requests_total", "class", "sheddable"); v != 0 {
		t.Fatalf("requests counted while disabled: %v", v)
	}
}

// TestAdmissionCriticalNeverShed is the satellite-3 stress test: under
// forced overload, with concurrent critical and sheddable traffic plus
// live config overrides and metrics scrapes racing the gate, every
// critical request succeeds and every sheddable request sheds. Run
// under -race this also proves the gate's hot path is data-race free.
func TestAdmissionCriticalNeverShed(t *testing.T) {
	s := gatedServer(t, time.Hour) // absurdly overloaded, forever

	const workers = 8
	const perWorker = 60
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker+2)
	for w := 0; w < workers; w++ {
		class := "critical"
		want := http.StatusOK
		if w%2 == 1 {
			class = "sheddable"
			want = http.StatusTooManyRequests
		}
		wg.Add(1)
		go func(id int, class string, want int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rec := classedReq(t, s, class, oneObs(fmt.Sprintf("u%d", id)))
				if rec.Code != want {
					errs <- fmt.Errorf("%s request got %d, want %d: %s", class, rec.Code, want, rec.Body.String())
					return
				}
			}
		}(w, class, want)
	}
	// Race live overrides and scrapes against the request storm.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			hr := "1.0"
			if i%2 == 0 {
				hr = "2.0"
			}
			body := ConfigUpdateRequest{Set: map[string]string{"admission.headroom": hr}}
			req := httptest.NewRequest(http.MethodPut, "/api/v1/config", marshalBody(t, body))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				errs <- fmt.Errorf("config PUT got %d: %s", rec.Code, rec.Body.String())
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if _, err := obs.ParseMetrics(rec.Body); err != nil {
				errs <- fmt.Errorf("metrics scrape: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := s.admShed[control.Critical].Load(); got != 0 {
		t.Fatalf("critical sheds = %d, want 0", got)
	}
	wantShed := int64(workers / 2 * perWorker)
	if got := s.admShed[control.Sheddable].Load(); got != wantShed {
		t.Fatalf("sheddable sheds = %d, want %d", got, wantShed)
	}
	tm := scrapeMetrics(t, s)
	if v := metricValue(t, tm, "amf_admission_shed_total", "class", "critical"); v != 0 {
		t.Fatalf("amf_admission_shed_total{class=critical} = %v, want 0", v)
	}
	if v := metricValue(t, tm, "amf_admission_shed_reasons_total", "reason", "slo_budget"); int64(v) != wantShed {
		t.Fatalf("slo_budget reason count = %v, want %d", v, wantShed)
	}
}

// TestConfigAPI covers GET/PUT /api/v1/config: listing includes engine
// and gate tunables with bounds and source, overrides apply and pin,
// out-of-bounds and unknown names error without blocking the valid
// entries of the same request (partial apply, 400).
func TestConfigAPI(t *testing.T) {
	s := gatedServer(t, time.Millisecond)

	w := doReq(t, s, http.MethodGet, "/api/v1/config", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET config: status %d: %s", w.Code, w.Body.String())
	}
	var list ConfigResponse
	decodeBody(t, w, &list)
	byName := map[string]TunableInfo{}
	for _, ti := range list.Tunables {
		byName[ti.Name] = ti
	}
	if len(list.Tunables) != 4 {
		t.Fatalf("GET /api/v1/config lists %d tunables, want 4: %+v", len(list.Tunables), list.Tunables)
	}
	for _, name := range []string{
		"engine.replay_per_batch",
		"admission.budget_standard", "admission.budget_sheddable", "admission.headroom",
	} {
		ti, ok := byName[name]
		if !ok {
			t.Fatalf("tunable %s missing from GET /api/v1/config", name)
		}
		if ti.Min == "" || ti.Max == "" || ti.Help == "" || ti.Kind == "" {
			t.Fatalf("tunable %s incompletely described: %+v", name, ti)
		}
	}
	if src := byName["admission.budget_standard"].Source; src != "flag" {
		t.Fatalf("budget source %q, want flag", src)
	}

	// Valid override applies and pins.
	put := func(set map[string]string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPut, "/api/v1/config", marshalBody(t, ConfigUpdateRequest{Set: set}))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec
	}
	rec := put(map[string]string{"admission.headroom": "2"})
	if rec.Code != http.StatusOK {
		t.Fatalf("PUT: status %d: %s", rec.Code, rec.Body.String())
	}
	var upd ConfigUpdateResponse
	decodeBody(t, rec, &upd)
	if upd.Applied["admission.headroom"] != "2" {
		t.Fatalf("applied = %v", upd.Applied)
	}
	if got := s.gate.Load().headroom.Load(); got != 2 {
		t.Fatalf("headroom after PUT = %v, want 2", got)
	}
	w = doReq(t, s, http.MethodGet, "/api/v1/config", nil)
	decodeBody(t, w, &list)
	for _, ti := range list.Tunables {
		if ti.Name == "admission.headroom" && ti.Source != "override" {
			t.Fatalf("source after override = %q, want override", ti.Source)
		}
	}

	// Partial apply: one valid, one out-of-bounds, one unknown → 400,
	// valid entry still took effect.
	rec = put(map[string]string{
		"admission.headroom":        "4",
		"admission.budget_standard": "1000h", // way past max
		"no.such.tunable":           "1",
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("partial PUT: status %d, want 400: %s", rec.Code, rec.Body.String())
	}
	decodeBody(t, rec, &upd)
	if upd.Applied["admission.headroom"] != "4" {
		t.Fatalf("valid entry not applied: %+v", upd)
	}
	if len(upd.Errors) != 2 {
		t.Fatalf("errors = %v, want 2 entries", upd.Errors)
	}
	if got := s.gate.Load().headroom.Load(); got != 4 {
		t.Fatalf("headroom after partial PUT = %v, want 4", got)
	}

	// Empty set is a 400.
	if rec := put(nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty PUT: status %d, want 400", rec.Code)
	}
}

// BenchmarkAdmissionGate measures the per-request cost of an admission
// decision on the admitted path (class parse, cached-quantile estimate,
// budget check) — the overhead every gated route pays once admission is
// on.
func BenchmarkAdmissionGate(b *testing.B) {
	s := New(admissionModel(b))
	b.Cleanup(s.Close)
	s.EnableAdmission(AdmissionConfig{})
	g := s.gate.Load()
	rt := &routeGate{hist: s.httpHist.With("bench")}
	req := httptest.NewRequest(http.MethodPost, "/api/v1/observe", nil)
	req.Header.Set(control.ClassHeader, "standard")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := g.decide(rt, req); !v.admit {
			b.Fatal("idle request shed")
		}
	}
}

// --- helpers ---------------------------------------------------------------

func scrapeMetrics(t testing.TB, s *Server) *obs.TextMetrics {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	tm, err := obs.ParseMetrics(rec.Body)
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	return tm
}

// metricValue returns the value of the named family's sample matching
// label==value ("" label matches the first sample).
func metricValue(t testing.TB, tm *obs.TextMetrics, family, label, value string) float64 {
	t.Helper()
	fam, ok := tm.Families[family]
	if !ok {
		t.Fatalf("family %s missing from /metrics", family)
	}
	for _, sm := range fam.Samples {
		if label == "" || sm.Labels[label] == value {
			return sm.Value
		}
	}
	t.Fatalf("family %s has no sample with %s=%q", family, label, value)
	return 0
}
