package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"github.com/qoslab/amf/internal/server"
)

// stubReplica is a fake amfserver: it answers the probe's status
// endpoint with a canned shed rate and records the SLO-class header of
// every proxied API request, so tests can pin both halves of the
// gateway's admission role (edge shedding in, class propagation out).
type stubReplica struct {
	ts *httptest.Server

	mu       sync.Mutex
	shedRate float64
	classes  map[string]string // path → last observed class header
	hits     map[string]int
}

func newStubReplica(t *testing.T, shedRate float64) *stubReplica {
	t.Helper()
	sb := &stubReplica{shedRate: shedRate, classes: map[string]string{}, hits: map[string]int{}}
	sb.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/cluster/status" {
			sb.mu.Lock()
			rate := sb.shedRate
			sb.mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(server.ClusterStatusResponse{Role: "leader", ShedRate: rate})
			return
		}
		sb.mu.Lock()
		sb.classes[r.URL.Path] = r.Header.Get(server.ClassHeader)
		sb.hits[r.URL.Path]++
		sb.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte("{}"))
	}))
	t.Cleanup(sb.ts.Close)
	return sb
}

func (sb *stubReplica) classFor(path string) string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.classes[path]
}

func (sb *stubReplica) hitCount(path string) int {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.hits[path]
}

func (sb *stubReplica) setShedRate(r float64) {
	sb.mu.Lock()
	sb.shedRate = r
	sb.mu.Unlock()
}

func classedGwReq(t *testing.T, g *Gateway, method, path, class string, body any) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	var req *http.Request
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req = httptest.NewRequest(method, path, bytes.NewReader(buf))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	if class != "" {
		req.Header.Set(server.ClassHeader, class)
	}
	g.Handler().ServeHTTP(w, req)
	return w
}

// TestGatewayEdgeShed: a saturated group (probed shed rate over the
// threshold) causes sheddable-class requests to be refused at the
// gateway with the full shed contract — 429, Retry-After,
// X-Amf-Shed-Reason: edge_saturation, no backend round trip — while
// standard and critical traffic still reaches the backend.
func TestGatewayEdgeShed(t *testing.T) {
	sb := newStubReplica(t, 0.9)
	g := newGateway(t, [][]string{{sb.ts.URL}}, func(c *Config) {
		c.EdgeShed = true
		c.ShedThreshold = 0.5
	})

	// Sheddable predict: shed at the edge.
	w := classedGwReq(t, g, http.MethodGet, "/api/v1/predict?user=u1&service=s1", "sheddable", nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("sheddable predict: status %d, want 429: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get(server.ShedReasonHeader); got != edgeShedReason {
		t.Fatalf("shed reason %q, want %q", got, edgeShedReason)
	}
	if ra, err := strconv.Atoi(w.Header().Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want integer >= 1", w.Header().Get("Retry-After"))
	}
	if n := sb.hitCount("/api/v1/predict"); n != 0 {
		t.Fatalf("edge-shed request reached the backend (%d hits)", n)
	}
	if got := g.edgeSheds.Value(); got != 1 {
		t.Fatalf("edge shed counter = %d, want 1", got)
	}

	// Sheddable observe and rank: same contract.
	obsBody := server.ObserveRequest{Observations: []server.Observation{{User: "u1", Service: "s1", Value: 1}}}
	if w := classedGwReq(t, g, http.MethodPost, "/api/v1/observe", "sheddable", obsBody); w.Code != http.StatusTooManyRequests {
		t.Fatalf("sheddable observe: status %d, want 429: %s", w.Code, w.Body.String())
	}
	rankBody := server.RankRequest{User: "u1", TopK: 3}
	if w := classedGwReq(t, g, http.MethodPost, "/api/v1/rank", "sheddable", rankBody); w.Code != http.StatusTooManyRequests {
		t.Fatalf("sheddable rank: status %d, want 429: %s", w.Code, w.Body.String())
	}
	if got := g.edgeSheds.Value(); got != 3 {
		t.Fatalf("edge shed counter = %d, want 3", got)
	}

	// Standard and critical pass through even at full saturation, and the
	// class header rides to the backend.
	if w := classedGwReq(t, g, http.MethodGet, "/api/v1/predict?user=u1&service=s1", "", nil); w.Code != http.StatusOK {
		t.Fatalf("standard predict: status %d: %s", w.Code, w.Body.String())
	}
	if got := sb.classFor("/api/v1/predict"); got != "standard" {
		t.Fatalf("propagated class %q, want standard", got)
	}
	if w := classedGwReq(t, g, http.MethodPost, "/api/v1/observe", "critical", obsBody); w.Code != http.StatusOK {
		t.Fatalf("critical observe: status %d: %s", w.Code, w.Body.String())
	}
	if got := sb.classFor("/api/v1/observe"); got != "critical" {
		t.Fatalf("propagated class %q, want critical", got)
	}

	// The status body surfaces the probed shed rate.
	st := decode[struct {
		Groups []GroupStatus `json:"groups"`
	}](t, gwReq(t, g, http.MethodGet, "/api/v1/cluster/status", nil))
	if len(st.Groups) != 1 || len(st.Groups[0].Replicas) != 1 {
		t.Fatalf("unexpected status shape: %+v", st)
	}
	if got := st.Groups[0].Replicas[0].ShedRate; got != 0.9 {
		t.Fatalf("status shed_rate = %v, want 0.9", got)
	}

	// Recovery: the group calms down, the next probe round clears the
	// saturation, sheddable traffic flows again.
	sb.setShedRate(0.0)
	g.probeAll()
	if w := classedGwReq(t, g, http.MethodGet, "/api/v1/predict?user=u1&service=s1", "sheddable", nil); w.Code != http.StatusOK {
		t.Fatalf("recovered sheddable predict: status %d: %s", w.Code, w.Body.String())
	}
	if got := sb.classFor("/api/v1/predict"); got != "sheddable" {
		t.Fatalf("propagated class %q, want sheddable", got)
	}
}

// TestGatewayEdgeShedDisabled: without the flag, a saturated group does
// not shed anything at the edge — the backend's own gate decides.
func TestGatewayEdgeShedDisabled(t *testing.T) {
	sb := newStubReplica(t, 1.0)
	g := newGateway(t, [][]string{{sb.ts.URL}}, nil)
	w := classedGwReq(t, g, http.MethodGet, "/api/v1/predict?user=u1&service=s1", "sheddable", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 (edge shed disabled): %s", w.Code, w.Body.String())
	}
	if got := g.edgeSheds.Value(); got != 0 {
		t.Fatalf("edge shed counter = %d, want 0", got)
	}
}

// TestGatewayEdgeShedBelowThreshold: a reported shed rate under the
// threshold never sheds.
func TestGatewayEdgeShedBelowThreshold(t *testing.T) {
	sb := newStubReplica(t, 0.2)
	g := newGateway(t, [][]string{{sb.ts.URL}}, func(c *Config) {
		c.EdgeShed = true
		c.ShedThreshold = 0.5
	})
	w := classedGwReq(t, g, http.MethodGet, "/api/v1/predict?user=u1&service=s1", "sheddable", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 (below threshold): %s", w.Code, w.Body.String())
	}
}

// TestGatewayUnavailableRetryAfter pins the retry contract on the
// gateway's own 503: clients always get a Retry-After hint.
func TestGatewayUnavailableRetryAfter(t *testing.T) {
	sb := newStubReplica(t, 0)
	g := newGateway(t, [][]string{{sb.ts.URL}}, nil)
	rec := httptest.NewRecorder()
	g.unavailable(rec, "no shard groups available")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if ra, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want integer >= 1", rec.Header().Get("Retry-After"))
	}
}
