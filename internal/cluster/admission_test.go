package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/qoslab/amf/internal/server"
)

// stubReplica is a fake amfserver: it answers the probe's status
// endpoint as a leader and records the SLO-class header of every proxied
// API request, so tests can pin the gateway's one admission role: class
// propagation.
type stubReplica struct {
	ts *httptest.Server

	mu      sync.Mutex
	classes map[string]string // path → last observed class header
}

func newStubReplica(t *testing.T) *stubReplica {
	t.Helper()
	sb := &stubReplica{classes: map[string]string{}}
	sb.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/cluster/status" {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(server.ClusterStatusResponse{Role: "leader"})
			return
		}
		sb.mu.Lock()
		sb.classes[r.URL.Path] = r.Header.Get(server.ClassHeader)
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

// TestGatewayPropagatesClass: the gateway sheds nothing itself; it
// stamps every proxied request with the client's SLO class (standard
// when the header is absent or unknown), so the backend's own gate
// decides, whatever the route.
func TestGatewayPropagatesClass(t *testing.T) {
	sb := newStubReplica(t)
	g := newGateway(t, [][]string{{sb.ts.URL}}, nil)
	obsBody := server.ObserveRequest{Observations: []server.Observation{{User: "u1", Service: "s1", Value: 1}}}
	rankBody := server.RankRequest{User: "u1", TopK: 3}
	for _, tc := range []struct {
		method, path, class, want string
		body                      any
	}{
		{http.MethodGet, "/api/v1/predict?user=u1&service=s1", "", "standard", nil},
		{http.MethodGet, "/api/v1/predict?user=u1&service=s1", "sheddable", "sheddable", nil},
		{http.MethodPost, "/api/v1/observe", "critical", "critical", obsBody},
		{http.MethodPost, "/api/v1/observe", "bogus", "standard", obsBody},
		{http.MethodPost, "/api/v1/rank", "sheddable", "sheddable", rankBody},
	} {
		if w := classedGwReq(t, g, tc.method, tc.path, tc.class, tc.body); w.Code != http.StatusOK {
			t.Fatalf("%s %s class %q: status %d: %s", tc.method, tc.path, tc.class, w.Code, w.Body.String())
		}
		path, _, _ := strings.Cut(tc.path, "?")
		if got := sb.classFor(path); got != tc.want {
			t.Fatalf("%s %s class %q: backend saw %q, want %q", tc.method, path, tc.class, got, tc.want)
		}
	}
}

// TestGatewayUnavailableRetryAfter pins the retry contract on the
// gateway's own 503: clients always get a Retry-After hint.
func TestGatewayUnavailableRetryAfter(t *testing.T) {
	sb := newStubReplica(t)
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
