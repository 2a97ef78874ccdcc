package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/server"
)

// loopback is a backend transport whose round trip is a call into a real
// server's handler. It reuses one response, header map and body buffer,
// so what a run allocates is the gateway's and the server's doing, not
// the transport's. One request at a time.
type loopback struct {
	h    http.Handler
	hdr  http.Header
	code int
	out  bytes.Buffer
	body loopBody
	resp http.Response
}

type loopBody struct{ bytes.Reader }

func (*loopBody) Close() error { return nil }

func (l *loopback) Header() http.Header { return l.hdr }

func (l *loopback) WriteHeader(code int) {
	if l.code == 0 {
		l.code = code
	}
}

func (l *loopback) Write(b []byte) (int, error) {
	l.WriteHeader(http.StatusOK)
	return l.out.Write(b)
}

func (l *loopback) RoundTrip(req *http.Request) (*http.Response, error) {
	clear(l.hdr)
	l.out.Reset()
	l.code = 0
	l.h.ServeHTTP(l, req)
	l.WriteHeader(http.StatusOK)
	l.body.Reset(l.out.Bytes())
	l.resp = http.Response{
		StatusCode: l.code, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: l.hdr, Body: &l.body, ContentLength: int64(l.out.Len()), Request: req,
	}
	return &l.resp, nil
}

// proxiedRequestBudget is what one traced request through a gateway and
// a real server allocates in total, per route, with the loopback
// transport above: the gateway's root and backend spans, the server's
// adopted span, the header values each hop stamps, and each handler's
// response. A change that adds a per-request allocation on either hop
// fails here first.
var proxiedRequestBudget = map[string]float64{
	"predict": 8,
	"batch":   11,
	"rank":    12,
}

// TestProxiedRequestAllocations sends traced requests from a gateway to
// a real server.Handler() through an in-process transport and holds the
// allocations of each hot read route to its budget.
func TestProxiedRequestAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	svc := server.New(core.MustNew(cfg), server.WithLogger(quietLogger()))
	t.Cleanup(svc.Close)
	names := make([]string, 20)
	obs := make([]server.Observation, len(names))
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
		obs[i] = server.Observation{User: "u1", Service: names[i], Value: 1 + float64(i%7)}
	}
	seed, err := json.Marshal(server.ObserveRequest{Observations: obs})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	svc.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/observe", bytes.NewReader(seed)))
	if w.Code != http.StatusOK {
		t.Fatalf("seed observe: HTTP %d %s", w.Code, w.Body)
	}
	g := newGateway(t, [][]string{{"http://leader"}}, func(c *Config) {
		c.ProbeInterval = time.Hour
		c.HTTP = &http.Client{Transport: &loopback{h: svc.Handler(), hdr: make(http.Header)}}
	})
	batch, err := json.Marshal(server.BatchPredictRequest{User: "u1", Services: names})
	if err != nil {
		t.Fatal(err)
	}
	rank, err := json.Marshal(server.RankRequest{User: "u1", Services: names, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range []struct {
		name, method, path string
		body               []byte
	}{
		{"predict", http.MethodGet, "/api/v1/predict?user=u1&service=s3", nil},
		{"batch", http.MethodPost, "/api/v1/predict", batch},
		{"rank", http.MethodPost, "/api/v1/rank", rank},
	} {
		rd := bytes.NewReader(route.body)
		req := httptest.NewRequest(route.method, route.path, rd)
		out := &discard{h: make(http.Header)}
		serve := func() {
			rd.Reset(route.body)
			clear(out.h)
			out.code = 0
			g.Handler().ServeHTTP(out, req)
		}
		if serve(); out.code != http.StatusOK {
			t.Fatalf("%s: HTTP %d", route.name, out.code)
		}
		if id := out.h.Get(requestIDHeader); len(id) != 32 {
			t.Fatalf("%s: X-Request-Id %q, want a 32-hex trace ID", route.name, id)
		}
		allocs := testing.AllocsPerRun(200, serve)
		t.Logf("%s: %v allocations per proxied request", route.name, allocs)
		if budget := proxiedRequestBudget[route.name]; allocs > budget {
			t.Errorf("%s: %v allocations per proxied request, budget %v", route.name, allocs, budget)
		}
	}
}

// statusBackend answers the gateway's probe as a leader and every other
// path with h.
func statusBackend(t *testing.T, h http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/cluster/status", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(server.ClusterStatusResponse{Role: "leader"})
	})
	mux.HandleFunc("/", h)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestGatewayRelaysRedirect: a proxy relays a backend's 3xx — status,
// Location and body — and never follows it.
func TestGatewayRelaysRedirect(t *testing.T) {
	var followed atomic.Int32
	ts := statusBackend(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/elsewhere" {
			followed.Add(1)
			_, _ = w.Write([]byte(`{"followed":true}`))
			return
		}
		w.Header().Set("Location", "/elsewhere")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTemporaryRedirect)
		_, _ = w.Write([]byte(`{"moved":"` + r.URL.Path + `"}`))
	})
	g := newGateway(t, [][]string{{ts.URL}}, nil)
	for _, tc := range []struct {
		method, path string
		body         any
	}{
		{http.MethodGet, "/api/v1/predict?user=u1&service=s1", nil},
		{http.MethodPost, "/api/v1/rank", server.RankRequest{User: "u1", TopK: 3}},
		{http.MethodPost, "/api/v1/observe", server.ObserveRequest{Observations: []server.Observation{{User: "u1", Service: "s1", Value: 1}}}},
	} {
		w := gwReq(t, g, tc.method, tc.path, tc.body)
		path, _, _ := strings.Cut(tc.path, "?")
		if w.Code != http.StatusTemporaryRedirect || w.Header().Get("Location") != "/elsewhere" || w.Body.String() != `{"moved":"`+path+`"}` {
			t.Errorf("%s %s: HTTP %d Location %q body %q; want the backend's 307 verbatim",
				tc.method, tc.path, w.Code, w.Header().Get("Location"), w.Body)
		}
	}
	if n := followed.Load(); n != 0 {
		t.Errorf("the gateway followed %d redirects", n)
	}
}

// TestGatewayHopTimeout: a Config.HTTP with a Timeout still bounds a
// backend hop that hangs, on the pass-through path (forward) and on the
// multi-group observe's per-bucket path (postJSON).
func TestGatewayHopTimeout(t *testing.T) {
	const timeout = 200 * time.Millisecond
	release := make(chan struct{})
	hung := func(w http.ResponseWriter, r *http.Request) {
		// The hop hangs until the gateway gives up on it; the time limit
		// only keeps a gateway that never does from hanging the test.
		select {
		case <-r.Context().Done():
		case <-release:
		case <-time.After(50 * timeout):
		}
	}
	ts1, ts2 := statusBackend(t, hung), statusBackend(t, hung)
	t.Cleanup(func() { close(release) }) // runs before the servers close
	g := newGateway(t, [][]string{{ts1.URL}, {ts2.URL}}, func(c *Config) {
		c.HTTP = &http.Client{Timeout: timeout}
	})
	// Users enough to touch both groups, so the observe is split.
	var buckets []server.Observation
	for i := 0; i < 16; i++ {
		buckets = append(buckets, server.Observation{User: fmt.Sprint("u", i), Service: "s1", Value: 1})
	}
	for _, tc := range []struct {
		name, method, path string
		body               any
	}{
		{"forward", http.MethodGet, "/api/v1/predict?user=u1&service=s1", nil},
		{"forward", http.MethodPost, "/api/v1/rank", server.RankRequest{User: "u1", TopK: 3}},
		{"postJSON", http.MethodPost, "/api/v1/observe", server.ObserveRequest{Observations: buckets}},
	} {
		start := time.Now()
		w := gwReq(t, g, tc.method, tc.path, tc.body)
		took := time.Since(start)
		if w.Code != http.StatusBadGateway {
			t.Errorf("%s: HTTP %d %s, want 502 from the timed-out hop", tc.name, w.Code, w.Body)
		}
		if took < timeout || took > 10*timeout {
			t.Errorf("%s: answered after %v, want about the %v timeout", tc.name, took, timeout)
		}
	}
}
