package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/obs"
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
// adopted span, the header values each hop stamps, the reader the
// gateway hands the transport over its pooled copy of a request body,
// and each handler's response; an observe adds the published view's
// pinned wrapper (its header is the one the publish recycled). A change
// that adds a per-request allocation on either hop fails here first.
var proxiedRequestBudget = map[string]float64{
	"predict": 8,
	"batch":   9,
	"rank":    10,
	"observe": 10,
}

// TestProxiedRequestAllocations sends traced requests from a gateway to
// a real server.Handler() through an in-process transport and holds the
// allocations of each hot route to its budget.
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
		{"observe", http.MethodPost, "/api/v1/observe", seed},
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

// TestGatewayRelaysShedHeaders: a backend's refusal reaches the client
// with the headers that tell it what to do — a shed 429's Retry-After
// and X-Amf-Shed-Reason, a follower's 503's X-Amf-Leader too — on every
// proxied route, and from a split observe whose every bucket is refused.
func TestGatewayRelaysShedHeaders(t *testing.T) {
	for _, refusal := range []struct {
		code    int
		headers map[string]string
	}{
		{http.StatusTooManyRequests, map[string]string{"Retry-After": "7", server.ShedReasonHeader: "slo_budget"}},
		{http.StatusServiceUnavailable, map[string]string{"Retry-After": "1", server.ShedReasonHeader: "follower", "X-Amf-Leader": "http://leader:8081"}},
	} {
		refuse := func(w http.ResponseWriter, _ *http.Request) {
			for k, v := range refusal.headers {
				w.Header().Set(k, v)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(refusal.code)
			_, _ = w.Write([]byte(`{"error":"refused"}`))
		}
		ts, ts2 := statusBackend(t, refuse), statusBackend(t, refuse)
		// With two groups, each refusing, an observe spanning both is split
		// and every bucket fails: nothing trained, so the refusal relays.
		split := newGateway(t, [][]string{{ts.URL}, {ts2.URL}}, nil)
		var spanning []server.Observation
		for _, u := range usersPerGroup(split, "u") {
			spanning = append(spanning, server.Observation{User: u, Service: "s1", Value: 1})
		}
		for name, g := range map[string]*Gateway{"one group": newGateway(t, [][]string{{ts.URL}}, nil), "two groups": split} {
			for _, tc := range []struct {
				method, path string
				body         any
			}{
				{http.MethodGet, "/api/v1/predict?user=u1&service=s1", nil},
				{http.MethodPost, "/api/v1/rank", server.RankRequest{User: "u1", TopK: 3}},
				{http.MethodPost, "/api/v1/observe", server.ObserveRequest{Observations: spanning}},
			} {
				w := gwReq(t, g, tc.method, tc.path, tc.body)
				if w.Code != refusal.code || w.Body.String() != `{"error":"refused"}` {
					t.Errorf("%s, %s %s: HTTP %d %q, want the backend's %d verbatim", name, tc.method, tc.path, w.Code, w.Body, refusal.code)
				}
				for k, v := range refusal.headers {
					if got := w.Header().Get(k); got != v {
						t.Errorf("%s, %s %s: HTTP %d %s %q, want %q", name, tc.method, tc.path, w.Code, k, got, v)
					}
				}
			}
		}
	}
}

// TestBackendFailuresCounted: every kind of backend call goes through the
// one send and still counts its failures where it did before, once per
// failed call — proxied requests, observe buckets and failover control
// calls in amf_cluster_proxy_errors_total, probes in
// amf_cluster_probe_errors_total, scrapes in
// amf_cluster_scrape_errors_total.
func TestBackendFailuresCounted(t *testing.T) {
	refuse := func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"error":"refused"}`, http.StatusServiceUnavailable)
	}
	g := newGateway(t, [][]string{{statusBackend(t, refuse).URL}, {statusBackend(t, refuse).URL}}, nil)
	down := httptest.NewServer(http.HandlerFunc(refuse)) // fails its probes too
	t.Cleanup(down.Close)
	gDown := newGateway(t, [][]string{{down.URL}}, nil)
	var spanning []server.Observation
	for _, u := range usersPerGroup(g, "u") {
		spanning = append(spanning, server.Observation{User: u, Service: "s1", Value: 1})
	}
	for _, tc := range []struct {
		name    string
		counter *obs.Counter
		want    int64
		do      func()
	}{
		{"proxied predict", g.proxyErrors, 1, func() { gwReq(t, g, http.MethodGet, "/api/v1/predict?user=u1&service=s1", nil) }},
		{"split observe", g.proxyErrors, 2, func() {
			gwReq(t, g, http.MethodPost, "/api/v1/observe", server.ObserveRequest{Observations: spanning})
		}},
		{"control call", g.proxyErrors, 1, func() {
			if err := g.control(context.Background(), g.groups[0].replicas[0], "/api/v1/promote", ""); err == nil {
				t.Error("a refused promote reported no error")
			}
		}},
		{"scrape", g.scrapeErrors, 2, func() { gwReq(t, g, http.MethodGet, "/api/v1/cluster/metrics", nil) }},
		{"probe", gDown.probeErrors, 1, func() { gDown.probe(gDown.groups[0].replicas[0]) }},
	} {
		before := tc.counter.Value()
		tc.do()
		if got := tc.counter.Value() - before; got != tc.want {
			t.Errorf("%s: counted %d failures, want %d", tc.name, got, tc.want)
		}
	}
}

// TestGatewayHopTimeout: a Config.HTTP with a Timeout still bounds a
// backend hop that hangs, on the pass-through path (forward) and on the
// multi-group observe's per-bucket path (observeBucket); both send
// through the one backend call.
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
		{"bucket", http.MethodPost, "/api/v1/observe", server.ObserveRequest{Observations: buckets}},
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

// strandingTransport keeps the body of every round trip whose body
// starts with {"user":"fail" or {"user":"shed" and reads it to its end on
// another goroutine once let go, only then closing it. A "fail" trip
// returns an error, as a transport whose connection broke may: the
// http.RoundTripper contract lets a transport hold a body past a failed
// RoundTrip until it closes it. A "shed" trip answers 429 at once, as a
// backend that refuses a request before reading its body does, while
// net/http's writer goes on sending the body. Every other round trip
// reads its body whole, closes it and answers 200; the probe's status
// request answers as a leader.
type strandingTransport struct {
	status   []byte
	letGo    chan struct{}
	stranded chan []byte // what each kept body read
}

const strandPrefix = len(`{"user":"fail"`)

func (st *strandingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	answer := func(code int, body []byte) *http.Response {
		return &http.Response{
			StatusCode: code, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: http.Header{"Content-Type": {"application/json"}},
			Body:   io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body)), Request: req,
		}
	}
	if req.Body == nil {
		return answer(http.StatusOK, st.status), nil
	}
	head := make([]byte, strandPrefix)
	if _, err := io.ReadFull(req.Body, head); err != nil {
		return nil, err
	}
	switch string(head) {
	case `{"user":"fail"`:
		st.keep(head, req.Body)
		return nil, errors.New("connection reset by peer")
	case `{"user":"shed"`:
		st.keep(head, req.Body)
		return answer(http.StatusTooManyRequests, []byte(`{"error":"shed"}`)), nil
	}
	_, _ = io.Copy(io.Discard, req.Body)
	req.Body.Close()
	return answer(http.StatusOK, []byte("{}\n")), nil
}

// keep reads the rest of body once let go, closes it and hands on all
// it read.
func (st *strandingTransport) keep(head []byte, body io.ReadCloser) {
	go func() {
		<-st.letGo
		rest, _ := io.ReadAll(body)
		body.Close()
		st.stranded <- append(head, rest...)
	}()
}

// TestGatewayKeptBodyIsNotReused: the gateway must not hand a request
// body's buffer to the next request while a transport may still read it —
// after a round trip that failed, and after one whose response came back
// (and was closed) before the body was sent. Each round sends such a
// rank, then a rank of the same length that succeeds, and then lets the
// transport read the kept body: it must read the first request's bytes,
// not the next one's.
func TestGatewayKeptBodyIsNotReused(t *testing.T) {
	status, err := json.Marshal(server.ClusterStatusResponse{Role: "leader"})
	if err != nil {
		t.Fatal(err)
	}
	st := &strandingTransport{status: status, stranded: make(chan []byte, 1)}
	g := newGateway(t, [][]string{{"http://leader"}}, func(c *Config) {
		c.ProbeInterval = time.Hour
		c.HTTP = &http.Client{Transport: st}
	})
	for round := 0; round < 40; round++ {
		user, code := "fail", http.StatusBadGateway
		if round%2 == 1 {
			user, code = "shed", http.StatusTooManyRequests
		}
		st.letGo = make(chan struct{})
		kept := []byte(fmt.Sprintf(`{"user":"%s","services":["a%04d","b"],"topk":1}`, user, round))
		next := []byte(fmt.Sprintf(`{"user":"next","services":["c%04d","d"],"topk":1}`, round))
		if w := gwReq(t, g, http.MethodPost, "/api/v1/rank", json.RawMessage(kept)); w.Code != code {
			t.Fatalf("round %d: %s send answered %d, want %d", round, user, w.Code, code)
		}
		if w := gwReq(t, g, http.MethodPost, "/api/v1/rank", json.RawMessage(next)); w.Code != http.StatusOK {
			t.Fatalf("round %d: next send answered %d, want 200", round, w.Code)
		}
		close(st.letGo)
		if got := <-st.stranded; !bytes.Equal(got, kept) {
			t.Fatalf("round %d: the transport read %q from the %s request's body, which held %q", round, got, user, kept)
		}
	}
}
