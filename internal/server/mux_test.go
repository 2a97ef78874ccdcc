package server_test

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/cluster"
	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/engine"
	"github.com/qoslab/amf/internal/server"
	"github.com/qoslab/amf/internal/store"
)

// The router equivalence check: server.Mux must answer every request as
// a plain http.ServeMux holding the same registrations does — same
// status, same Allow and Location, the same handler — for the patterns
// both hops actually register. Each side gets the patterns with a
// handler that writes its own pattern, so "the same handler" is the same
// body.

// hopPatterns returns the patterns a Server with every optional
// subsystem attached (durable store, admission gate, pprof) registers,
// and those a Gateway in front of it registers.
func hopPatterns(t testing.TB) (srv, gw []string) {
	t.Helper()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	mgr, err := store.Open(t.TempDir(), store.Options{
		CheckpointInterval: time.Hour, Logger: quiet,
	})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { mgr.Close() })
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	svc := server.NewWithEngine(engine.New(core.MustNew(cfg), engine.Config{}), server.WithLogger(quiet))
	t.Cleanup(svc.Close)
	if _, err := svc.AttachDurable(mgr); err != nil {
		t.Fatalf("AttachDurable: %v", err)
	}
	svc.EnableAdmission(server.AdmissionConfig{})
	svc.EnablePprof()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	g, err := cluster.New(cluster.Config{Groups: [][]string{{ts.URL}}, Logger: quiet})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(g.Close)
	return server.MuxPatterns(svc.Handler()), server.MuxPatterns(g.Handler())
}

// taggedRouters registers every pattern on a fresh Mux and a fresh
// ServeMux, each with a handler that answers with the pattern.
func taggedRouters(patterns []string) (*server.Mux, *http.ServeMux) {
	m, plain := new(server.Mux), http.NewServeMux()
	for _, p := range patterns {
		tag := func(w http.ResponseWriter, _ *http.Request) { _, _ = io.WriteString(w, p) }
		m.HandleFunc(p, tag)
		plain.HandleFunc(p, tag)
	}
	return m, plain
}

// sameAnswer serves r through both routers and reports how the answers
// differ, or "" when they do not.
func sameAnswer(m *server.Mux, plain *http.ServeMux, r *http.Request) string {
	got, want := httptest.NewRecorder(), httptest.NewRecorder()
	m.ServeHTTP(got, r.Clone(r.Context()))
	plain.ServeHTTP(want, r.Clone(r.Context()))
	for _, h := range []string{"Allow", "Location"} {
		if got.Header().Get(h) != want.Header().Get(h) {
			return h + " " + got.Header().Get(h) + ", ServeMux " + want.Header().Get(h)
		}
	}
	if got.Code != want.Code || got.Body.String() != want.Body.String() {
		return "HTTP " + http.StatusText(got.Code) + " " + got.Body.String() +
			", ServeMux " + http.StatusText(want.Code) + " " + want.Body.String()
	}
	return ""
}

var muxMethods = []string{http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodPatch, http.MethodOptions}

// TestMuxMatchesServeMux sends, for every pattern each hop registers,
// every method to its path and to the variants a router can get wrong:
// a trailing slash, a doubled slash (a redirect), the last slash escaped
// as %2F, a query; plus paths no pattern names and the pprof prefix.
func TestMuxMatchesServeMux(t *testing.T) {
	srv, gw := hopPatterns(t)
	for _, hop := range []struct {
		name     string
		patterns []string
	}{{"server", srv}, {"gateway", gw}} {
		if len(hop.patterns) < 9 {
			t.Fatalf("%s: %d patterns registered, want every route: %q", hop.name, len(hop.patterns), hop.patterns)
		}
		m, plain := taggedRouters(hop.patterns)
		targets := []string{"/", "/nope", "/api/v1", "/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/heap", "/api/v1/./predict", "/api/v1/predict/.."}
		for _, p := range hop.patterns {
			_, path, _ := strings.Cut(p, " ")
			second := strings.Index(path[1:], "/") + 1 // 0 when the path has one segment
			targets = append(targets, path, path+"/", path+"?user=u1&service=s1",
				path[:second]+"/"+path[second:])
			if last := strings.LastIndex(path, "/"); last > 0 {
				targets = append(targets, path[:last]+"%2F"+path[last+1:])
			}
		}
		for _, target := range targets {
			for _, method := range muxMethods {
				if diff := sameAnswer(m, plain, httptest.NewRequest(method, target, nil)); diff != "" {
					t.Errorf("%s: %s %s: Mux %s", hop.name, method, target, diff)
				}
			}
		}
	}
}

// FuzzMux drives both hops' routers and their ServeMux twins with
// fuzzer-chosen methods, paths and escaped paths.
func FuzzMux(f *testing.F) {
	for _, seed := range [][3]string{
		{"GET", "/api/v1/predict", ""},
		{"POST", "/api/v1/rank", ""},
		{"HEAD", "/healthz", ""},
		{"GET", "/api/v1/predict", "/api/v1%2Fpredict"},
		{"GET", "/api//v1/predict", ""},
		{"DELETE", "/api/v1/users/", ""},
		{"GET", "/debug/pprof/cmdline", ""},
		{"CONNECT", "/api/v1/observe", ""},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	srv, gw := hopPatterns(f)
	type pair struct {
		m     *server.Mux
		plain *http.ServeMux
	}
	var routers []pair
	for _, patterns := range [][]string{srv, gw} {
		m, plain := taggedRouters(patterns)
		routers = append(routers, pair{m, plain})
	}
	f.Fuzz(func(t *testing.T, method, path, rawPath string) {
		r := &http.Request{
			Method: method, URL: &url.URL{Path: path, RawPath: rawPath},
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: make(http.Header), Host: "localhost", RequestURI: path,
		}
		for _, rt := range routers {
			if diff := sameAnswer(rt.m, rt.plain, r); diff != "" {
				t.Fatalf("%q path %q raw %q: Mux %s", method, path, rawPath, diff)
			}
		}
	})
}
