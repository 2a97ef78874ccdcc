package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/qoslab/amf/internal/core"
)

// nopRW is a reusable ResponseWriter so the benchmark measures the
// serving path, not recorder allocation.
type nopRW struct{ h http.Header }

func (w *nopRW) Header() http.Header         { return w.h }
func (w *nopRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopRW) WriteHeader(int)             {}

func benchServer(b *testing.B) *Server {
	b.Helper()
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	// A discard logger keeps benchmark output clean while preserving the
	// real cost profile (debug records are disabled either way).
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := New(core.MustNew(cfg), WithLogger(quiet))
	var obs []Observation
	for u := 0; u < 16; u++ {
		for v := 0; v < 16; v++ {
			obs = append(obs, Observation{
				User:    fmt.Sprintf("u%d", u),
				Service: fmt.Sprintf("s%d", v),
				Value:   0.5 + float64((u+v)%5),
			})
		}
	}
	buf, err := json.Marshal(ObserveRequest{Observations: obs})
	if err != nil {
		b.Fatal(err)
	}
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/observe", bytes.NewReader(buf))
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("seed observe failed: %d", w.Code)
	}
	return s
}

// BenchmarkPredictPath times the instrumented lock-free predict path —
// handler, middleware and all, without sockets (`make bench-smoke` runs
// it; bench/'s predict_point gates the same path end to end).
func BenchmarkPredictPath(b *testing.B) {
	b.Run("instrumented", func(b *testing.B) {
		s := benchServer(b)
		defer s.Close()
		h := s.Handler()
		req := httptest.NewRequest(http.MethodGet, "/api/v1/predict?user=u3&service=s7", nil)
		w := &nopRW{h: make(http.Header)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.ServeHTTP(w, req)
		}
	})
	b.Run("instrumented-parallel", func(b *testing.B) {
		s := benchServer(b)
		defer s.Close()
		h := s.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			req := httptest.NewRequest(http.MethodGet, "/api/v1/predict?user=u3&service=s7", nil)
			w := &nopRW{h: make(http.Header)}
			for pb.Next() {
				h.ServeHTTP(w, req)
			}
		})
	})
}

// BenchmarkMetricsScrape measures a full /metrics render.
func BenchmarkMetricsScrape(b *testing.B) {
	s := benchServer(b)
	defer s.Close()
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := &nopRW{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}

// TestInstrumentedPathUnderRace hammers predict, observe, and /metrics
// concurrently with instrumentation on — run under -race in CI.
func TestInstrumentedPathUnderRace(t *testing.T) {
	s := testServer(t)
	defer s.Close()
	observeSome(t, s)
	h := s.Handler()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				req := httptest.NewRequest(http.MethodGet,
					fmt.Sprintf("/api/v1/predict?user=u%d&service=s%d", i%4, i%5), nil)
				h.ServeHTTP(httptest.NewRecorder(), req)
			}
		}(g)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = observeStream(s, fmt.Sprintf("u%d", i%4), fmt.Sprintf("s%d", i%5), 1.5)
			}
		}(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
				h.ServeHTTP(httptest.NewRecorder(), req)
			}
		}()
	}
	wg.Wait()
	if s.inflight.Value() != 0 {
		t.Fatalf("in-flight gauge leaked: %d", s.inflight.Value())
	}
}
