package engine_test

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/engine"
	"github.com/qoslab/amf/internal/server"
)

// TestPeriodicReadersDoNotEscape keeps recycling on in a running server:
// a view that escapes (View) raises the watermark below which no page is
// ever recycled, so what a scraper or a gateway probe polls every few
// hundred milliseconds — Stats, Updates, the readiness and status
// handlers, /metrics — must read the current view without escaping it,
// and the request-scoped reads (predict, batch, rank, flagged) pin it
// instead. Only View itself moves the watermark.
func TestPeriodicReadersDoNotEscape(t *testing.T) {
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	eng := engine.New(core.MustNew(cfg), engine.Config{})
	srv := server.NewWithEngine(eng, server.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	defer srv.Close()
	h := srv.Handler()
	do := func(method, path, body string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b, _ := io.ReadAll(rec.Body)
			t.Fatalf("%s %s: %d %s", method, path, rec.Code, b)
		}
	}
	for range 3 {
		do("POST", "/api/v1/observe", `{"observations":[{"user":"u1","service":"s1","value":1.5},{"user":"u1","service":"s2","value":0.7},{"user":"u2","service":"s1","value":2.1}]}`)
	}
	if got := eng.Escaped(); got != 0 {
		t.Fatalf("escape watermark %d after start-up and three observes, want 0", got)
	}
	eng.Stats()
	eng.Updates()
	for _, path := range []string{"/readyz", "/api/v1/stats", "/api/v1/cluster/status", "/metrics",
		"/api/v1/predict?user=u1&service=s1", "/api/v1/flagged?threshold=0"} {
		do("GET", path, "")
	}
	do("POST", "/api/v1/predict", `{"user":"u1","services":["s1","s2"]}`)
	do("POST", "/api/v1/rank", `{"user":"u1","topk":2}`)
	do("POST", "/api/v1/rank", `{"user":"u1","services":["s1","s2"]}`)
	if got := eng.Escaped(); got != 0 {
		t.Errorf("escape watermark %d after polling and request-scoped reads, want 0", got)
	}
	if v := eng.View(); eng.Escaped() != v.Version() {
		t.Errorf("View() of version %d left the watermark at %d", v.Version(), eng.Escaped())
	}
}
