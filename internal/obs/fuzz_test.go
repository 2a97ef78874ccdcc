package obs_test

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/qoslab/amf/internal/cluster"
	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/obs"
	"github.com/qoslab/amf/internal/server"
)

// productPages renders the pages the strict parser reads in production:
// a server's /metrics after some traffic, and the gateway's own /metrics
// and federated /api/v1/cluster/metrics in front of it.
func productPages(f *testing.F) []string {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	svc := server.New(core.MustNew(cfg), server.WithLogger(quiet))
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	gw, err := cluster.New(cluster.Config{Groups: [][]string{{ts.URL}}, Logger: quiet})
	if err != nil {
		f.Fatal(err)
	}
	defer gw.Close()

	serve := func(h http.Handler, method, path, body string) string {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		if w.Code != http.StatusOK {
			f.Fatalf("%s %s: HTTP %d: %s", method, path, w.Code, w.Body)
		}
		return w.Body.String()
	}
	serve(gw.Handler(), http.MethodPost, "/api/v1/observe",
		`{"observations":[{"user":"u1","service":"s1","value":1.4},{"user":"u2","service":"s1","value":0.3}]}`)
	serve(gw.Handler(), http.MethodGet, "/api/v1/predict?user=u1&service=s1", "")
	return []string{
		serve(svc.Handler(), http.MethodGet, "/metrics", ""),
		serve(gw.Handler(), http.MethodGet, "/metrics", ""),
		serve(gw.Handler(), http.MethodGet, "/api/v1/cluster/metrics", ""),
	}
}

// FuzzParseMetrics: the gateway runs ParseMetrics on every replica's
// /metrics page, so the parser must never panic; neither may Validate or
// HistogramQuantile on what it accepts; and an accepted page, written
// back through WriteFederated with one page label, parses again with the
// same families, types and sample counts.
func FuzzParseMetrics(f *testing.F) {
	for _, page := range productPages(f) {
		f.Add(page)
		// Each family alone as well: mutants of a small seed are quick to
		// minimize, so the fuzzing time goes to new inputs.
		for _, fam := range strings.Split(page, "# HELP ")[1:] {
			f.Add("# HELP " + fam)
		}
	}
	f.Add("# HELP a_total h\n# TYPE a_total counter\na_total{k=\"v\\\\\\\"\\n\"} 1\n")
	f.Add("# HELP l h\n# TYPE l histogram\nl_bucket{le=\"1\"} 1\nl_bucket{le=\"+Inf\"} 2\nl_sum 3\nl_count 2\n")
	f.Fuzz(func(t *testing.T, page string) {
		tm, err := obs.ParseMetrics(strings.NewReader(page))
		if err != nil {
			return
		}
		_ = tm.Validate()
		for _, name := range tm.Order {
			fam := tm.Families[name]
			if fam.Type != "histogram" {
				continue
			}
			_, _ = tm.HistogramQuantile(name, nil, 0.5)
			for _, s := range fam.Samples {
				if s.Name == name+"_count" { // one per series
					for _, q := range []float64{0, 0.99, 1} {
						_, _ = tm.HistogramQuantile(name, s.Labels, q)
					}
				}
			}
		}

		var buf bytes.Buffer
		pages := []obs.FederatedPage{{Labels: [][2]string{{"replica", "r0"}}, Metrics: tm}}
		if err := obs.WriteFederated(&buf, pages); err != nil {
			t.Fatalf("WriteFederated refused an accepted page: %v", err)
		}
		again, err := obs.ParseMetrics(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("federated page does not parse: %v\n%s", err, buf.Bytes())
		}
		if strings.Join(again.Order, ",") != strings.Join(tm.Order, ",") {
			t.Fatalf("families %v, federated %v", tm.Order, again.Order)
		}
		for _, name := range tm.Order {
			was, now := tm.Families[name], again.Families[name]
			if was.Type != now.Type || len(was.Samples) != len(now.Samples) {
				t.Fatalf("%s: %s with %d samples, federated %s with %d",
					name, was.Type, len(was.Samples), now.Type, len(now.Samples))
			}
		}
	})
}
