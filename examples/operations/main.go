// Operations: the day-2 story of running the QoS prediction service —
// state snapshots for restarts, the /metrics scrape an SRE dashboard
// would take (per-route latency quantiles, live prediction accuracy),
// and the /flagged endpoint that surfaces which users and services the
// model is currently unsure about (fresh joiners and shifted QoS
// regimes), so operators and adaptation policies can treat their
// predictions with caution.
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"github.com/qoslab/amf/internal/client"
	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/obs"
	"github.com/qoslab/amf/internal/server"
)

func main() {
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	svc := server.New(core.MustNew(cfg))
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	c := client.New(ts.URL, nil)
	ctx := context.Background()

	// Seed a converged fleet and let replay tighten the factors.
	var seedObs []server.Observation
	for u := 0; u < 8; u++ {
		for s := 0; s < 12; s++ {
			seedObs = append(seedObs, server.Observation{
				User:    fmt.Sprintf("app-%d", u),
				Service: fmt.Sprintf("ws-%d", s),
				Value:   0.4 + 0.1*float64((u+2)*(s+1)%9),
			})
		}
	}
	if _, err := c.Observe(ctx, seedObs); err != nil {
		log.Fatal(err)
	}
	// One joiner with a single observation: the model cannot trust its
	// predictions yet.
	if _, err := c.Observe(ctx, []server.Observation{
		{User: "app-new", Service: "ws-0", Value: 5},
	}); err != nil {
		log.Fatal(err)
	}

	flagged, err := c.Flagged(ctx, 0.6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("entities flagged at error >= 0.6: %d users, %d services\n",
		len(flagged.Users), len(flagged.Services))
	for _, f := range flagged.Users {
		fmt.Printf("  user %-8s tracked error %.2f\n", f.Name, f.Error)
	}

	// A second observation round: now every pair has a prior prediction,
	// so the live accuracy tracker scores each incoming value (the
	// paper's MRE/NPRE, computed online instead of in a batch study).
	if _, err := c.Observe(ctx, obs2(seedObs)); err != nil {
		log.Fatal(err)
	}

	// A burst of predictions: the traffic whose latency the per-route
	// histograms capture.
	for i := 0; i < 400; i++ {
		if _, err := c.Predict(ctx, fmt.Sprintf("app-%d", i%8), fmt.Sprintf("ws-%d", i%12)); err != nil {
			log.Fatal(err)
		}
	}

	// /metrics: the scrape a monitoring stack would take.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nselected /metrics lines:")
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "amf_observations_total") ||
			strings.HasPrefix(line, "amf_model_users") ||
			strings.HasPrefix(line, "amf_model_updates_total") {
			fmt.Println(" ", line)
		}
	}

	// The dashboard line: parse the scrape with the strict text-format
	// parser and reconstruct latency quantiles from the histogram
	// buckets — exactly what a Prometheus histogram_quantile() would do.
	tm, err := obs.ParseMetrics(bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	if err := tm.Validate(); err != nil {
		log.Fatal(err)
	}
	route := map[string]string{"route": "GET /api/v1/predict"}
	p50, _ := tm.HistogramQuantile("amf_http_request_duration_seconds", route, 0.50)
	p95, _ := tm.HistogramQuantile("amf_http_request_duration_seconds", route, 0.95)
	p99, _ := tm.HistogramQuantile("amf_http_request_duration_seconds", route, 0.99)
	mre, _ := tm.Value("amf_accuracy_mre", nil)
	npre, _ := tm.Value("amf_accuracy_npre", nil)
	scored, _ := tm.Value("amf_accuracy_samples_total", nil)
	fmt.Printf("\ndashboard: predict p50=%s p95=%s p99=%s | live MRE=%.3f NPRE=%.3f (%d scored)\n",
		fmtLatency(p50), fmtLatency(p95), fmtLatency(p99), mre, npre, int(scored))

	// Snapshot for restart: state travels as opaque bytes.
	snap, err := http.Get(ts.URL + "/api/v1/snapshot")
	if err != nil {
		log.Fatal(err)
	}
	data, err := io.ReadAll(snap.Body)
	snap.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstate snapshot: %d bytes (restore with POST /api/v1/snapshot)\n", len(data))
}

// obs2 perturbs the seed fleet's values slightly: a realistic second
// measurement round rather than an identical replay.
func obs2(seed []server.Observation) []server.Observation {
	out := make([]server.Observation, len(seed))
	for i, o := range seed {
		o.Value *= 1.02
		out[i] = o
	}
	return out
}

// fmtLatency renders a latency in the most readable unit.
func fmtLatency(seconds float64) string {
	switch {
	case seconds <= 0:
		return "0"
	case seconds < 1e-3:
		return fmt.Sprintf("%.0fµs", seconds*1e6)
	case seconds < 1:
		return fmt.Sprintf("%.2fms", seconds*1e3)
	default:
		return fmt.Sprintf("%.2fs", seconds)
	}
}
