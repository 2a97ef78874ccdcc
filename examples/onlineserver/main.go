// Onlineserver: the QoS prediction service of the paper's framework
// (Fig. 3), run end to end in one process. One server opens both doors:
// QoS monitors stream what they measure over the TCP stream-ingest
// protocol (the paper's "formatted stream data"), and applications upload
// observations and ask for predictions over HTTP — the two share one AMF
// model, which the background replay keeps refining. The program ends
// with the day-2 surfaces an operator reads: /flagged (who the model is
// unsure about), a /metrics scrape parsed into a p50/p95/p99 and
// live-accuracy dashboard line, and a state snapshot for restarts.
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"github.com/qoslab/amf/internal/client"
	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/ingest"
	"github.com/qoslab/amf/internal/obs"
	"github.com/qoslab/amf/internal/server"
	"github.com/qoslab/amf/internal/workload"
)

func main() {
	// The environment users measure against.
	gen, err := dataset.New(dataset.Config{
		Users: 20, Services: 60, Slices: 4,
		Interval: dataset.DefaultConfig().Interval,
		Rank:     5, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	dsCfg := gen.Config()

	// The prediction service (normally `amfserver`; in-process here so
	// the example is self-contained and runs anywhere). The model is
	// wrapped in a serving engine: predictions read an immutable
	// published view without locking, while each observe batch and each
	// background replay tick takes the engine's lock, updates the model
	// and republishes the view before it returns — an uploaded
	// measurement is in the very next prediction.
	rmin, rmax := dataset.ResponseTime.Range()
	cfg := core.DefaultConfig(dataset.ResponseTime.DefaultAlpha(), rmin, rmax)
	cfg.Expiry = 0
	svc := server.New(core.MustNew(cfg))
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	listener, err := ingest.Listen("127.0.0.1:0", svc)
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		if err := listener.Serve(ctx); err != nil {
			log.Print(err)
		}
	}()
	go svc.RunReplay(ctx, 5*time.Millisecond, 2000)

	c := client.New(ts.URL, nil)
	if err := c.Health(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HTTP API at %s, stream ingest at %s\n", ts.URL, listener.Addr())

	// Phase 1 - monitoring: each user's QoS monitor invokes services on a
	// Poisson schedule and streams what it measures. A monitor's services
	// are those ≡ 1 (mod 3).
	var wg sync.WaitGroup
	for u := 0; u < dsCfg.Users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			if err := monitor(listener.Addr().String(), gen, u); err != nil {
				log.Print(err)
			}
		}(u)
	}
	wg.Wait()
	accepted, lines, rejected := listener.Stats()
	fmt.Printf("stream ingest: %d connections, %d observations, %d rejected\n", accepted, lines, rejected)

	// Phase 2 - input handling over HTTP: each app uploads the QoS it
	// observed on another third of the services (nobody has seen
	// everything; that is the point of collaborative prediction). The
	// streamed data already predicts these pairs, so the live accuracy
	// tracker scores each uploaded value against its prediction (the
	// paper's MRE/NPRE, computed online instead of in a batch study).
	var uploaded int
	for u := 0; u < dsCfg.Users; u++ {
		var batch []server.Observation
		for s := 0; s < dsCfg.Services; s++ {
			if (u+s)%3 == 0 {
				batch = append(batch, server.Observation{
					User:    fmt.Sprintf("app-%02d", u),
					Service: fmt.Sprintf("ws-%02d", s),
					Value:   gen.Value(dataset.ResponseTime, u, s, 0),
				})
			}
		}
		resp, err := c.Observe(ctx, batch)
		if err != nil {
			log.Fatal(err)
		}
		uploaded += resp.Accepted
	}
	// One joiner with a single observation: the model cannot trust its
	// predictions yet.
	if _, err := c.Observe(ctx, []server.Observation{{User: "app-new", Service: "ws-00", Value: 5}}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("apps uploaded %d observations over HTTP\n", uploaded+1)

	// Who the model is unsure about: fresh joiners and shifted QoS
	// regimes, so operators and adaptation policies can treat their
	// predictions with caution.
	flagged, err := c.Flagged(ctx, 0.6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("entities flagged at error >= 0.6: %d users, %d services\n",
		len(flagged.Users), len(flagged.Services))
	for _, f := range flagged.Users {
		fmt.Printf("  user %-8s tracked error %.2f\n", f.Name, f.Error)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("service state: %d users, %d services, %d model updates\n",
		stats.Users, stats.Services, stats.Updates)

	// Phase 3 - QoS prediction: app-07 wants to replace a degraded
	// working service and asks the service to rank candidates it has
	// NEVER invoked itself, through either door.
	user := "app-07"
	candidates := []string{"ws-06", "ws-15", "ws-27", "ws-42", "ws-57"}
	preds, err := c.PredictBatch(ctx, user, candidates)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncandidate ranking for %s:\n", user)
	for _, p := range preds {
		if p.OK {
			fmt.Printf("  %-6s predicted RT %.3f s\n", p.Service, p.Value)
		} else {
			fmt.Printf("  %-6s (no prediction)\n", p.Service)
		}
	}
	best, val, ok, err := c.BestCandidate(ctx, user, candidates)
	if err != nil || !ok {
		log.Fatal("no candidate available: ", err)
	}
	fmt.Printf("adaptation decision: bind %s (predicted %.3f s)\n", best, val)

	// A burst of predictions: the traffic whose latency the per-route
	// histograms capture.
	for i := 0; i < 400; i++ {
		u, s := i%dsCfg.Users, (i*7)%dsCfg.Services
		if _, err := c.Predict(ctx, fmt.Sprintf("app-%02d", u), fmt.Sprintf("ws-%02d", s)); err != nil {
			log.Fatal(err)
		}
	}

	// The dashboard line: parse the /metrics scrape with the strict
	// text-format parser and reconstruct latency quantiles from the
	// histogram buckets — exactly what a Prometheus histogram_quantile()
	// would do.
	body, err := get(ts.URL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
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
	observed, _ := tm.Value("amf_observations_total", nil)
	mre, _ := tm.Value("amf_accuracy_mre", nil)
	npre, _ := tm.Value("amf_accuracy_npre", nil)
	scored, _ := tm.Value("amf_accuracy_samples_total", nil)
	fmt.Printf("dashboard: predict p50=%s p95=%s p99=%s | %d observed | live MRE=%.3f NPRE=%.3f (%d scored)\n",
		fmtLatency(p50), fmtLatency(p95), fmtLatency(p99), int(observed), mre, npre, int(scored))

	// Snapshot for restart: state travels as opaque bytes.
	snap, err := get(ts.URL + "/api/v1/snapshot")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("state snapshot: %d bytes (restore with POST /api/v1/snapshot)\n", len(snap))

	// The serving engine's own accounting: how many samples were applied
	// and how many immutable views were published for the lock-free read
	// path.
	st := svc.Engine().Stats()
	fmt.Printf("engine: applied %d samples, replayed %d, published %d views (v%d)\n",
		st.Applied, st.Replayed, st.Published, st.Version)
}

// monitor streams one hour of user u's measurements over the TCP door and
// waits for the server's PONG, which follows the application of every
// line sent before it.
func monitor(addr string, gen *dataset.Generator, u int) error {
	w, err := ingest.Dial(addr, time.Second)
	if err != nil {
		return err
	}
	defer w.Close()
	events, err := workload.Trace(workload.TraceOptions{
		Users: 1, Horizon: time.Hour, MeanRate: 120, Seed: int64(u + 1),
	})
	if err != nil {
		return err
	}
	ds := gen.Config()
	for i, e := range events {
		s := (3*(u+i) + 1) % ds.Services
		rt := gen.Value(dataset.ResponseTime, u, s, int(e.Time/ds.Interval)%ds.Slices)
		if err := w.Send(fmt.Sprintf("app-%02d", u), fmt.Sprintf("ws-%02d", s), rt, 0); err != nil {
			return err
		}
	}
	return w.Ping(2 * time.Second)
}

// get reads one GET response body whole.
func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
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
