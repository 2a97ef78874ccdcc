package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/server"
)

// startService spins up a real prediction service over httptest and
// returns a client against it: the integration path of framework Fig. 3.
func startService(t *testing.T) *Client {
	t.Helper()
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	srv := server.New(core.MustNew(cfg))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return New(ts.URL, nil)
}

func seed(t *testing.T, c *Client) {
	t.Helper()
	var obs []server.Observation
	for i := 0; i < 5; i++ {
		for j := 0; j < 6; j++ {
			obs = append(obs, server.Observation{
				User:    fmt.Sprintf("app-%d", i),
				Service: fmt.Sprintf("ws-%d", j),
				Value:   0.3 + float64((i*j)%5),
			})
		}
	}
	resp, err := c.Observe(context.Background(), obs)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 30 {
		t.Fatalf("accepted = %d", resp.Accepted)
	}
}

func TestClientHealth(t *testing.T) {
	c := startService(t)
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestClientObserveAndPredict(t *testing.T) {
	c := startService(t)
	seed(t, c)
	v, err := c.Predict(context.Background(), "app-1", "ws-2")
	if err != nil {
		t.Fatal(err)
	}
	if v < 0 || v > 20 {
		t.Fatalf("prediction %g out of range", v)
	}
}

func TestClientPredictNotFound(t *testing.T) {
	c := startService(t)
	seed(t, c)
	if _, err := c.Predict(context.Background(), "ghost", "ws-1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestClientBatchAndBest(t *testing.T) {
	c := startService(t)
	seed(t, c)
	ctx := context.Background()
	preds, err := c.PredictBatch(ctx, "app-0", []string{"ws-0", "ws-1", "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 3 || !preds[0].OK || preds[2].OK {
		t.Fatalf("batch = %+v", preds)
	}
	best, val, ok, err := c.BestCandidate(ctx, "app-0", []string{"ws-0", "ws-1", "ws-2"})
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	if best == "" || val < 0 {
		t.Fatalf("best = %q %g", best, val)
	}
	// Verify best really is the minimum of the batch.
	all, err := c.PredictBatch(ctx, "app-0", []string{"ws-0", "ws-1", "ws-2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range all {
		if p.OK && p.Value < val {
			t.Fatalf("BestCandidate missed %q (%g < %g)", p.Service, p.Value, val)
		}
	}
}

func TestClientBestCandidateNoneKnown(t *testing.T) {
	c := startService(t)
	seed(t, c)
	_, _, ok, err := c.BestCandidate(context.Background(), "app-0", []string{"ghost-1", "ghost-2"})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("no candidate should be OK")
	}
}

func TestClientStatsUsersServices(t *testing.T) {
	c := startService(t)
	seed(t, c)
	ctx := context.Background()
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Users != 5 || stats.Services != 6 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestClientOnlineLearningImprovesPrediction(t *testing.T) {
	// End-to-end check of the paper's online property through the HTTP
	// boundary: repeated observations of a pair move its prediction
	// toward the observed value.
	c := startService(t)
	ctx := context.Background()
	target := 3.0
	var obs []server.Observation
	for i := 0; i < 200; i++ {
		obs = append(obs, server.Observation{User: "app", Service: "ws", Value: target})
	}
	if _, err := c.Observe(ctx, obs); err != nil {
		t.Fatal(err)
	}
	got, err := c.Predict(ctx, "app", "ws")
	if err != nil {
		t.Fatal(err)
	}
	if rel := abs(got-target) / target; rel > 0.2 {
		t.Fatalf("after 200 observations prediction %g is %f away from %g", got, rel, target)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestClientBadServerURL(t *testing.T) {
	c := New("http://127.0.0.1:1", nil) // nothing listens there
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("expected connection error")
	}
}

func TestClientFlagged(t *testing.T) {
	c := startService(t)
	seed(t, c)
	resp, err := c.Flagged(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Threshold 0 flags everything that has a tracker.
	if len(resp.Users) != 5 || len(resp.Services) != 6 {
		t.Fatalf("flagged at 0: %d users %d services", len(resp.Users), len(resp.Services))
	}
	// Negative threshold uses the server default.
	if _, err := c.Flagged(context.Background(), -1); err != nil {
		t.Fatal(err)
	}
}

// TestClientRetryPolicy exercises the cluster-aware retry rules against
// a flaky stub: GETs retry transport errors and 502/503; POSTs retry
// only 503 (rejected before applying), never transport errors.
func TestClientRetryPolicy(t *testing.T) {
	ctx := context.Background()
	var gets, posts atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			if gets.Add(1) < 3 {
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			w.Write([]byte(`{"status":"ok"}`))
		case http.MethodPost:
			if posts.Add(1) < 2 {
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			w.Write([]byte(`{"accepted":1}`))
		}
	}))
	t.Cleanup(stub.Close)

	c := New(stub.URL, nil)
	c.Retries = 3
	c.RetryBackoff = time.Millisecond
	if err := c.Health(ctx); err != nil {
		t.Fatalf("GET with retries: %v (attempts=%d)", err, gets.Load())
	}
	if gets.Load() != 3 {
		t.Errorf("GET attempts = %d, want 3", gets.Load())
	}
	resp, err := c.Observe(ctx, []server.Observation{{User: "u", Service: "s", Value: 1}})
	if err != nil || resp.Accepted != 1 {
		t.Fatalf("POST with 503 retries: %v", err)
	}
	if posts.Load() != 2 {
		t.Errorf("POST attempts = %d, want 2", posts.Load())
	}

	// Zero retries: first failure is final.
	gets.Store(0)
	c0 := New(stub.URL, nil)
	if err := c0.Health(ctx); err == nil {
		t.Error("unretried GET succeeded against failing stub")
	}

	// POSTs never retry transport errors (unknown outcome).
	dead := New("http://127.0.0.1:1", nil)
	dead.Retries = 2
	dead.RetryBackoff = time.Millisecond
	start := time.Now()
	if _, err := dead.Observe(ctx, []server.Observation{{User: "u", Service: "s", Value: 1}}); err == nil {
		t.Error("POST to dead endpoint succeeded")
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Error("POST transport error appears to have been retried")
	}
}
