package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/core"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	return New(core.MustNew(cfg))
}

func doReq(t *testing.T, s *Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var reader *bytes.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reader = bytes.NewReader(buf)
	} else {
		reader = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, reader)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// observeOne posts a one-sample observe.
func observeOne(t *testing.T, s *Server, user, service string, v float64) *httptest.ResponseRecorder {
	t.Helper()
	return doReq(t, s, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: []Observation{
		{User: user, Service: service, Value: v},
	}})
}

func observeSome(t *testing.T, s *Server) {
	t.Helper()
	var obs []Observation
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			obs = append(obs, Observation{
				User:    fmt.Sprintf("u%d", i),
				Service: fmt.Sprintf("s%d", j),
				Value:   0.5 + float64((i+j)%4),
			})
		}
	}
	w := doReq(t, s, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: obs})
	if w.Code != http.StatusOK {
		t.Fatalf("observe status %d: %s", w.Code, w.Body.String())
	}
}

func TestHealthz(t *testing.T) {
	w := doReq(t, testServer(t), http.MethodGet, "/healthz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz status %d", w.Code)
	}
}

func TestObserveRegistersAndCounts(t *testing.T) {
	s := testServer(t)
	w := doReq(t, s, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: []Observation{
		{User: "u1", Service: "s1", Value: 1.4},
		{User: "u1", Service: "s2", Value: 0.7},
		{User: "u2", Service: "s1", Value: 0.4},
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp ObserveResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 3 || resp.NewUsers != 2 || resp.NewServices != 2 {
		t.Fatalf("observe response %+v", resp)
	}
}

func TestObserveValidation(t *testing.T) {
	s := testServer(t)
	cases := map[string]any{
		"bad json":    "{",
		"empty batch": ObserveRequest{},
		"no names":    ObserveRequest{Observations: []Observation{{Value: 1}}},
		"negative":    ObserveRequest{Observations: []Observation{{User: "u", Service: "s", Value: -1}}},
	}
	for name, body := range cases {
		var w *httptest.ResponseRecorder
		if raw, ok := body.(string); ok {
			req := httptest.NewRequest(http.MethodPost, "/api/v1/observe", strings.NewReader(raw))
			w = httptest.NewRecorder()
			s.Handler().ServeHTTP(w, req)
		} else {
			w = doReq(t, s, http.MethodPost, "/api/v1/observe", body)
		}
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, w.Code)
		}
	}
}

func TestObserveMaxBatch(t *testing.T) {
	s := testServer(t)
	s.MaxBatch = 2
	obs := []Observation{
		{User: "u", Service: "a", Value: 1},
		{User: "u", Service: "b", Value: 1},
		{User: "u", Service: "c", Value: 1},
	}
	w := doReq(t, s, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: obs})
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", w.Code)
	}
}

func TestPredictFlow(t *testing.T) {
	s := testServer(t)
	observeSome(t, s)
	w := doReq(t, s, http.MethodGet, "/api/v1/predict?user=u1&service=s2", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("predict status %d: %s", w.Code, w.Body.String())
	}
	var resp PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Value < 0 || resp.Value > 20 {
		t.Fatalf("prediction %g out of range", resp.Value)
	}
}

func TestPredictErrors(t *testing.T) {
	s := testServer(t)
	observeSome(t, s)
	if w := doReq(t, s, http.MethodGet, "/api/v1/predict", nil); w.Code != http.StatusBadRequest {
		t.Errorf("missing params: %d", w.Code)
	}
	if w := doReq(t, s, http.MethodGet, "/api/v1/predict?user=ghost&service=s1", nil); w.Code != http.StatusNotFound {
		t.Errorf("unknown user: %d", w.Code)
	}
	if w := doReq(t, s, http.MethodGet, "/api/v1/predict?user=u1&service=ghost", nil); w.Code != http.StatusNotFound {
		t.Errorf("unknown service: %d", w.Code)
	}
}

func TestBatchPredict(t *testing.T) {
	s := testServer(t)
	observeSome(t, s)
	w := doReq(t, s, http.MethodPost, "/api/v1/predict", BatchPredictRequest{
		User:     "u2",
		Services: []string{"s0", "s4", "ghost"},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", w.Code, w.Body.String())
	}
	var resp BatchPredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Predictions) != 3 {
		t.Fatalf("predictions = %+v", resp.Predictions)
	}
	if !resp.Predictions[0].OK || !resp.Predictions[1].OK {
		t.Fatal("known services should predict")
	}
	if resp.Predictions[2].OK {
		t.Fatal("unknown service must not predict")
	}
}

func TestBatchPredictUnknownUserAllNotOK(t *testing.T) {
	s := testServer(t)
	observeSome(t, s)
	w := doReq(t, s, http.MethodPost, "/api/v1/predict", BatchPredictRequest{
		User:     "ghost",
		Services: []string{"s0"},
	})
	var resp BatchPredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Predictions[0].OK {
		t.Fatal("unknown user must yield no predictions")
	}
}

func TestBatchPredictValidation(t *testing.T) {
	s := testServer(t)
	if w := doReq(t, s, http.MethodPost, "/api/v1/predict", BatchPredictRequest{}); w.Code != http.StatusBadRequest {
		t.Errorf("empty request: %d", w.Code)
	}
	s.MaxBatch = 1
	w := doReq(t, s, http.MethodPost, "/api/v1/predict", BatchPredictRequest{User: "u", Services: []string{"a", "b"}})
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: %d", w.Code)
	}
}

func TestStatsAndLists(t *testing.T) {
	s := testServer(t)
	observeSome(t, s)
	w := doReq(t, s, http.MethodGet, "/api/v1/stats", nil)
	var stats StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Users != 4 || stats.Services != 5 || stats.Updates != 20 {
		t.Fatalf("stats = %+v", stats)
	}
	var users []EntityInfo
	w = doReq(t, s, http.MethodGet, "/api/v1/users", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &users); err != nil {
		t.Fatal(err)
	}
	if len(users) != 4 {
		t.Fatalf("users = %+v", users)
	}
	var svcs []EntityInfo
	w = doReq(t, s, http.MethodGet, "/api/v1/services", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &svcs); err != nil {
		t.Fatal(err)
	}
	if len(svcs) != 5 {
		t.Fatalf("services = %+v", svcs)
	}
}

func TestDeleteUserChurn(t *testing.T) {
	s := testServer(t)
	observeSome(t, s)
	if w := doReq(t, s, http.MethodDelete, "/api/v1/users?name=u1", nil); w.Code != http.StatusOK {
		t.Fatalf("delete status %d", w.Code)
	}
	// Prediction for the departed user must now 404.
	if w := doReq(t, s, http.MethodGet, "/api/v1/predict?user=u1&service=s1", nil); w.Code != http.StatusNotFound {
		t.Fatalf("post-churn predict status %d", w.Code)
	}
	if w := doReq(t, s, http.MethodDelete, "/api/v1/users?name=u1", nil); w.Code != http.StatusNotFound {
		t.Fatalf("double delete status %d", w.Code)
	}
	if w := doReq(t, s, http.MethodDelete, "/api/v1/users", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("delete without name status %d", w.Code)
	}
	if w := doReq(t, s, http.MethodDelete, "/api/v1/services?name=s1", nil); w.Code != http.StatusOK {
		t.Fatalf("delete service status %d", w.Code)
	}
}

func TestObserveCustomTimestamp(t *testing.T) {
	base := time.Date(2014, 6, 1, 12, 0, 0, 0, time.UTC)
	s := NewWithClock(core.MustNew(core.DefaultConfig(-0.007, 0, 20)), func() time.Time { return base })
	w := doReq(t, s, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: []Observation{
		{User: "u", Service: "s", Value: 1, TimestampMs: base.Add(time.Minute).UnixMilli()},
		{User: "u", Service: "s", Value: 1, TimestampMs: base.Add(-time.Hour).UnixMilli()}, // clamped to 0
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
}

// TestFutureTimestampKeepsReplay: one observe stamped centuries ahead of
// the server's clock is stamped now, so the replay pool's clock stays
// where it was and the samples observed after it are still replayed —
// here, the replay that follows moves a fresh pair's prediction.
func TestFutureTimestampKeepsReplay(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 15 * time.Minute
	s := NewWithClock(core.MustNew(cfg), func() time.Time { return base })
	defer s.Close()
	future := time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC).UnixMilli()
	if w := doReq(t, s, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: []Observation{
		{User: "skewed", Service: "far", Value: 1, TimestampMs: future},
	}}); w.Code != http.StatusOK {
		t.Fatalf("observe: status %d: %s", w.Code, w.Body.String())
	}
	observeSome(t, s)
	predict := func() string {
		t.Helper()
		w := doReq(t, s, http.MethodGet, "/api/v1/predict?user=u1&service=s2", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("predict: status %d: %s", w.Code, w.Body.String())
		}
		return w.Body.String()
	}
	before := predict()
	if n := s.Engine().ReplaySteps(500); n != 500 {
		t.Fatalf("replayed %d of 500 steps", n)
	}
	if after := predict(); after == before {
		t.Fatalf("replay left a fresh pair untouched (%s): samples observed after a future-stamped one expired on arrival", after)
	}
}

// TestStreamTrainsDeterministically: the model a stream of observations
// trains does not depend on how its client batches it. Two servers on
// one seed and one clock get the same timestamped samples — one in a
// single observe, the other seven at a time — and must serve
// byte-identical snapshots.
func TestStreamTrainsDeterministically(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var obs []Observation
	for i := 0; i < 300; i++ {
		obs = append(obs, Observation{
			User: fmt.Sprintf("app-%d", i%6), Service: fmt.Sprintf("ws-%d", (i*7)%40),
			Value: 0.25 + float64(i%9)/3, TimestampMs: epoch.Add(time.Duration(i) * 10 * time.Millisecond).UnixMilli(),
		})
	}
	run := func(per int) []byte {
		t.Helper()
		cfg := core.DefaultConfig(-0.007, 0, 20)
		cfg.Expiry = 0
		cfg.Seed = 11
		s := NewWithClock(core.MustNew(cfg), func() time.Time { return epoch.Add(time.Hour) })
		defer s.Close()
		for i := 0; i < len(obs); i += per {
			batch := obs[i:min(i+per, len(obs))]
			if w := doReq(t, s, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: batch}); w.Code != http.StatusOK {
				t.Fatalf("observe: status %d: %s", w.Code, w.Body.String())
			}
		}
		snap, err := s.Engine().View().Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Engine().Stats().Applied; got != int64(len(obs)) {
			t.Fatalf("applied %d of %d samples", got, len(obs))
		}
		return snap
	}
	whole, chunked := run(len(obs)), run(7)
	if !bytes.Equal(whole, chunked) {
		t.Fatal("the same stream, batched differently, trained different models")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := testServer(t)
	observeSome(t, s)
	data, err := s.eng.View().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Restore(data); err != nil {
		t.Fatal(err)
	}
}

func TestRunReplayStopsOnCancel(t *testing.T) {
	s := testServer(t)
	observeSome(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		s.RunReplay(ctx, time.Millisecond, 50)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("RunReplay did not stop on cancel")
	}
	// Background replay should have performed extra updates beyond the 20
	// observations.
	w := doReq(t, s, http.MethodGet, "/api/v1/stats", nil)
	var stats StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Updates <= 20 {
		t.Fatalf("replay performed no updates: %d", stats.Updates)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t)
	observeSome(t, s)
	doReq(t, s, http.MethodGet, "/api/v1/predict?user=u1&service=s1", nil)
	doReq(t, s, http.MethodGet, "/api/v1/predict?user=ghost&service=s1", nil)
	doReq(t, s, http.MethodDelete, "/api/v1/users?name=u3", nil)

	w := doReq(t, s, http.MethodGet, "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		"amf_observations_total 20",
		"amf_predictions_total 1",
		"amf_not_found_total 1",
		"amf_churn_removals_total 1",
		"amf_model_users 3",
		"amf_engine_applied_total 20",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestMetricsCountsBadRequests(t *testing.T) {
	s := testServer(t)
	doReq(t, s, http.MethodPost, "/api/v1/observe", ObserveRequest{})
	w := doReq(t, s, http.MethodGet, "/metrics", nil)
	if !strings.Contains(w.Body.String(), "amf_bad_requests_total 1") {
		t.Fatalf("bad request not counted:\n%s", w.Body.String())
	}
}

func TestFlaggedEndpoint(t *testing.T) {
	s := testServer(t)
	observeSome(t, s)
	// Train the existing entities so their trackers fall, then add a raw
	// newcomer whose tracker is still near 1.
	s.eng.ReplaySteps(2000)
	doReq(t, s, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: []Observation{
		{User: "fresh", Service: "s0", Value: 9},
	}})

	w := doReq(t, s, http.MethodGet, "/api/v1/flagged?threshold=0.6", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("flagged status %d: %s", w.Code, w.Body.String())
	}
	var resp FlaggedResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range resp.Users {
		if f.Name == "fresh" {
			found = true
			if f.Error < 0.6 {
				t.Fatalf("flagged error %g below threshold", f.Error)
			}
		}
	}
	if !found {
		t.Fatalf("newcomer not flagged: %+v", resp)
	}
	// Default threshold and validation.
	if w := doReq(t, s, http.MethodGet, "/api/v1/flagged", nil); w.Code != http.StatusOK {
		t.Fatalf("default threshold: %d", w.Code)
	}
	if w := doReq(t, s, http.MethodGet, "/api/v1/flagged?threshold=abc", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("bad threshold: %d", w.Code)
	}
	if w := doReq(t, s, http.MethodGet, "/api/v1/flagged?threshold=-1", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("negative threshold: %d", w.Code)
	}
}
