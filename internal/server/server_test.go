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

func TestObserveBatchLimit(t *testing.T) {
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
