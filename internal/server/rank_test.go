package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/qoslab/amf/internal/obs"
)

func decodeRank(t *testing.T, body []byte) RankResponse {
	t.Helper()
	var resp RankResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("rank response does not decode: %v\n%s", err, body)
	}
	return resp
}

func TestRankEndpoint(t *testing.T) {
	s := testServer(t)
	observeSome(t, s) // u0..u3 × s0..s4

	w := doReq(t, s, http.MethodPost, "/api/v1/rank", RankRequest{
		User:     "u1",
		Services: []string{"s3", "s0", "s4", "ghost", "s1"},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("rank status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeRank(t, w.Body.Bytes())
	if resp.User != "u1" || resp.Metric != "rt" {
		t.Fatalf("echo fields: %+v", resp)
	}
	if resp.Candidates != 4 {
		t.Fatalf("candidates = %d, want 4", resp.Candidates)
	}
	if len(resp.Ranked) != 4 {
		t.Fatalf("ranked %d services: %+v", len(resp.Ranked), resp.Ranked)
	}
	for i := 1; i < len(resp.Ranked); i++ {
		if resp.Ranked[i].Value < resp.Ranked[i-1].Value {
			t.Fatalf("rt ranking not ascending: %+v", resp.Ranked)
		}
	}
	if len(resp.Unknown) != 1 || resp.Unknown[0] != "ghost" {
		t.Fatalf("unknown = %v, want [ghost]", resp.Unknown)
	}
	if resp.ViewVersion == 0 {
		t.Fatal("view version missing")
	}

	// The ranking must agree with batch predict on the same services.
	bp := doReq(t, s, http.MethodPost, "/api/v1/predict", BatchPredictRequest{
		User: "u1", Services: []string{"s3", "s0", "s4", "s1"},
	})
	var bpResp BatchPredictResponse
	if err := json.Unmarshal(bp.Body.Bytes(), &bpResp); err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, p := range bpResp.Predictions {
		if p.OK {
			vals[p.Service] = p.Value
		}
	}
	for _, r := range resp.Ranked {
		if v, ok := vals[r.Service]; !ok || v != r.Value {
			t.Fatalf("rank value %q=%g disagrees with predict %g (%v)", r.Service, r.Value, v, ok)
		}
	}
}

func TestRankTopKAndMetricDirection(t *testing.T) {
	s := testServer(t)
	observeSome(t, s)
	all := []string{"s0", "s1", "s2", "s3", "s4"}

	full := decodeRank(t, doReq(t, s, http.MethodPost, "/api/v1/rank",
		RankRequest{User: "u0", Services: all}).Body.Bytes())
	top2 := decodeRank(t, doReq(t, s, http.MethodPost, "/api/v1/rank",
		RankRequest{User: "u0", Services: all, TopK: 2}).Body.Bytes())
	if len(top2.Ranked) != 2 {
		t.Fatalf("topk=2 returned %d", len(top2.Ranked))
	}
	for i := range top2.Ranked {
		if top2.Ranked[i] != full.Ranked[i] {
			t.Fatalf("topk not a prefix of full ranking: %+v vs %+v", top2.Ranked, full.Ranked)
		}
	}

	tp := decodeRank(t, doReq(t, s, http.MethodPost, "/api/v1/rank",
		RankRequest{User: "u0", Services: all, Metric: "throughput"}).Body.Bytes())
	if tp.Metric != "tp" {
		t.Fatalf("metric echo %q", tp.Metric)
	}
	for i := 1; i < len(tp.Ranked); i++ {
		if tp.Ranked[i].Value > tp.Ranked[i-1].Value {
			t.Fatalf("tp ranking not descending: %+v", tp.Ranked)
		}
	}
}

func TestRankFullScan(t *testing.T) {
	s := testServer(t)
	observeSome(t, s)
	// Empty candidate list = rank every known service; TopK mandatory.
	resp := decodeRank(t, doReq(t, s, http.MethodPost, "/api/v1/rank",
		RankRequest{User: "u2", TopK: 3}).Body.Bytes())
	if resp.Candidates != 5 || len(resp.Ranked) != 3 {
		t.Fatalf("full scan: %d candidates, %d ranked", resp.Candidates, len(resp.Ranked))
	}
	// And it agrees with the explicit-candidate ranking.
	explicit := decodeRank(t, doReq(t, s, http.MethodPost, "/api/v1/rank",
		RankRequest{User: "u2", Services: []string{"s0", "s1", "s2", "s3", "s4"}, TopK: 3}).Body.Bytes())
	for i := range resp.Ranked {
		if resp.Ranked[i] != explicit.Ranked[i] {
			t.Fatalf("full scan disagrees with explicit candidates:\n%+v\n%+v", resp.Ranked, explicit.Ranked)
		}
	}
}

func TestRankErrors(t *testing.T) {
	s := testServer(t)
	observeSome(t, s)
	cases := []struct {
		name string
		body any
		raw  string
		code int
	}{
		{name: "bad json", raw: "{", code: http.StatusBadRequest},
		{name: "missing user", body: RankRequest{Services: []string{"s0"}}, code: http.StatusBadRequest},
		{name: "unknown metric", body: RankRequest{User: "u0", Services: []string{"s0"}, Metric: "jitter"}, code: http.StatusBadRequest},
		{name: "full scan without topk", body: RankRequest{User: "u0"}, code: http.StatusBadRequest},
		{name: "unknown user", body: RankRequest{User: "ghost", Services: []string{"s0"}}, code: http.StatusNotFound},
	}
	for _, tc := range cases {
		if tc.raw != "" {
			req := httptest.NewRequest(http.MethodPost, "/api/v1/rank", strings.NewReader(tc.raw))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != tc.code {
				t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.code)
			}
			continue
		}
		if got := doReq(t, s, http.MethodPost, "/api/v1/rank", tc.body).Code; got != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.code)
		}
	}
	// Oversized candidate set.
	s.MaxBatch = 3
	if got := doReq(t, s, http.MethodPost, "/api/v1/rank",
		RankRequest{User: "u0", Services: []string{"s0", "s1", "s2", "s3"}}).Code; got != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized: status %d, want 413", got)
	}
	// A full scan is bounded the same way, by its topk: a 30-byte body
	// must not make the server sort and serialise the whole catalog.
	over := doReq(t, s, http.MethodPost, "/api/v1/rank", RankRequest{User: "u0", TopK: 1_000_000_000})
	var e struct{ Error string }
	if err := json.Unmarshal(over.Body.Bytes(), &e); over.Code != http.StatusRequestEntityTooLarge || err != nil || !strings.Contains(e.Error, "exceeds limit 3") {
		t.Errorf("full scan past MaxBatch: status %d body %s, want 413 and an error naming the limit", over.Code, over.Body)
	}
	if got := doReq(t, s, http.MethodPost, "/api/v1/rank", RankRequest{User: "u0", TopK: 3}).Code; got != http.StatusOK {
		t.Errorf("full scan at MaxBatch: status %d, want 200", got)
	}
}

// TestRankMetricsExposition checks that rankings are timed by the one
// family that times every route, amf_http_request_duration_seconds
// (there is no rank-only family), and that the page survives the strict
// parser+validator round-trip. The middleware times the first request
// on a route and every 8th after it, each with weight 8, so the four
// rankings below book one timed sample of weight 8.
func TestRankMetricsExposition(t *testing.T) {
	s := testServer(t)
	observeSome(t, s)
	for i := 0; i < 3; i++ {
		doReq(t, s, http.MethodPost, "/api/v1/rank",
			RankRequest{User: "u0", Services: []string{"s0", "s1", "s2"}})
	}
	doReq(t, s, http.MethodPost, "/api/v1/rank", RankRequest{User: "u0", TopK: 2})

	w := doReq(t, s, http.MethodGet, "/metrics", nil)
	tm, err := obs.ParseMetrics(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if err := tm.Validate(); err != nil {
		t.Fatalf("/metrics does not validate: %v", err)
	}
	for _, gone := range []string{"amf_rank_latency_seconds", "amf_rank_candidates_total"} {
		if _, ok := tm.Families[gone]; ok {
			t.Errorf("%s is exported; the route histogram times rankings", gone)
		}
	}
	v, ok := tm.Value("amf_http_request_duration_seconds_count", map[string]string{"route": "POST /api/v1/rank"})
	if want := float64(latencySampleMask + 1); !ok || v != want {
		t.Fatalf(`amf_http_request_duration_seconds_count{route="POST /api/v1/rank"} = %g, %v; want %g`, v, ok, want)
	}
}
