package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/obs"
	"github.com/qoslab/amf/internal/server"
	"github.com/qoslab/amf/internal/store"
)

// replicatedGroup builds one shard group the way production runs it: a
// durable leader plus a WAL-shipping follower. Returns the two base
// URLs (leader first).
func replicatedGroup(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	leader, mgr, _ := durableBackend(t, dir)
	tsLeader := httptest.NewServer(leader.Handler())
	t.Cleanup(func() { mgr.Close() })
	t.Cleanup(leader.Close)
	t.Cleanup(tsLeader.Close)

	folCfg := core.DefaultConfig(-0.007, 0, 20)
	folCfg.Expiry = 0
	follower := server.New(core.MustNew(folCfg), server.WithLogger(quietLogger()))
	tsFollower := httptest.NewServer(follower.Handler())
	t.Cleanup(follower.Close)
	t.Cleanup(tsFollower.Close)
	if _, err := follower.StartFollower(server.FollowerConfig{
		Leader:        tsLeader.URL,
		LeaderData:    dir,
		StoreOptions:  store.Options{CheckpointInterval: time.Hour, Logger: quietLogger()},
		WaitMS:        100,
		RetryInterval: 20 * time.Millisecond,
	}); err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	return tsLeader.URL, tsFollower.URL
}

// TestClusterMetricsFederation runs a real 2-group x 2-replica cluster
// (durable leaders, WAL-shipping followers) and asserts that one GET
// /api/v1/cluster/metrics scrape sees all of it: every replica's
// families re-labelled with group/replica origin, the gateway's own
// page, and the derived replication-lag gauges — all through the strict
// parser, so the federated page is valid exposition text.
func TestClusterMetricsFederation(t *testing.T) {
	lead0, fol0 := replicatedGroup(t)
	lead1, fol1 := replicatedGroup(t)
	g := newGateway(t, [][]string{{lead0, fol0}, {lead1, fol1}}, nil)

	var observations []server.Observation
	for i := 0; i < 24; i++ {
		observations = append(observations, server.Observation{
			User: fmt.Sprintf("user-%d", i), Service: "svc", Value: 1 + float64(i%5),
		})
	}
	if w := gwReq(t, g, http.MethodPost, "/api/v1/observe",
		server.ObserveRequest{Observations: observations}); w.Code != http.StatusOK {
		t.Fatalf("observe via gateway: HTTP %d %s", w.Code, w.Body.String())
	}

	// Probe rounds discover roles and carry WAL/applied sequences into
	// the gateway's replica state, which the derived gauges read.
	for i := 0; i < 2; i++ {
		g.probeAll()
	}

	w := gwReq(t, g, http.MethodGet, "/api/v1/cluster/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("cluster metrics: HTTP %d %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	tm, err := obs.ParseMetrics(strings.NewReader(w.Body.String()))
	if err != nil {
		t.Fatalf("federated page does not round-trip the strict parser: %v", err)
	}
	if err := tm.Validate(); err != nil {
		t.Fatalf("federated page fails validation: %v", err)
	}

	// Every replica's page landed, re-labelled with its origin.
	for i, url := range []string{lead0, fol0, lead1, fol1} {
		labels := map[string]string{"group": fmt.Sprintf("shard-%d", i/2), "replica": url}
		if _, ok := tm.Value("amf_uptime_seconds", labels); !ok {
			t.Errorf("no amf_uptime_seconds sample for %v", labels)
		}
	}
	// The gateway federates its own registry as just another page.
	if _, ok := tm.Value("amf_cluster_probe_errors_total",
		map[string]string{"group": "gateway", "replica": "gateway"}); !ok {
		t.Error("gateway self page missing from the federated output")
	}
	// amf_build_info merges across pages under one HELP/TYPE: one sample
	// per replica plus the gateway's own.
	if f, ok := tm.Families["amf_build_info"]; !ok {
		t.Error("amf_build_info missing from the federated output")
	} else if len(f.Samples) != 5 {
		t.Errorf("amf_build_info has %d samples, want 5 (4 replicas + gateway)", len(f.Samples))
	}

	// Derived gauges: per-follower replication lag in both units, and
	// epoch/fenced/checkpoint-age for every replica.
	for _, tc := range []struct{ group, replica string }{
		{"shard-0", fol0}, {"shard-1", fol1},
	} {
		labels := map[string]string{"group": tc.group, "replica": tc.replica}
		lag, ok := tm.Value("amf_cluster_replication_lag_seqs", labels)
		if !ok {
			t.Errorf("no amf_cluster_replication_lag_seqs for %v", labels)
		} else if lag < 0 {
			t.Errorf("lag_seqs for %v = %g, want >= 0", labels, lag)
		}
		if _, ok := tm.Value("amf_cluster_replication_lag_seconds", labels); !ok {
			t.Errorf("no amf_cluster_replication_lag_seconds for %v", labels)
		}
	}
	for i, url := range []string{lead0, fol0, lead1, fol1} {
		labels := map[string]string{"group": fmt.Sprintf("shard-%d", i/2), "replica": url}
		if _, ok := tm.Value("amf_cluster_replica_epoch", labels); !ok {
			t.Errorf("no amf_cluster_replica_epoch for %v", labels)
		}
		if _, ok := tm.Value("amf_cluster_replica_fenced", labels); !ok {
			t.Errorf("no amf_cluster_replica_fenced for %v", labels)
		}
	}
	// The durable leaders hold a real directory claim.
	for i, lead := range []string{lead0, lead1} {
		labels := map[string]string{"group": fmt.Sprintf("shard-%d", i), "replica": lead}
		if epoch, _ := tm.Value("amf_cluster_replica_epoch", labels); epoch < 1 {
			t.Errorf("leader %s epoch = %g, want >= 1", lead, epoch)
		}
		// Each durable replica's checkpoint age, re-exported with its
		// origin labels.
		if _, ok := tm.Value("amf_checkpoint_age_seconds", labels); !ok {
			t.Errorf("no amf_checkpoint_age_seconds for %v", labels)
		}
	}
}

// TestClusterMetricsFederationSurvivesDeadReplica: a scrape failure
// costs that replica's series, never the page.
func TestClusterMetricsFederationSurvivesDeadReplica(t *testing.T) {
	_, tsLive := backend(t)
	tsDead := httptest.NewServer(http.NotFoundHandler())
	tsDead.Close()
	g := newGateway(t, [][]string{{tsLive.URL, tsDead.URL}}, nil)
	g.probeAll()

	w := gwReq(t, g, http.MethodGet, "/api/v1/cluster/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("cluster metrics with a dead replica: HTTP %d %s", w.Code, w.Body.String())
	}
	tm, err := obs.ParseMetrics(strings.NewReader(w.Body.String()))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, ok := tm.Value("amf_uptime_seconds",
		map[string]string{"group": "shard-0", "replica": tsLive.URL}); !ok {
		t.Error("live replica's series missing")
	}
	if _, ok := tm.Value("amf_uptime_seconds",
		map[string]string{"group": "shard-0", "replica": tsDead.URL}); ok {
		t.Error("dead replica somehow produced a page")
	}
	if v := metricValue(t, g, "amf_cluster_scrape_errors_total"); v < 1 {
		t.Errorf("amf_cluster_scrape_errors_total = %g, want >= 1", v)
	}
}

// debugTraces mirrors the GET /debug/traces wire format.
type debugTraces struct {
	Traces []struct {
		Trace string `json:"trace"`
		Spans []struct {
			Span        string             `json:"span"`
			Parent      string             `json:"parent"`
			Name        string             `json:"name"`
			DurationMS  float64            `json:"duration_ms"`
			Err         bool               `json:"err"`
			Annotations map[string]float64 `json:"annotations_ms"`
		} `json:"spans"`
	} `json:"traces"`
}

// fetchTrace GETs url's /debug/traces filtered to one trace ID.
func fetchTrace(t *testing.T, url, id string) debugTraces {
	t.Helper()
	resp, err := http.Get(url + "/debug/traces?trace=" + id)
	if err != nil {
		t.Fatalf("GET /debug/traces: %v", err)
	}
	defer resp.Body.Close()
	var dt debugTraces
	if err := json.NewDecoder(resp.Body).Decode(&dt); err != nil {
		t.Fatalf("decode /debug/traces: %v", err)
	}
	return dt
}

// waitForServerSpan polls a backend's /debug/traces until the trace
// shows up (the server middleware files its span a beat after the
// response flushes) and returns it.
func waitForServerSpan(t *testing.T, url, id string) debugTraces {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		dt := fetchTrace(t, url, id)
		if len(dt.Traces) > 0 {
			return dt
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never appeared at %s/debug/traces", id, url)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTraceFollowsObserveAcrossGatewayAndShard sends one observe through
// the gateway and follows its trace ID to every hop: the gateway mints
// the root span (echoed as X-Request-Id), the raw pass-through stamps
// X-Amf-Trace without touching the body, and the backend adopts the same
// trace and annotates its span with the engine's queue/journal/apply/
// publish timings. Both /debug/traces endpoints can be joined on the ID.
func TestTraceFollowsObserveAcrossGatewayAndShard(t *testing.T) {
	_, ts := backend(t)
	tsGW := httptest.NewServer(newGateway(t, [][]string{{ts.URL}}, nil).Handler())
	t.Cleanup(tsGW.Close)

	body := strings.NewReader(`{"observations":[{"user":"u","service":"s","value":2}]}`)
	resp, err := http.Post(tsGW.URL+"/api/v1/observe", "application/json", body)
	if err != nil {
		t.Fatalf("observe via gateway: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe via gateway: HTTP %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-Id")
	if len(id) != 32 {
		t.Fatalf("X-Request-Id = %q, want a 32-hex trace ID", id)
	}

	// Gateway hop: root span for the route plus a backend child.
	gw := fetchTrace(t, tsGW.URL, id)
	if len(gw.Traces) != 1 {
		t.Fatalf("gateway /debug/traces?trace=%s returned %d traces, want 1", id, len(gw.Traces))
	}
	var rootSpan string
	for _, sp := range gw.Traces[0].Spans {
		if sp.Parent == "" {
			rootSpan = sp.Span
		}
	}
	if rootSpan == "" {
		t.Fatal("gateway trace has no root span")
	}
	childSeen := false
	for _, sp := range gw.Traces[0].Spans {
		if sp.Parent == rootSpan && strings.HasPrefix(sp.Name, "backend ") {
			childSeen = true
		}
	}
	if !childSeen {
		t.Errorf("gateway trace has no backend child span: %+v", gw.Traces[0].Spans)
	}

	// Shard hop: same trace ID, parented under the gateway's root span,
	// carrying the engine timing annotations.
	srv := waitForServerSpan(t, ts.URL, id)
	obsSpan := srv.Traces[0].Spans[0]
	if obsSpan.Parent != rootSpan {
		t.Errorf("server span parent = %q, want gateway root %q", obsSpan.Parent, rootSpan)
	}
	for _, key := range []string{"engine_queue_wait", "engine_journal", "engine_apply", "engine_publish"} {
		if _, ok := obsSpan.Annotations[key]; !ok {
			t.Errorf("server span missing %s annotation (have %v)", key, obsSpan.Annotations)
		}
	}
}

// TestTraceFollowsBucketedObserve: the multi-group observe path splits
// the batch per shard, one backend call per bucket — every touched shard
// must adopt the same trace ID.
func TestTraceFollowsBucketedObserve(t *testing.T) {
	_, ts0 := backend(t)
	_, ts1 := backend(t)
	tsGW := httptest.NewServer(newGateway(t, [][]string{{ts0.URL}, {ts1.URL}}, nil).Handler())
	t.Cleanup(tsGW.Close)

	var observations []server.Observation
	for i := 0; i < 24; i++ {
		observations = append(observations, server.Observation{
			User: fmt.Sprintf("user-%d", i), Service: "svc", Value: 1,
		})
	}
	buf, _ := json.Marshal(server.ObserveRequest{Observations: observations})
	resp, err := http.Post(tsGW.URL+"/api/v1/observe", "application/json", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatalf("observe via gateway: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe via gateway: HTTP %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-Id")
	if len(id) != 32 {
		t.Fatalf("X-Request-Id = %q, want a 32-hex trace ID", id)
	}
	// 24 users split across both shards (the sharding test pins this), so
	// both backends saw a bucket of the same trace.
	for _, ts := range []string{ts0.URL, ts1.URL} {
		srv := waitForServerSpan(t, ts, id)
		if got := srv.Traces[0].Trace; got != id {
			t.Errorf("backend %s recorded trace %s, want %s", ts, got, id)
		}
	}
}
