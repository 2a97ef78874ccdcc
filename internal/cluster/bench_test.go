package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/server"
	"github.com/qoslab/amf/internal/store"
)

// benchBackend builds one in-memory amfserver over httptest and seeds
// it with users x services observations via the HTTP boundary.
func benchBackend(b *testing.B, users, services int) (*server.Server, *httptest.Server) {
	b.Helper()
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	svc := server.New(core.MustNew(cfg), server.WithLogger(quietLogger()))
	ts := httptest.NewServer(svc.Handler())
	b.Cleanup(ts.Close)
	b.Cleanup(func() { svc.Close() })
	// Batches of 5000 stay under the server's observe batch cap.
	var obs []server.Observation
	flush := func() {
		if len(obs) > 0 {
			benchPost(b, ts.URL+"/api/v1/observe", server.ObserveRequest{Observations: obs})
			obs = obs[:0]
		}
	}
	for i := 0; i < users; i++ {
		for j := 0; j < services; j++ {
			obs = append(obs, server.Observation{
				User:    fmt.Sprintf("bu%d", i),
				Service: fmt.Sprintf("bs%d", j),
				Value:   0.5 + float64((i*7+j)%9),
			})
			if len(obs) == 5000 {
				flush()
			}
		}
	}
	flush()
	return svc, ts
}

func benchPost(b *testing.B, url string, body any) {
	b.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("POST %s: HTTP %d", url, resp.StatusCode)
	}
}

// benchGateway fronts the given replica URLs with one gateway group and
// serves it over httptest (so both arms of the comparison pay the same
// real HTTP cost).
func benchGateway(b *testing.B, replicas []string) *httptest.Server {
	b.Helper()
	g, err := New(Config{
		Groups:        [][]string{replicas},
		ProbeInterval: time.Hour, // no background probes during timing
		Logger:        quietLogger(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(g.Close)
	ts := httptest.NewServer(g.Handler())
	b.Cleanup(ts.Close)
	return ts
}

// runTimed drives one request per op while recording per-op latency,
// then reports the 50th and 95th percentiles next to the mean — the
// issue's gateway-overhead budget is judged at p50, and HTTP latency is
// tail-skewed enough that the mean alone overstates it.
func runTimed(b *testing.B, op func()) {
	op() // warm the connection pool
	lat := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		op()
		lat[i] = time.Since(t0)
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)/2]), "p50-ns/op")
	b.ReportMetric(float64(lat[len(lat)*95/100]), "p95-ns/op")
}

func benchGet(b *testing.B, client *http.Client, url string) {
	resp, err := client.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
}

func benchPostRaw(b *testing.B, client *http.Client, url string, body []byte) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("POST %s: HTTP %d", url, resp.StatusCode)
	}
}

// BenchmarkGatewayPredict prices the proxy hop on the cheapest request,
// a single prediction: direct is one HTTP round trip, gateway is two.
// This is the worst case for relative overhead — the backend does
// microseconds of work, so the extra hop IS the cost.
func BenchmarkGatewayPredict(b *testing.B) {
	_, ts := benchBackend(b, 8, 16)
	gw := benchGateway(b, []string{ts.URL})
	client := &http.Client{}
	path := "/api/v1/predict?user=bu1&service=bs2"
	for _, arm := range []struct{ name, base string }{
		{"direct", ts.URL}, {"gateway", gw.URL},
	} {
		b.Run(arm.name, func(b *testing.B) {
			url := arm.base + path
			runTimed(b, func() { benchGet(b, client, url) })
		})
	}
}

// BenchmarkGatewayRank prices the proxy hop on a realistic adaptation
// query — ranking a candidate set — which a single-group gateway forwards
// verbatim. candidates=200 is the repository benchmark's adapt_cycle
// shape (bench/ gates its allocations as cluster.allocs_per_op.rank_cand);
// candidates=2000 is the large set, where splitting the list across three
// replicas measured twice the single hop (DESIGN.md "Cluster &
// replication") before fan-out was removed.
func BenchmarkGatewayRank(b *testing.B) {
	_, ts := benchBackend(b, 8, 2000)
	gw := benchGateway(b, []string{ts.URL})
	client := &http.Client{}
	for _, n := range []int{200, 2000} {
		body := candidateRequest(b, n, 10)
		for _, arm := range []struct{ name, base string }{{"direct", ts.URL}, {"gateway", gw.URL}} {
			b.Run(fmt.Sprintf("candidates=%d/%s", n, arm.name), func(b *testing.B) {
				url := arm.base + "/api/v1/rank"
				runTimed(b, func() { benchPostRaw(b, client, url, body) })
			})
		}
	}
}

// BenchmarkGatewayBatch is the batch-predict sibling at the repository
// benchmark's shape: 50 candidates, one replica.
func BenchmarkGatewayBatch(b *testing.B) {
	_, ts := benchBackend(b, 8, 50)
	gw := benchGateway(b, []string{ts.URL})
	body := candidateRequest(b, 50, 0)
	client := &http.Client{}
	for _, arm := range []struct{ name, base string }{{"direct", ts.URL}, {"gateway", gw.URL}} {
		b.Run("candidates=50/"+arm.name, func(b *testing.B) {
			url := arm.base + "/api/v1/predict"
			runTimed(b, func() { benchPostRaw(b, client, url, body) })
		})
	}
}

// candidateRequest encodes a rank (or, with topk 0, batch-predict) body
// for user bu1 over the first n services benchBackend seeded.
func candidateRequest(b *testing.B, n, topk int) []byte {
	b.Helper()
	candidates := make([]string, n)
	for i := range candidates {
		candidates[i] = fmt.Sprintf("bs%d", i)
	}
	body, err := json.Marshal(server.RankRequest{User: "bu1", Services: candidates, TopK: topk})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkGatewayRankAll is the paper's adaptation query — "rank every
// known service for this user, top k" — through both paths. The request
// body is ~50 bytes and the backend scans the full catalog, so this is
// the workload where the proxy's pass-through overhead must disappear
// into the backend's scan time (the issue's <=15% p50 budget).
//
// The two paths are sampled interleaved in ONE timing loop rather than
// as separate sub-benchmark arms: on shared hardware the machine drifts
// more between two arms run minutes apart than the proxy hop costs, so
// a paired comparison is the only way to measure the overhead rather
// than the weather. ns/op therefore covers one direct + one gateway
// request; the per-path percentiles and the headline overhead-pct ride
// along as custom metrics.
func BenchmarkGatewayRankAll(b *testing.B) {
	_, ts := benchBackend(b, 4, 96000)
	gw := benchGateway(b, []string{ts.URL})
	body := []byte(`{"user":"bu1","topk":10}`)
	client := &http.Client{}
	direct := ts.URL + "/api/v1/rank"
	gateway := gw.URL + "/api/v1/rank"
	benchPostRaw(b, client, direct, body) // warm both connection pools
	benchPostRaw(b, client, gateway, body)
	dl := make([]time.Duration, b.N)
	gl := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		benchPostRaw(b, client, direct, body)
		t1 := time.Now()
		benchPostRaw(b, client, gateway, body)
		dl[i] = t1.Sub(t0)
		gl[i] = time.Since(t1)
	}
	b.StopTimer()
	sort.Slice(dl, func(i, j int) bool { return dl[i] < dl[j] })
	sort.Slice(gl, func(i, j int) bool { return gl[i] < gl[j] })
	d50, g50 := dl[len(dl)/2], gl[len(gl)/2]
	b.ReportMetric(float64(d50), "direct-p50-ns/op")
	b.ReportMetric(float64(dl[len(dl)*95/100]), "direct-p95-ns/op")
	b.ReportMetric(float64(g50), "gateway-p50-ns/op")
	b.ReportMetric(float64(gl[len(gl)*95/100]), "gateway-p95-ns/op")
	b.ReportMetric(100*(float64(g50)-float64(d50))/float64(d50), "overhead-pct")
}

// BenchmarkReplicationLag measures steady-state replication latency:
// each op appends one observation on the leader and spins until the
// follower has applied it, so ns/op IS the observe-to-replicated lag:
// the leader's commit wakes the follower's status long-poll, and the
// follower reads the record from the leader's directory.
func BenchmarkReplicationLag(b *testing.B) {
	dir := b.TempDir()
	mgr, err := store.Open(dir, store.Options{
		CheckpointInterval: time.Hour,
		Logger:             quietLogger(),
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	leader := server.New(core.MustNew(cfg), server.WithLogger(quietLogger()))
	if _, err := leader.AttachDurable(mgr); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(leader.Handler())
	b.Cleanup(ts.Close)
	b.Cleanup(func() { leader.Close() })

	folCfg := core.DefaultConfig(-0.007, 0, 20)
	folCfg.Expiry = 0
	follower := server.New(core.MustNew(folCfg), server.WithLogger(quietLogger()))
	b.Cleanup(func() { follower.Close() })
	rp, err := follower.StartFollower(server.FollowerConfig{
		Leader:        ts.URL,
		LeaderData:    dir,
		WaitMS:        1000,
		RetryInterval: 5 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}

	client := &http.Client{}
	body := []byte(`{"observations":[{"user":"lu","service":"ls","value":1.5}]}`)
	benchPostRaw(b, client, ts.URL+"/api/v1/observe", body)
	waitApplied(b, rp, mgr.WAL().LastSeq())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPostRaw(b, client, ts.URL+"/api/v1/observe", body)
		waitApplied(b, rp, mgr.WAL().LastSeq())
	}
}

func waitApplied(b *testing.B, rp *server.Replicator, seq uint64) {
	b.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for rp.AppliedSeq() < seq {
		if time.Now().After(deadline) {
			b.Fatalf("follower stuck at seq %d, want %d", rp.AppliedSeq(), seq)
		}
		time.Sleep(50 * time.Microsecond)
	}
}
