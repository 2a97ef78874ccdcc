package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/server"
	"github.com/qoslab/amf/internal/store"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// backend spins up one in-memory amfserver over httptest.
func backend(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	svc := server.New(core.MustNew(cfg), server.WithLogger(quietLogger()))
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { svc.Close() })
	return svc, ts
}

// newGateway builds a gateway over the given groups; mod may tweak the
// config before construction. The probe loop is NOT started — tests
// drive probes explicitly with probeAll for determinism.
func newGateway(t *testing.T, groups [][]string, mod func(*Config)) *Gateway {
	t.Helper()
	cfg := Config{Groups: groups, Logger: quietLogger()}
	if mod != nil {
		mod(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(g.Close)
	return g
}

func gwReq(t *testing.T, g *Gateway, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	return do(t, g.Handler(), method, path, body)
}

// do serves one JSON request through h in-process.
func do(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var reader io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reader = bytes.NewReader(buf)
	}
	req := httptest.NewRequest(method, path, reader)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(w.Body).Decode(&v); err != nil {
		t.Fatalf("decode: %v (body %q)", err, w.Body.String())
	}
	return v
}

func TestGatewayShardsUsersAcrossGroups(t *testing.T) {
	_, ts0 := backend(t)
	_, ts1 := backend(t)
	g := newGateway(t, [][]string{{ts0.URL}, {ts1.URL}}, nil)

	const users = 24
	var obs []server.Observation
	for i := 0; i < users; i++ {
		for j := 0; j < 3; j++ {
			obs = append(obs, server.Observation{
				User:    fmt.Sprintf("user-%d", i),
				Service: fmt.Sprintf("svc-%d", j),
				Value:   1 + float64((i+j)%5),
			})
		}
	}
	w := gwReq(t, g, http.MethodPost, "/api/v1/observe", server.ObserveRequest{Observations: obs})
	if w.Code != http.StatusOK {
		t.Fatalf("observe via gateway: HTTP %d %s", w.Code, w.Body.String())
	}
	resp := decode[server.ObserveResponse](t, w)
	if resp.Accepted != len(obs) {
		t.Fatalf("accepted %d of %d", resp.Accepted, len(obs))
	}
	if resp.NewUsers != users {
		t.Fatalf("merged NewUsers = %d, want %d", resp.NewUsers, users)
	}

	// Both shards should hold a strict, non-empty subset of the users.
	total := 0
	for _, ts := range []*httptest.Server{ts0, ts1} {
		st := backendStats(t, ts.URL)
		if st.Users == 0 || st.Users == users {
			t.Fatalf("shard %s holds %d users — sharding did not split", ts.URL, st.Users)
		}
		total += st.Users
	}
	if total != users {
		t.Fatalf("shards hold %d users combined, want %d", total, users)
	}

	// Single predictions route to the right shard regardless of user.
	for i := 0; i < users; i++ {
		path := fmt.Sprintf("/api/v1/predict?user=user-%d&service=svc-0", i)
		if w := gwReq(t, g, http.MethodGet, path, nil); w.Code != http.StatusOK {
			t.Fatalf("predict user-%d: HTTP %d %s", i, w.Code, w.Body.String())
		}
	}
	// Unknown user's 404 passes through untouched.
	if w := gwReq(t, g, http.MethodGet, "/api/v1/predict?user=ghost&service=svc-0", nil); w.Code != http.StatusNotFound {
		t.Fatalf("ghost predict: HTTP %d", w.Code)
	}
}

func backendStats(t *testing.T, url string) server.StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func postBackend[T any](t *testing.T, url string, body any) T {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v T
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: HTTP %d %s", url, resp.StatusCode, raw)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func metricValue(t *testing.T, g *Gateway, name string) float64 {
	t.Helper()
	w := gwReq(t, g, http.MethodGet, "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", w.Code)
	}
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if strings.HasPrefix(line, name+" ") || strings.HasPrefix(line, name+"{") {
			var v float64
			fields := strings.Fields(line)
			if _, err := fmt.Sscanf(fields[len(fields)-1], "%g", &v); err == nil {
				return v
			}
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, w.Body.String())
	return 0
}

func TestGatewayHealthAndStatus(t *testing.T) {
	_, ts0 := backend(t)
	_, ts1 := backend(t)
	g := newGateway(t, [][]string{{ts0.URL}, {ts1.URL}}, nil)

	if w := gwReq(t, g, http.MethodGet, "/healthz", nil); w.Code != http.StatusOK {
		t.Fatalf("/healthz: HTTP %d", w.Code)
	}
	w := gwReq(t, g, http.MethodGet, "/api/v1/cluster/status", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/api/v1/cluster/status: HTTP %d", w.Code)
	}
	var st struct {
		Groups []GroupStatus `json:"groups"`
		VNodes int           `json:"vnodes"`
	}
	if err := json.NewDecoder(w.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Groups) != 2 || st.VNodes != 128 {
		t.Fatalf("status = %+v", st)
	}
	for _, grp := range st.Groups {
		if grp.Leader == "" {
			t.Errorf("group %s has no probed leader", grp.Name)
		}
		if len(grp.Replicas) != 1 || grp.Replicas[0].Health != "healthy" {
			t.Errorf("group %s replicas = %+v", grp.Name, grp.Replicas)
		}
	}

	// Kill one shard: /healthz degrades after the down threshold.
	ts1.Close()
	for i := 0; i < 3; i++ {
		g.probeAll()
	}
	if w := gwReq(t, g, http.MethodGet, "/healthz", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz with a dead shard: HTTP %d", w.Code)
	}
}

func TestGatewayReadsAvoidDownReplica(t *testing.T) {
	svc, ts := backend(t)
	tsDead := httptest.NewServer(svc.Handler())
	g := newGateway(t, [][]string{{ts.URL, tsDead.URL}}, nil)

	if w := gwReq(t, g, http.MethodPost, "/api/v1/observe", server.ObserveRequest{
		Observations: []server.Observation{{User: "u", Service: "s", Value: 1}},
	}); w.Code != http.StatusOK {
		t.Fatalf("seed: HTTP %d %s", w.Code, w.Body.String())
	}

	tsDead.Close()
	for i := 0; i < 3; i++ {
		g.probeAll()
	}
	// Every read must now land on the surviving replica: the round-robin
	// cursor alternates, so 6 straight successes prove the skip works.
	for i := 0; i < 6; i++ {
		if w := gwReq(t, g, http.MethodGet, "/api/v1/predict?user=u&service=s", nil); w.Code != http.StatusOK {
			t.Fatalf("predict %d with a down replica: HTTP %d %s", i, w.Code, w.Body.String())
		}
	}
}

// TestGatewayAutoFailover runs a real leader+follower pair under the
// gateway, kills the leader, and expects the probe loop to promote the
// follower (shared-storage recovery) and resume serving writes.
func TestGatewayAutoFailover(t *testing.T) {
	dir := t.TempDir()
	leader, mgr, _ := durableBackend(t, dir)
	tsLeader := httptest.NewServer(leader.Handler())

	folCfg := core.DefaultConfig(-0.007, 0, 20)
	folCfg.Expiry = 0
	follower := server.New(core.MustNew(folCfg), server.WithLogger(quietLogger()))
	tsFollower := httptest.NewServer(follower.Handler())
	t.Cleanup(tsFollower.Close)
	t.Cleanup(func() { follower.Close() })
	if _, err := follower.StartFollower(server.FollowerConfig{
		Leader:        tsLeader.URL,
		LeaderData:    dir,
		StoreOptions:  store.Options{CheckpointInterval: time.Hour, Logger: quietLogger()},
		WaitMS:        100,
		RetryInterval: 20 * time.Millisecond,
	}); err != nil {
		t.Fatalf("StartFollower: %v", err)
	}

	g := newGateway(t, [][]string{{tsLeader.URL, tsFollower.URL}}, func(c *Config) {
		c.Failover = true
		c.DownAfter = 2
	})

	if w := gwReq(t, g, http.MethodPost, "/api/v1/observe", server.ObserveRequest{
		Observations: []server.Observation{{User: "u", Service: "s", Value: 2}},
	}); w.Code != http.StatusOK {
		t.Fatalf("seed via gateway: HTTP %d %s", w.Code, w.Body.String())
	}

	// Wait for the follower to catch up, then kill the leader hard.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := followerHas(t, tsFollower.URL, "u", "s"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never replicated the seed sample")
		}
		time.Sleep(10 * time.Millisecond)
	}
	tsLeader.Close()
	leader.Close()
	mgr.Close()

	// Probe rounds: round 1-2 mark the leader down; once it has been
	// leaderless DownAfter rounds the gateway promotes the follower.
	for i := 0; i < 6; i++ {
		g.probeAll()
	}

	// Writes flow again, through the promoted follower.
	ok := false
	for i := 0; i < 50; i++ {
		w := gwReq(t, g, http.MethodPost, "/api/v1/observe", server.ObserveRequest{
			Observations: []server.Observation{{User: "u", Service: "s", Value: 2.5}},
		})
		if w.Code == http.StatusOK {
			ok = true
			break
		}
		g.probeAll()
		time.Sleep(20 * time.Millisecond)
	}
	if !ok {
		t.Fatal("writes never recovered after failover")
	}
	if v := metricValue(t, g, "amf_cluster_failovers_total"); v != 1 {
		t.Errorf("amf_cluster_failovers_total = %g, want 1", v)
	}
	// The seeded sample survived promotion (shared-storage recovery).
	if _, ok := followerHas(t, tsFollower.URL, "u", "s"); !ok {
		t.Fatal("promoted leader lost the seeded pair")
	}
}

// TestGatewayNeverPromotesDemotedLeader: a group whose only follower is
// a demoted ex-leader (promotable: false — its model may hold writes from
// a diverged lineage, and promoting it would re-claim a directory it
// lost) has no replica that can recover the leader's log. When the leader
// dies the gateway leaves the group leaderless rather than promote it:
// writes get 503 (nothing is acked into memory), reads are still served
// by the ex-leader.
func TestGatewayNeverPromotesDemotedLeader(t *testing.T) {
	leader, mgr, _ := durableBackend(t, t.TempDir())
	tsLeader := httptest.NewServer(leader.Handler())

	exLeader, exMgr, _ := durableBackend(t, t.TempDir())
	t.Cleanup(func() { exMgr.Close() })
	t.Cleanup(exLeader.Close)
	tsEx := httptest.NewServer(exLeader.Handler())
	t.Cleanup(tsEx.Close)
	if w := do(t, exLeader.Handler(), http.MethodPost, "/api/v1/observe", server.ObserveRequest{
		Observations: []server.Observation{{User: "u", Service: "s", Value: 2}},
	}); w.Code != http.StatusOK {
		t.Fatalf("seed the ex-leader: HTTP %d %s", w.Code, w.Body.String())
	}
	if w := do(t, exLeader.Handler(), http.MethodPost, "/api/v1/demote", map[string]string{"leader": tsLeader.URL}); w.Code != http.StatusOK {
		t.Fatalf("demote: HTTP %d %s", w.Code, w.Body.String())
	}
	if st := clusterStatus(t, tsEx.URL); st.Role != "follower" || st.Promotable {
		t.Fatalf("demoted ex-leader reports %+v, want a follower that is not promotable", st)
	}

	g := newGateway(t, [][]string{{tsLeader.URL, tsEx.URL}}, func(c *Config) {
		c.Failover = true
		c.DownAfter = 2
	})
	if w := gwReq(t, g, http.MethodPost, "/api/v1/observe", server.ObserveRequest{
		Observations: []server.Observation{{User: "u", Service: "s", Value: 2}},
	}); w.Code != http.StatusOK {
		t.Fatalf("seed via gateway: HTTP %d %s", w.Code, w.Body.String())
	}
	tsLeader.Close()
	leader.Close()
	mgr.Close()

	for i := 0; i < 6; i++ {
		g.probeAll()
	}
	if v := metricValue(t, g, "amf_cluster_failovers_total"); v != 0 {
		t.Errorf("amf_cluster_failovers_total = %g, want 0 (demoted ex-leader promoted)", v)
	}
	if w := gwReq(t, g, http.MethodPost, "/api/v1/observe", server.ObserveRequest{
		Observations: []server.Observation{{User: "u", Service: "s", Value: 2.5}},
	}); w.Code != http.StatusServiceUnavailable {
		t.Errorf("write to a leaderless group: HTTP %d %s, want 503", w.Code, w.Body.String())
	}
	if w := gwReq(t, g, http.MethodGet, "/api/v1/predict?user=u&service=s", nil); w.Code != http.StatusOK {
		t.Errorf("read from the demoted ex-leader: HTTP %d %s, want 200", w.Code, w.Body.String())
	}
}

func durableBackend(t *testing.T, dir string) (*server.Server, *store.Manager, store.RecoveryStats) {
	t.Helper()
	mgr, err := store.Open(dir, store.Options{
		CheckpointInterval: time.Hour,
		Logger:             quietLogger(),
	})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	svc := server.New(core.MustNew(cfg), server.WithLogger(quietLogger()))
	rs, err := svc.AttachDurable(mgr)
	if err != nil {
		t.Fatalf("AttachDurable: %v", err)
	}
	return svc, mgr, rs
}

func followerHas(t *testing.T, url, user, service string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/predict?user=%s&service=%s", url, user, service))
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, false
	}
	var pr server.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return 0, false
	}
	return pr.Value, true
}

// TestGatewayObservePartialFailure: once any bucket of a sharded batch
// has been applied, the gateway must NOT relay a retryable status — a
// client resending the whole batch would re-train the groups that
// already accepted their buckets. Total failure still relays the
// backend status (nothing applied, retry is safe).
func TestGatewayObservePartialFailure(t *testing.T) {
	_, tsOK := backend(t)
	svcBad, tsBad := backend(t)
	g := newGateway(t, [][]string{{tsOK.URL}, {tsBad.URL}}, nil)
	// Every write on this shard now 503s at the backend. Demoted after
	// the gateway's seeding probe, so the gateway still routes writes to
	// it: a group it knows has no leader is refused whole, unsent.
	svcBad.Demote("")

	// Find one user routed to each shard.
	var uOK, uBad string
	for i := 0; uOK == "" || uBad == ""; i++ {
		u := fmt.Sprintf("user-%d", i)
		if g.groupFor(u).name == "shard-0" {
			if uOK == "" {
				uOK = u
			}
		} else if uBad == "" {
			uBad = u
		}
	}

	w := gwReq(t, g, http.MethodPost, "/api/v1/observe", server.ObserveRequest{Observations: []server.Observation{
		{User: uOK, Service: "s", Value: 1},
		{User: uBad, Service: "s", Value: 1},
	}})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("partial observe: HTTP %d, want 500 (non-retryable), body %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "partially applied") {
		t.Errorf("partial observe body lacks explanation: %s", w.Body.String())
	}

	// All buckets failing is a clean failure: the 503 passes through and
	// the client may retry the whole batch.
	w = gwReq(t, g, http.MethodPost, "/api/v1/observe", server.ObserveRequest{Observations: []server.Observation{
		{User: uBad, Service: "s", Value: 1},
	}})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("total observe failure: HTTP %d, want 503", w.Code)
	}

	// Once a probe has seen the shard lose its leader, a batch touching
	// it is refused whole at the gateway, before any group trains.
	g.probeAll()
	w = gwReq(t, g, http.MethodPost, "/api/v1/observe", server.ObserveRequest{Observations: []server.Observation{
		{User: uOK, Service: "s", Value: 1},
		{User: uBad, Service: "s", Value: 1},
	}})
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
		t.Fatalf("observe touching a leaderless group: HTTP %d %s, want 503 + Retry-After", w.Code, w.Body.String())
	}
}

// TestGatewayDemotesStaleLeader: two healthy replicas of one group both
// claim leadership (an ex-leader recovered after a failover). The claim
// epoch identifies the stale one, and the gateway actively demotes it
// instead of letting writeTarget flip-flop between diverged lineages.
func TestGatewayDemotesStaleLeader(t *testing.T) {
	// Stale ex-leader: first claim of its directory, epoch 1.
	svcStale, mgrStale, _ := durableBackend(t, t.TempDir())
	tsStale := httptest.NewServer(svcStale.Handler())
	t.Cleanup(tsStale.Close)
	t.Cleanup(func() { svcStale.Close(); mgrStale.Close() })

	// Failover winner: its directory has been claimed twice (the dead
	// leader's Open, then the promotion's), so it probes at epoch 2.
	dirNew := t.TempDir()
	pre, err := store.Open(dirNew, store.Options{CheckpointInterval: time.Hour, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	pre.Close()
	svcNew, mgrNew, _ := durableBackend(t, dirNew)
	tsNew := httptest.NewServer(svcNew.Handler())
	t.Cleanup(tsNew.Close)
	t.Cleanup(func() { svcNew.Close(); mgrNew.Close() })

	// New's seeding probe round sees both claiming leader and settles the
	// split brain immediately.
	g := newGateway(t, [][]string{{tsStale.URL, tsNew.URL}}, func(c *Config) {
		c.Failover = true
		c.DownAfter = 2
	})

	if v := metricValue(t, g, "amf_cluster_demotions_total"); v != 1 {
		t.Fatalf("amf_cluster_demotions_total = %g, want 1", v)
	}
	lead := g.groups[0].leader.Load()
	if lead == nil || lead.url != tsNew.URL {
		t.Fatalf("leader pointer = %+v, want the higher-epoch claimant %s", lead, tsNew.URL)
	}
	if !mgrStale.Fenced() {
		t.Error("stale leader's store was not fenced by the demotion")
	}
	// The stale replica now rejects writes and points at the winner.
	resp, err := http.Post(tsStale.URL+"/api/v1/observe", "application/json",
		strings.NewReader(`{"observations":[{"user":"u","service":"s","value":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write on demoted stale leader: HTTP %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Amf-Leader"); got != tsNew.URL {
		t.Errorf("X-Amf-Leader = %q, want %q", got, tsNew.URL)
	}
	// Writes through the gateway land on the winner.
	w := gwReq(t, g, http.MethodPost, "/api/v1/observe", server.ObserveRequest{
		Observations: []server.Observation{{User: "u", Service: "s", Value: 1}},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("gateway write after demotion: HTTP %d %s", w.Code, w.Body.String())
	}
	// A later probe round is stable: no second demotion, same leader.
	g.probeAll()
	if v := metricValue(t, g, "amf_cluster_demotions_total"); v != 1 {
		t.Errorf("demotions after settle = %g, want still 1", v)
	}

	// Kill the winner: the group is leaderless, but the fenced ex-leader
	// must NOT be promoted — doing so would re-claim the durable
	// directory over the (possibly partitioned, still legitimate)
	// owner's head, epoch after epoch. The group stays degraded instead.
	tsNew.Close()
	svcNew.Close()
	mgrNew.Close()
	for i := 0; i < 6; i++ {
		g.probeAll()
	}
	if v := metricValue(t, g, "amf_cluster_failovers_total"); v != 0 {
		t.Errorf("amf_cluster_failovers_total = %g, want 0 (fenced replica promoted)", v)
	}
	if !mgrStale.Fenced() {
		t.Error("stale replica's store unfenced after failover rounds")
	}
}

func TestGatewayRejectsBadRequests(t *testing.T) {
	_, ts := backend(t)
	g := newGateway(t, [][]string{{ts.URL}}, nil)

	cases := []struct {
		method, path string
		body         any
		want         int
	}{
		{http.MethodPost, "/api/v1/observe", map[string]string{"bad": "x"}, http.StatusBadRequest},
		{http.MethodPost, "/api/v1/observe", server.ObserveRequest{}, http.StatusBadRequest},
		{http.MethodGet, "/api/v1/predict?service=s", nil, http.StatusBadRequest},
		{http.MethodPost, "/api/v1/predict", server.BatchPredictRequest{}, http.StatusBadRequest},
		{http.MethodPost, "/api/v1/rank", server.RankRequest{}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if w := gwReq(t, g, tc.method, tc.path, tc.body); w.Code != tc.want {
			t.Errorf("%s %s: HTTP %d, want %d (%s)", tc.method, tc.path, w.Code, tc.want, w.Body.String())
		}
	}
}

func TestGatewayConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no groups should be rejected")
	}
	if _, err := New(Config{Groups: [][]string{{}}}); err == nil {
		t.Error("empty group should be rejected")
	}
}
