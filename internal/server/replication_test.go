package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/store"
)

// leaderServer is durableServer plus an HTTP listener, since replication
// runs over a real connection (long-polls, chunked streams).
func leaderServer(t *testing.T, dir string, sync store.SyncPolicy) (*Server, *store.Manager, *httptest.Server) {
	t.Helper()
	svc, mgr, _ := durableServer(t, dir, sync)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, mgr, ts
}

func startFollower(t *testing.T, cfg FollowerConfig) *Server {
	t.Helper()
	mcfg := core.DefaultConfig(-0.007, 0, 20)
	mcfg.Expiry = 0
	f := New(core.MustNew(mcfg), WithLogger(quietLogger()))
	if cfg.WaitMS == 0 {
		cfg.WaitMS = 100
	}
	if cfg.RetryInterval == 0 {
		cfg.RetryInterval = 20 * time.Millisecond
	}
	if _, err := f.StartFollower(cfg); err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func predictOn(t *testing.T, s *Server, user, service string) (float64, bool) {
	t.Helper()
	w := doReq(t, s, http.MethodGet, "/api/v1/predict?user="+user+"&service="+service, nil)
	if w.Code != http.StatusOK {
		return 0, false
	}
	var resp PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode predict: %v", err)
	}
	return resp.Value, true
}

func TestFollowerTailsLeader(t *testing.T) {
	leader, _, ts := leaderServer(t, t.TempDir(), store.SyncGroup)
	observeSome(t, leader)

	f := startFollower(t, FollowerConfig{Leader: ts.URL})

	// Bootstrap carries the pre-existing observations (they were
	// journaled before the snapshot was cut, or ride the first tail poll).
	waitFor(t, 5*time.Second, "bootstrap state", func() bool {
		_, ok := predictOn(t, f, "u0", "s0")
		return ok
	})

	// New writes on the leader show up on the follower via WAL shipping.
	w := doReq(t, leader, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: []Observation{
		{User: "tail-user", Service: "tail-svc", Value: 1.25},
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("leader observe: %d %s", w.Code, w.Body.String())
	}
	waitFor(t, 5*time.Second, "tailed observation", func() bool {
		_, ok := predictOn(t, f, "tail-user", "tail-svc")
		return ok
	})

	// Factors that traveled in the snapshot are bitwise identical on
	// both sides (tail-user is only asserted present above: entities
	// created after the bootstrap draw their random initial vectors from
	// each model's own RNG position, so their factors converge with
	// training rather than matching exactly).
	lv, _ := predictOn(t, leader, "u0", "s0")
	fv, _ := predictOn(t, f, "u0", "s0")
	if lv != fv {
		t.Errorf("leader predicts %g for (u0,s0), follower predicts %g", lv, fv)
	}

	// Deletions replicate too.
	w = doReq(t, leader, http.MethodDelete, "/api/v1/users?name=tail-user", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("leader delete: %d", w.Code)
	}
	waitFor(t, 5*time.Second, "replicated removal", func() bool {
		_, ok := predictOn(t, f, "tail-user", "tail-svc")
		return !ok
	})
}

// TestFollowerOfIntervalLeaderNeverPassesCommitIndex: an interval leader
// ships only what its flusher has fsynced, so its follower never applies
// a record past the leader's DurableSeq — a record a power loss could
// erase, and whose sequence number the restarted leader would reuse — and
// still catches up within a flush tick. The leader's cluster status
// reports that same index, so a caught-up follower shows no lag.
func TestFollowerOfIntervalLeaderNeverPassesCommitIndex(t *testing.T) {
	leader, mgr, ts := leaderServer(t, t.TempDir(), store.SyncInterval)
	observeSome(t, leader)
	f := startFollower(t, FollowerConfig{Leader: ts.URL})
	wal := mgr.WAL()
	status := func() uint64 {
		t.Helper()
		var st ClusterStatusResponse
		if err := json.Unmarshal(doReq(t, leader, http.MethodGet, "/api/v1/cluster/status", nil).Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st.WALSeq
	}
	// Each pair is read before the commit index, which only moves forward.
	behind := func() {
		t.Helper()
		if applied, durable := f.repl.AppliedSeq(), wal.DurableSeq(); applied > durable {
			t.Fatalf("follower applied seq %d past the leader's commit index %d", applied, durable)
		}
		if reported, durable := status(), wal.DurableSeq(); reported > durable {
			t.Fatalf("leader status wal_seq %d past its commit index %d", reported, durable)
		}
	}
	behind()
	for i := 0; i < 20; i++ {
		w := doReq(t, leader, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: []Observation{
			{User: fmt.Sprintf("iv-u%d", i), Service: "s0", Value: 1},
		}})
		if w.Code != http.StatusOK {
			t.Fatalf("leader observe: %d %s", w.Code, w.Body.String())
		}
		for k := 0; k < 5; k++ {
			behind()
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor(t, 5*time.Second, "follower at the leader's tail", func() bool {
		behind()
		return f.repl.AppliedSeq() == wal.LastSeq()
	})
	if reported, applied := status(), f.repl.AppliedSeq(); reported != applied {
		t.Fatalf("caught-up follower at %d, leader status wal_seq %d; want no lag", applied, reported)
	}
}

func TestFollowerRejectsWrites(t *testing.T) {
	leader, _, ts := leaderServer(t, t.TempDir(), store.SyncGroup)
	observeSome(t, leader)
	f := startFollower(t, FollowerConfig{Leader: ts.URL})

	w := doReq(t, f, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: []Observation{
		{User: "x", Service: "y", Value: 1},
	}})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("follower observe: %d, want 503", w.Code)
	}
	if got := w.Header().Get("X-Amf-Leader"); got != ts.URL {
		t.Errorf("X-Amf-Leader = %q, want %q", got, ts.URL)
	}
	for _, req := range []struct{ method, path string }{
		{http.MethodDelete, "/api/v1/users?name=u0"},
		{http.MethodDelete, "/api/v1/services?name=s0"},
		{http.MethodPost, "/api/v1/checkpoint"},
		{http.MethodPost, "/api/v1/snapshot"},
	} {
		if w := doReq(t, f, req.method, req.path, nil); w.Code != http.StatusServiceUnavailable {
			t.Errorf("%s %s on follower: %d, want 503", req.method, req.path, w.Code)
		}
	}
	if err := observeStream(f, "x", "y", 1); err == nil {
		t.Error("TCP ingest accepted on a follower")
	}

	// Reads keep working.
	waitFor(t, 5*time.Second, "read path", func() bool {
		_, ok := predictOn(t, f, "u0", "s0")
		return ok
	})
}

func TestClusterStatus(t *testing.T) {
	leader, _, ts := leaderServer(t, t.TempDir(), store.SyncGroup)
	observeSome(t, leader)
	f := startFollower(t, FollowerConfig{Leader: ts.URL})

	w := doReq(t, leader, http.MethodGet, "/api/v1/cluster/status", nil)
	var ls ClusterStatusResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ls); err != nil {
		t.Fatal(err)
	}
	if ls.Role != "leader" || !ls.Durable || ls.WALSeq == 0 {
		t.Errorf("leader status = %+v", ls)
	}

	waitFor(t, 5*time.Second, "follower caught up", func() bool {
		w := doReq(t, f, http.MethodGet, "/api/v1/cluster/status", nil)
		var fs ClusterStatusResponse
		if err := json.Unmarshal(w.Body.Bytes(), &fs); err != nil {
			t.Fatal(err)
		}
		return fs.Role == "follower" && fs.Leader == ts.URL && fs.AppliedSeq >= ls.WALSeq
	})
}

func TestReplicateWALEndpointValidation(t *testing.T) {
	nondurable := testServer(t)
	if w := doReq(t, nondurable, http.MethodGet, "/api/v1/replicate/wal?from=0", nil); w.Code != http.StatusNotImplemented {
		t.Errorf("non-durable replicate: %d, want 501", w.Code)
	}

	leader, _, _ := durableServer(t, t.TempDir(), store.SyncGroup)
	observeSome(t, leader)
	for _, q := range []string{"", "from=x", "from=0&wait_ms=-1"} {
		if w := doReq(t, leader, http.MethodGet, "/api/v1/replicate/wal?"+q, nil); w.Code != http.StatusBadRequest {
			t.Errorf("replicate?%s: %d, want 400", q, w.Code)
		}
	}

	// A valid fetch ships decodable records and advertises the tail.
	w := doReq(t, leader, http.MethodGet, "/api/v1/replicate/wal?from=0&wait_ms=0", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("replicate: %d", w.Code)
	}
	tail := w.Header().Get("X-Amf-Wal-Seq")
	if tail == "" || tail == "0" {
		t.Fatalf("X-Amf-Wal-Seq = %q", tail)
	}
	rr := store.NewRecordReader(bytes.NewReader(w.Body.Bytes()))
	n := 0
	for {
		if _, err := rr.Next(); err != nil {
			break
		}
		n++
	}
	if n == 0 {
		t.Fatal("no records decoded from replication response")
	}
	if got := fmt.Sprint(n); got != tail {
		t.Errorf("decoded %d records, header says tail %s", n, tail)
	}
}

// TestApplyStreamGap: a stream whose first record is beyond our applied
// position means the leader truncated past us — the tailer must signal
// re-bootstrap, never skip.
func TestApplyStreamGap(t *testing.T) {
	leader, _, _ := durableServer(t, t.TempDir(), store.SyncGroup)
	observeSome(t, leader) // journals records 1..N

	var buf bytes.Buffer
	if _, err := leader.durable.WAL().StreamSince(2, &buf, 0); err != nil {
		t.Fatal(err)
	}
	rp := &Replicator{s: testServer(t)}
	if _, err := rp.applyStream(0, &buf); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("applyStream with gap: %v, want gap error", err)
	}
}

// TestPromoteSharedStorage is the in-process promotion protocol test:
// follower tails a durable leader, the leader dies, and promotion with
// the leader's data directory recovers every acked record — the
// SIGKILL-under-load variant lives in the cluster failover suite.
func TestPromoteSharedStorage(t *testing.T) {
	dir := t.TempDir()
	leader, mgr, ts := leaderServer(t, dir, store.SyncGroup)
	observeSome(t, leader)

	f := startFollower(t, FollowerConfig{
		Leader:       ts.URL,
		LeaderData:   dir,
		StoreOptions: store.Options{Sync: store.SyncGroup, CheckpointInterval: time.Hour, Logger: quietLogger()},
	})
	waitFor(t, 5*time.Second, "follower caught up", func() bool {
		_, ok := predictOn(t, f, "u3", "s4")
		return ok
	})
	var before ClusterStatusResponse
	_ = json.Unmarshal(doReq(t, f, http.MethodGet, "/api/v1/cluster/status", nil).Body.Bytes(), &before)
	if !before.Promotable {
		t.Errorf("follower with leader data reports %+v, want promotable", before)
	}

	// One more acked write, then the leader dies without any checkpoint.
	w := doReq(t, leader, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: []Observation{
		{User: "last-ack", Service: "s0", Value: 2.5},
	}})
	if w.Code != http.StatusOK {
		t.Fatal("final observe failed")
	}
	wantSeq := leader.durable.WAL().LastSeq()
	ts.Close()
	leader.Close()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	w = doReq(t, f, http.MethodPost, "/api/v1/promote", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("promote: %d %s", w.Code, w.Body.String())
	}
	if f.Durable() == nil {
		t.Fatal("promoted server has no durable store")
	}
	t.Cleanup(func() { f.Durable().Close() })
	if got := f.Durable().WAL().LastSeq(); got != wantSeq {
		t.Errorf("promoted WAL seq %d, want %d (same lineage)", got, wantSeq)
	}

	// Acked-on-leader ⇒ durable ⇒ present after promotion.
	if _, ok := predictOn(t, f, "last-ack", "s0"); !ok {
		t.Error("acked sample lost across promotion")
	}
	// The promoted leader accepts writes again and serves leader status.
	w = doReq(t, f, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: []Observation{
		{User: "post-promote", Service: "s1", Value: 0.75},
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("post-promote observe: %d %s", w.Code, w.Body.String())
	}
	var st ClusterStatusResponse
	_ = json.Unmarshal(doReq(t, f, http.MethodGet, "/api/v1/cluster/status", nil).Body.Bytes(), &st)
	if st.Role != "leader" || !st.Durable || st.WALSeq <= wantSeq || st.Promotable {
		t.Errorf("promoted status = %+v", st)
	}

	// Second promote is a conflict.
	if w := doReq(t, f, http.MethodPost, "/api/v1/promote", nil); w.Code != http.StatusConflict {
		t.Errorf("double promote: %d, want 409", w.Code)
	}
}

// TestPromoteWithoutLeaderData: a follower without the leader's data
// directory is a read replica. It refuses promotion with 409 — flipping
// it would serve tailed memory as the leader's state and ack later
// writes into memory only — says so in its cluster status, and keeps
// tailing: the refusal must not pause replication.
func TestPromoteWithoutLeaderData(t *testing.T) {
	leader, _, ts := leaderServer(t, t.TempDir(), store.SyncGroup)
	observeSome(t, leader)
	f := startFollower(t, FollowerConfig{Leader: ts.URL})
	waitFor(t, 5*time.Second, "follower caught up", func() bool {
		_, ok := predictOn(t, f, "u0", "s0")
		return ok
	})
	w := doReq(t, f, http.MethodPost, "/api/v1/promote", nil)
	if w.Code != http.StatusConflict {
		t.Fatalf("promote without leader data: %d %s, want 409", w.Code, w.Body.String())
	}
	if f.Durable() != nil {
		t.Error("refused promotion attached a durable store")
	}
	var st ClusterStatusResponse
	_ = json.Unmarshal(doReq(t, f, http.MethodGet, "/api/v1/cluster/status", nil).Body.Bytes(), &st)
	if st.Role != "follower" || st.Promotable {
		t.Errorf("status after refused promotion = %+v, want a follower that is not promotable", st)
	}
	if w := doReq(t, f, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: []Observation{
		{User: "nx", Service: "ny", Value: 1},
	}}); w.Code != http.StatusServiceUnavailable {
		t.Errorf("observe on a refused follower: %d, want 503", w.Code)
	}
	// The tailer never paused: a leader write made after the refusal
	// still replicates.
	if w := doReq(t, leader, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: []Observation{
		{User: "after-refusal", Service: "s0", Value: 1.5},
	}}); w.Code != http.StatusOK {
		t.Fatalf("leader observe: %d", w.Code)
	}
	waitFor(t, 5*time.Second, "replication after refused promotion", func() bool {
		_, ok := predictOn(t, f, "after-refusal", "s0")
		return ok
	})
}

// TestPromoteFailureResumesFollower: a promotion that cannot open the
// leader's data directory must leave the replica REPLICATING — not
// parked as a stopped, write-rejecting follower that looks healthy and
// can never serve a later promotion.
func TestPromoteFailureResumesFollower(t *testing.T) {
	leader, _, ts := leaderServer(t, t.TempDir(), store.SyncGroup)
	observeSome(t, leader)

	// LeaderData pointing at a regular file: store.Open fails on it.
	bad := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(bad, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	f := startFollower(t, FollowerConfig{
		Leader:       ts.URL,
		LeaderData:   bad,
		StoreOptions: store.Options{Logger: quietLogger()},
	})
	waitFor(t, 5*time.Second, "follower caught up", func() bool {
		_, ok := predictOn(t, f, "u0", "s0")
		return ok
	})

	if w := doReq(t, f, http.MethodPost, "/api/v1/promote", nil); w.Code != http.StatusConflict {
		t.Fatalf("promote with bad leader data: %d, want 409", w.Code)
	}
	if !f.follower.Load() {
		t.Fatal("failed promotion left the server claiming leadership")
	}

	// The tailer restarted: a fresh leader write still replicates.
	w := doReq(t, leader, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: []Observation{
		{User: "after-fail", Service: "s0", Value: 1.5},
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("leader observe: %d", w.Code)
	}
	waitFor(t, 5*time.Second, "replication after failed promotion", func() bool {
		_, ok := predictOn(t, f, "after-fail", "s0")
		return ok
	})

	// A second promotion attempt still fails cleanly (and still resumes).
	if w := doReq(t, f, http.MethodPost, "/api/v1/promote", nil); w.Code != http.StatusConflict {
		t.Fatalf("second promote: %d, want 409", w.Code)
	}
	w = doReq(t, leader, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: []Observation{
		{User: "after-fail-2", Service: "s0", Value: 1.5},
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("leader observe: %d", w.Code)
	}
	waitFor(t, 5*time.Second, "replication after second failed promotion", func() bool {
		_, ok := predictOn(t, f, "after-fail-2", "s0")
		return ok
	})
}

// TestDemoteFencesLeader: demotion flips a durable leader to a
// write-rejecting follower pointing at the winner, and fences its store
// so nothing more lands on the diverged WAL lineage.
func TestDemoteFencesLeader(t *testing.T) {
	leader, mgr, _ := durableServer(t, t.TempDir(), store.SyncGroup)
	observeSome(t, leader)

	w := doReq(t, leader, http.MethodPost, "/api/v1/demote", map[string]string{"leader": "http://winner:1"})
	if w.Code != http.StatusOK {
		t.Fatalf("demote: %d %s", w.Code, w.Body.String())
	}
	w = doReq(t, leader, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: []Observation{
		{User: "x", Service: "y", Value: 1},
	}})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("observe after demote: %d, want 503", w.Code)
	}
	if got := w.Header().Get("X-Amf-Leader"); got != "http://winner:1" {
		t.Errorf("X-Amf-Leader = %q, want the demotion's winner", got)
	}
	if !mgr.Fenced() {
		t.Fatal("demotion did not fence the durable store")
	}
	if _, err := mgr.WAL().Append([]byte("p")); !errors.Is(err, store.ErrFenced) {
		t.Fatalf("append after demote: %v, want ErrFenced", err)
	}
	var st ClusterStatusResponse
	_ = json.Unmarshal(doReq(t, leader, http.MethodGet, "/api/v1/cluster/status", nil).Body.Bytes(), &st)
	if st.Role != "follower" || !st.Fenced || st.Promotable {
		t.Errorf("status after demote = %+v, want follower+fenced, not promotable", st)
	}
	// Idempotent.
	if w := doReq(t, leader, http.MethodPost, "/api/v1/demote", nil); w.Code != http.StatusOK {
		t.Errorf("second demote: %d", w.Code)
	}
	// A demoted ex-leader can NEVER be promoted in place: promotion would
	// re-claim the shared directory over the legitimate owner's head (and
	// a gateway retrying failover would grab the lock in a loop). Only a
	// restart as -role follower rejoins.
	w = doReq(t, leader, http.MethodPost, "/api/v1/promote", nil)
	if w.Code != http.StatusConflict {
		t.Fatalf("promote after demote: %d, want 409", w.Code)
	}
	if !strings.Contains(w.Body.String(), "fenced") {
		t.Errorf("promote-after-demote error should name the fence: %s", w.Body.String())
	}
}

func TestSetLeaderEndpoint(t *testing.T) {
	leader, _, ts := leaderServer(t, t.TempDir(), store.SyncGroup)
	observeSome(t, leader)
	f := startFollower(t, FollowerConfig{Leader: ts.URL})

	w := doReq(t, f, http.MethodPost, "/api/v1/cluster/leader", map[string]string{"leader": "http://new-leader:9"})
	if w.Code != http.StatusOK {
		t.Fatalf("set leader: %d %s", w.Code, w.Body.String())
	}
	if got := f.repl.Leader(); got != "http://new-leader:9" {
		t.Errorf("leader = %q", got)
	}
	// Not a follower → conflict; missing body → 400.
	if w := doReq(t, leader, http.MethodPost, "/api/v1/cluster/leader", map[string]string{"leader": "x"}); w.Code != http.StatusConflict {
		t.Errorf("set leader on leader: %d, want 409", w.Code)
	}
	if w := doReq(t, f, http.MethodPost, "/api/v1/cluster/leader", map[string]string{}); w.Code != http.StatusBadRequest {
		t.Errorf("set leader without addr: %d, want 400", w.Code)
	}
}

func TestStartFollowerRefusals(t *testing.T) {
	// Durable server cannot become a follower.
	leader, _, _ := durableServer(t, t.TempDir(), store.SyncGroup)
	if _, err := leader.StartFollower(FollowerConfig{Leader: "http://x"}); err == nil {
		t.Error("durable server accepted follower mode")
	}
	// A non-durable leader has no WAL position to anchor replication.
	plain := httptest.NewServer(testServer(t).Handler())
	defer plain.Close()
	mcfg := core.DefaultConfig(-0.007, 0, 20)
	mcfg.Expiry = 0
	f := New(core.MustNew(mcfg), WithLogger(quietLogger()))
	if _, err := f.StartFollower(FollowerConfig{Leader: plain.URL}); err == nil || !strings.Contains(err.Error(), "durable") {
		t.Errorf("bootstrap from non-durable leader: %v, want durable error", err)
	}
}

// TestDrainReplication: Close flips the flag long-polls watch, so an
// idle replication stream ends within a tick and the drain returns.
func TestDrainReplication(t *testing.T) {
	leader, _, ts := leaderServer(t, t.TempDir(), store.SyncGroup)
	observeSome(t, leader)
	seq := leader.durable.WAL().LastSeq()

	// Park a long-poll at the WAL tail (nothing past seq ⇒ it waits).
	errc := make(chan error, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/api/v1/replicate/wal?from=%d&wait_ms=30000", ts.URL, seq))
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	waitFor(t, 2*time.Second, "stream in flight", func() bool { return leader.replActive.Load() == 1 })

	leader.Close()
	if !leader.DrainReplication(2 * time.Second) {
		t.Fatal("drain timed out; long-poll did not observe shutdown")
	}
	if err := <-errc; err != nil {
		t.Fatalf("parked poll errored: %v", err)
	}
}
