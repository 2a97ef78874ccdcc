package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/store"
	"github.com/qoslab/amf/internal/stream"
)

// leaderServer is durableServer plus an HTTP listener, since a follower
// long-polls the leader's commit index over a real connection.
func leaderServer(t *testing.T, dir string) (*Server, *store.Manager, *httptest.Server) {
	t.Helper()
	svc, mgr, _ := durableServer(t, dir)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, mgr, ts
}

// smallSegmentLeader is leaderServer with 1 KiB WAL segments, so a few
// observes rotate and a checkpoint can truncate the log past a follower.
func smallSegmentLeader(t *testing.T) (*Server, *store.Manager, *httptest.Server) {
	t.Helper()
	mgr, err := store.Open(t.TempDir(), store.Options{
		SegmentBytes: 1 << 10, CheckpointInterval: time.Hour, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	svc := New(core.MustNew(cfg), WithLogger(quietLogger()))
	if _, err := svc.AttachDurable(mgr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, mgr, ts
}

// followerOf starts a follower of a leaderServer.
func followerOf(t *testing.T, ts *httptest.Server, mgr *store.Manager) *Server {
	t.Helper()
	return startFollower(t, FollowerConfig{Leader: ts.URL, LeaderData: mgr.Dir()})
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
	leader, mgr, ts := leaderServer(t, t.TempDir())
	observeSome(t, leader)
	if w := doReq(t, leader, http.MethodPost, "/api/v1/checkpoint", nil); w.Code != http.StatusOK {
		t.Fatalf("leader checkpoint: %d %s", w.Code, w.Body.String())
	}

	f := followerOf(t, ts, mgr)

	// The follower starts from the leader's checkpoint.
	if _, ok := predictOn(t, f, "u0", "s0"); !ok {
		t.Fatal("follower did not load the leader's checkpoint")
	}
	if n := f.repl.bootstraps.Load(); n != 1 {
		t.Errorf("bootstraps = %d, want 1 (the checkpoint at start)", n)
	}

	// New writes on the leader show up on the follower, read from the
	// leader's log.
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

	// Factors that traveled in the checkpoint are bitwise identical on
	// both sides (tail-user is only asserted present above: entities
	// created after the checkpoint draw their random initial vectors from
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

// TestFollowerLagGrowsWhenCutOff: a caught-up follower whose leader
// stops answering is behind from its first failed poll, and every place
// that reports its lag says so — Lag, the status body's lag_seconds and
// amf_replication_lag_seconds — instead of holding the 0 it read while
// it could still see the leader.
func TestFollowerLagGrowsWhenCutOff(t *testing.T) {
	leader, mgr, ts := leaderServer(t, t.TempDir())
	observeSome(t, leader)
	f := followerOf(t, ts, mgr)
	tail := mgr.WAL().DurableSeq()
	waitFor(t, 5*time.Second, "follower caught up", func() bool {
		return f.repl.seq.Load() == tail && f.repl.Lag() == 0
	})

	ts.Close() // the leader's listener and connections go; its directory stays
	errs := f.repl.errs.Load()
	waitFor(t, 5*time.Second, "failed polls", func() bool { return f.repl.errs.Load() >= errs+2 })
	lag := f.repl.Lag()
	if lag <= 0 {
		t.Fatalf("Lag() = %v after %d failed polls, want > 0", lag, f.repl.errs.Load()-errs)
	}
	time.Sleep(20 * time.Millisecond)
	if later := f.repl.Lag(); later <= lag {
		t.Errorf("Lag() = %v, then %v: a cut-off follower's lag must keep growing", lag, later)
	}
	var st ClusterStatusResponse
	if err := json.Unmarshal(doReq(t, f, http.MethodGet, "/api/v1/cluster/status", nil).Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.LagSeconds <= 0 {
		t.Errorf("status lag_seconds = %v, want > 0", st.LagSeconds)
	}
	if v := metricValue(t, scrapeMetrics(t, f), "amf_replication_lag_seconds", "", ""); v <= 0 {
		t.Errorf("amf_replication_lag_seconds = %v, want > 0", v)
	}
}

// TestFollowerLagGrowsWhenLeaderHangs: a leader that takes the
// follower's commit-index poll and never answers — hung, stopped, behind
// a stuck proxy — leaves no failed poll to count from for wait_ms + 10 s.
// The follower reports itself behind once the poll is past the leader's
// wait_ms and pollGrace, not when the request finally times out.
func TestFollowerLagGrowsWhenLeaderHangs(t *testing.T) {
	leader, mgr, _ := leaderServer(t, t.TempDir())
	observeSome(t, leader)
	var hang atomic.Bool
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hang.Load() {
			select {
			case <-release:
			case <-r.Context().Done():
			}
			return
		}
		leader.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(release) })
	const waitMS = 100
	f := startFollower(t, FollowerConfig{Leader: ts.URL, LeaderData: mgr.Dir(), WaitMS: waitMS})
	tail := mgr.WAL().DurableSeq()
	waitFor(t, 5*time.Second, "follower caught up", func() bool {
		return f.repl.seq.Load() == tail && f.repl.Lag() == 0
	})

	hang.Store(true)
	errs := f.repl.errs.Load()
	// The poll parked when the leader hung is answered within wait_ms; the
	// next one hangs, and is overdue wait_ms + pollGrace after it is sent.
	waitFor(t, 2*waitMS*time.Millisecond+pollGrace+500*time.Millisecond, "lag on a hung leader", func() bool { return f.repl.Lag() > 0 })
	if got := f.repl.errs.Load(); got != errs {
		t.Fatalf("%d polls failed; the hung poll must be reported while it is still out", got-errs)
	}
	lag := f.repl.Lag()
	time.Sleep(20 * time.Millisecond)
	if later := f.repl.Lag(); later <= lag {
		t.Errorf("Lag() = %v, then %v: a follower whose leader hangs must fall further behind", lag, later)
	}
}

// TestFollowerNeverPassesCommitIndex: the follower reads the leader's
// segment files, and those can hold a record before the fsync covering
// it lands — a record larger than the WAL's write buffer reaches the file
// at once. A power loss could erase such a record and the restarted
// leader would reuse its sequence number, so the follower never applies
// past the leader's DurableSeq, however often it reads the files (a short
// long-poll makes it read every few ms), and it catches up once an fsync
// covers the record. The leader's cluster status reports that same
// index, so a caught-up follower shows no lag.
func TestFollowerNeverPassesCommitIndex(t *testing.T) {
	leader, mgr, ts := leaderServer(t, t.TempDir())
	observeSome(t, leader)
	f := startFollower(t, FollowerConfig{Leader: ts.URL, LeaderData: mgr.Dir(), WaitMS: 5})
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
	waitFor(t, 5*time.Second, "a caught-up follower", func() bool {
		behind()
		return f.repl.AppliedSeq() == wal.LastSeq()
	})
	// 5000 samples of 32 bytes, over pairs observeSome registered, appended
	// straight to the leader's WAL with no waiter: one record over twice
	// the 64 KiB write buffer, so all of it reaches the segment file and
	// no fsync covers it.
	var big []stream.Sample
	for i := 0; i < 5000; i++ {
		u, _ := leader.users.Lookup(fmt.Sprintf("u%d", i%4))
		sv, _ := leader.services.Lookup(fmt.Sprintf("s%d", i%5))
		big = append(big, stream.Sample{User: u, Service: sv, Value: 1})
	}
	seq, err := wal.AppendSamples(big)
	if err != nil {
		t.Fatal(err)
	}
	if wal.DurableSeq() >= seq {
		t.Fatalf("commit index %d already covers the unwaited record %d", wal.DurableSeq(), seq)
	}
	for k := 0; k < 60; k++ {
		behind()
		time.Sleep(2 * time.Millisecond)
	}
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "follower at the leader's tail", func() bool {
		behind()
		return f.repl.AppliedSeq() == seq
	})
	if reported, applied := status(), f.repl.AppliedSeq(); reported != applied {
		t.Fatalf("caught-up follower at %d, leader status wal_seq %d; want no lag", applied, reported)
	}
}

func TestFollowerRejectsWrites(t *testing.T) {
	leader, mgr, ts := leaderServer(t, t.TempDir())
	observeSome(t, leader)
	f := followerOf(t, ts, mgr)

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
	leader, mgr, ts := leaderServer(t, t.TempDir())
	observeSome(t, leader)
	f := followerOf(t, ts, mgr)

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
		return fs.Role == "follower" && fs.Leader == ts.URL && fs.AppliedSeq >= ls.WALSeq && fs.Promotable
	})
}

// TestClusterStatusLongPoll: with ?after=N the status is a follower's
// long-poll for the commit index. It answers once wal_seq > N — woken by
// the commit, not a tick — or after wait_ms; with no query, or on a
// server with no store, it answers at once; a bad parameter is 400; and
// closing the server ends a parked poll within a tick, so shutdown never
// waits on one.
func TestClusterStatusLongPoll(t *testing.T) {
	leader, mgr, ts := leaderServer(t, t.TempDir())
	observeSome(t, leader)
	for _, q := range []string{"after=x", "after=-1", "after=0&wait_ms=-1", "wait_ms=x"} {
		if w := doReq(t, leader, http.MethodGet, "/api/v1/cluster/status?"+q, nil); w.Code != http.StatusBadRequest {
			t.Errorf("status?%s: %d, want 400", q, w.Code)
		}
	}
	tail := mgr.WAL().DurableSeq()
	poll := func(base, q string) (ClusterStatusResponse, time.Duration) {
		t.Helper()
		start := time.Now()
		resp, err := http.Get(base + "/api/v1/cluster/status" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st ClusterStatusResponse
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status%s: HTTP %d", q, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st, time.Since(start)
	}
	for _, q := range []string{"", fmt.Sprintf("?after=%d&wait_ms=0", tail), "?after=0&wait_ms=5000"} {
		if st, took := poll(ts.URL, q); st.WALSeq != tail || took > time.Second {
			t.Errorf("status%s: wal_seq %d after %v, want %d at once", q, st.WALSeq, took, tail)
		}
	}
	if st, took := poll(ts.URL, fmt.Sprintf("?after=%d&wait_ms=60", tail)); st.WALSeq != tail || took < 60*time.Millisecond {
		t.Errorf("idle long-poll: wal_seq %d after %v, want %d after the 60 ms wait", st.WALSeq, took, tail)
	}
	plain := httptest.NewServer(testServer(t).Handler())
	defer plain.Close()
	if st, took := poll(plain.URL, "?after=0&wait_ms=5000"); st.Durable || took > time.Second {
		t.Errorf("non-durable status: %+v after %v, want an answer at once", st, took)
	}

	// A parked poll answers when a commit lands.
	type result struct {
		st   ClusterStatusResponse
		took time.Duration
	}
	parked := make(chan result, 1)
	go func() {
		st, took := poll(ts.URL, fmt.Sprintf("?after=%d&wait_ms=10000", tail))
		parked <- result{st, took}
	}()
	time.Sleep(50 * time.Millisecond)
	observeSome(t, leader)
	select {
	case r := <-parked:
		if r.st.WALSeq <= tail || r.took > 5*time.Second {
			t.Errorf("parked poll: wal_seq %d after %v, want past %d on the commit", r.st.WALSeq, r.took, tail)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked poll never answered the commit")
	}

	// Close ends a parked poll.
	tail = mgr.WAL().DurableSeq()
	go func() {
		st, took := poll(ts.URL, fmt.Sprintf("?after=%d&wait_ms=30000", tail))
		parked <- result{st, took}
	}()
	time.Sleep(50 * time.Millisecond)
	leader.Close()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("a parked poll outlived Close")
	}
}

// TestFollowerReloadsCheckpointPastTruncation: while a follower is
// stopped, its leader checkpoints and truncates its log past the
// follower's position. The follower finds the gap, loads the newest
// checkpoint (whose seq is past its position), and reads on from there
// to the leader's tail.
func TestFollowerReloadsCheckpointPastTruncation(t *testing.T) {
	leader, mgr, ts := smallSegmentLeader(t)
	observeSome(t, leader)
	f := followerOf(t, ts, mgr)
	waitFor(t, 5*time.Second, "follower caught up", func() bool {
		return f.repl.AppliedSeq() == mgr.WAL().DurableSeq()
	})
	f.repl.Stop()
	applied := f.repl.AppliedSeq()

	for i := 0; i < 10; i++ {
		observeSome(t, leader)
	}
	if w := doReq(t, leader, http.MethodPost, "/api/v1/checkpoint", nil); w.Code != http.StatusOK {
		t.Fatalf("leader checkpoint: %d %s", w.Code, w.Body.String())
	}
	if err := store.ReplayDir(mgr.Dir(), applied, mgr.WAL().DurableSeq(), func(store.Entry) error { return nil }); err == nil {
		t.Fatalf("the leader's log still reaches back to seq %d; the test needs a truncation past it", applied+1)
	}
	w := doReq(t, leader, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: []Observation{
		{User: "after-ckpt", Service: "s0", Value: 1.5},
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("leader observe: %d", w.Code)
	}

	f.repl.restart()
	waitFor(t, 5*time.Second, "follower at the leader's tail", func() bool {
		return f.repl.AppliedSeq() == mgr.WAL().DurableSeq()
	})
	if n := f.repl.bootstraps.Load(); n != 1 {
		t.Errorf("checkpoint loads = %d, want 1 (the reload past the truncation)", n)
	}
	if _, ok := predictOn(t, f, "after-ckpt", "s0"); !ok {
		t.Error("a record after the checkpoint did not replicate")
	}
	lv, _ := predictOn(t, leader, "u1", "s2")
	fv, _ := predictOn(t, f, "u1", "s2")
	if lv != fv {
		t.Errorf("leader predicts %g for (u1,s2), follower %g after the reload", lv, fv)
	}
}

// TestFollowerServesReadsWhileStateChanges: a follower keeps answering
// predicts and cluster status while promotion swaps in the leader's
// durable state and while it loads a checkpoint past a truncation. Under
// -race any unsynchronized write of the registries or the durable store
// that those reads see is reported.
func TestFollowerServesReadsWhileStateChanges(t *testing.T) {
	hammer := func(f *Server, during func()) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for _, path := range []string{"/api/v1/predict?user=u0&service=s0", "/api/v1/cluster/status"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					f.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
				}
			}()
		}
		during()
		close(stop)
		wg.Wait()
	}

	t.Run("promote", func(t *testing.T) {
		leader, mgr, ts := leaderServer(t, t.TempDir())
		observeSome(t, leader)
		f := startFollower(t, FollowerConfig{
			Leader:       ts.URL,
			LeaderData:   mgr.Dir(),
			StoreOptions: store.Options{CheckpointInterval: time.Hour, Logger: quietLogger()},
		})
		waitFor(t, 5*time.Second, "follower caught up", func() bool {
			return f.repl.AppliedSeq() == mgr.WAL().DurableSeq()
		})
		ts.Close()
		leader.Close()
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}
		hammer(f, func() {
			if w := doReq(t, f, http.MethodPost, "/api/v1/promote", nil); w.Code != http.StatusOK {
				t.Errorf("promote: %d %s", w.Code, w.Body.String())
			}
		})
		if m := f.Durable(); m != nil {
			m.Close()
		}
	})

	t.Run("reload", func(t *testing.T) {
		leader, mgr, ts := smallSegmentLeader(t)
		observeSome(t, leader)
		f := followerOf(t, ts, mgr)
		waitFor(t, 5*time.Second, "follower caught up", func() bool {
			return f.repl.AppliedSeq() == mgr.WAL().DurableSeq()
		})
		f.repl.Stop()
		for i := 0; i < 10; i++ {
			observeSome(t, leader)
		}
		if w := doReq(t, leader, http.MethodPost, "/api/v1/checkpoint", nil); w.Code != http.StatusOK {
			t.Fatalf("leader checkpoint: %d %s", w.Code, w.Body.String())
		}
		hammer(f, func() {
			f.repl.restart()
			waitFor(t, 5*time.Second, "follower reloaded and caught up", func() bool {
				return f.repl.AppliedSeq() == mgr.WAL().DurableSeq()
			})
		})
	})
}

// TestPromoteSharedStorage is the in-process promotion protocol test:
// follower tails a durable leader, the leader dies, and promotion with
// the leader's data directory recovers every acked record — the
// SIGKILL-under-load variant lives in the cluster failover suite.
func TestPromoteSharedStorage(t *testing.T) {
	dir := t.TempDir()
	leader, mgr, ts := leaderServer(t, dir)
	observeSome(t, leader)

	f := startFollower(t, FollowerConfig{
		Leader:       ts.URL,
		LeaderData:   dir,
		StoreOptions: store.Options{CheckpointInterval: time.Hour, Logger: quietLogger()},
	})
	waitFor(t, 5*time.Second, "follower caught up", func() bool {
		_, ok := predictOn(t, f, "u3", "s4")
		return ok
	})
	var before ClusterStatusResponse
	_ = json.Unmarshal(doReq(t, f, http.MethodGet, "/api/v1/cluster/status", nil).Body.Bytes(), &before)
	if !before.Promotable {
		t.Errorf("follower reports %+v, want promotable", before)
	}

	// One more acked write, then the leader dies without any checkpoint.
	w := doReq(t, leader, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: []Observation{
		{User: "last-ack", Service: "s0", Value: 2.5},
	}})
	if w.Code != http.StatusOK {
		t.Fatal("final observe failed")
	}
	wantSeq := mgr.WAL().LastSeq()
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

// TestPromoteWithoutLeaderData: no follower runs without its leader's
// data directory — it reads the leader's log from there — so there is no
// read replica left for promotion to refuse. StartFollower refuses the
// configuration and names the field; the server stays a leader-role
// server with nothing to promote (409), and serves writes.
func TestPromoteWithoutLeaderData(t *testing.T) {
	_, _, ts := leaderServer(t, t.TempDir())
	s := testServer(t)
	if _, err := s.StartFollower(FollowerConfig{Leader: ts.URL}); err == nil || !strings.Contains(err.Error(), "LeaderData") {
		t.Fatalf("StartFollower without LeaderData: %v, want an error naming LeaderData", err)
	}
	if w := doReq(t, s, http.MethodPost, "/api/v1/promote", nil); w.Code != http.StatusConflict {
		t.Fatalf("promote on a refused follower: %d %s, want 409", w.Code, w.Body.String())
	}
	var st ClusterStatusResponse
	_ = json.Unmarshal(doReq(t, s, http.MethodGet, "/api/v1/cluster/status", nil).Body.Bytes(), &st)
	if st.Role != "leader" || st.Promotable {
		t.Errorf("status after a refused StartFollower = %+v, want a leader that is not promotable", st)
	}
	if w := doReq(t, s, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: []Observation{
		{User: "nx", Service: "ny", Value: 1},
	}}); w.Code != http.StatusOK {
		t.Errorf("observe after a refused StartFollower: %d, want 200", w.Code)
	}
}

// TestPromoteFailureResumesFollower: a promotion that cannot open the
// leader's data directory must leave the replica REPLICATING — not
// parked as a stopped, write-rejecting follower that looks healthy and
// can never serve a later promotion.
func TestPromoteFailureResumesFollower(t *testing.T) {
	leader, mgr, ts := leaderServer(t, t.TempDir())
	observeSome(t, leader)
	f := startFollower(t, FollowerConfig{
		Leader:       ts.URL,
		LeaderData:   mgr.Dir(),
		StoreOptions: store.Options{Logger: quietLogger()},
	})
	waitFor(t, 5*time.Second, "follower caught up", func() bool {
		_, ok := predictOn(t, f, "u0", "s0")
		return ok
	})
	// A directory where the claim writes its temp LOCK file: store.Open
	// fails on it, while the leader and the follower's reads never touch
	// that path.
	if err := os.Mkdir(filepath.Join(mgr.Dir(), "LOCK.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}

	if w := doReq(t, f, http.MethodPost, "/api/v1/promote", nil); w.Code != http.StatusConflict {
		t.Fatalf("promote with an unclaimable leader directory: %d, want 409", w.Code)
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
	leader, mgr, _ := durableServer(t, t.TempDir())
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
	if _, err := mgr.WAL().AppendRemoveUser(1); !errors.Is(err, store.ErrFenced) {
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
	leader, mgr, ts := leaderServer(t, t.TempDir())
	observeSome(t, leader)
	f := followerOf(t, ts, mgr)

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
	dir := t.TempDir()
	// Durable server cannot become a follower.
	leader, _, _ := durableServer(t, dir)
	if _, err := leader.StartFollower(FollowerConfig{Leader: "http://x", LeaderData: dir}); err == nil {
		t.Error("durable server accepted follower mode")
	}
	for _, c := range []struct {
		cfg  FollowerConfig
		want string
	}{
		{FollowerConfig{LeaderData: dir}, "leader URL"},
		{FollowerConfig{Leader: "http://x"}, "LeaderData"},
		// A directory holding no log is not a leader's directory.
		{FollowerConfig{Leader: "http://x", LeaderData: t.TempDir()}, "not a durable directory"},
	} {
		if _, err := testServer(t).StartFollower(c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("StartFollower(%+v): %v, want an error naming %q", c.cfg, err, c.want)
		}
	}
}
