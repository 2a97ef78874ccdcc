package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/qoslab/amf/internal/store"
)

// This file is the control plane of replication. A follower
// (StartFollower) is a continuous recovery of its leader's durable
// directory, which it mounts read-only (LeaderData): it loads the newest
// checkpoint there, then applies the log through the same pipeline crash
// recovery uses (walApplier, store.ReplayDir). Only the leader's commit
// index crosses the network: the follower long-polls
// GET /api/v1/cluster/status?after=<applied> and reads the records up to
// the wal_seq it answers, never past it. Followers reject direct writes
// with 503 + an X-Amf-Leader pointer; reads are served from the
// follower's own published view and may lag the leader by one commit
// (amf_replication_lag_seconds).
//
// Failover follows the shared-storage model, and promotion has one path:
// a follower is promoted (POST /api/v1/promote) by opening the dead
// leader's durable directory and running the full recovery protocol —
// checkpoint restore plus WAL replay to tail. Every sample the old leader
// acked is in that log, so promotion loses nothing acked.

// replPollTick is how often a parked status long-poll re-checks the
// commit index and the server's closed flag; it bounds how long a
// graceful shutdown waits on an idle poll.
const replPollTick = 25 * time.Millisecond

const (
	defaultReplWait = 5 * time.Second
	maxReplWait     = 30 * time.Second
)

// pollGrace is how long past its wait_ms a commit-index poll may go
// unanswered before the follower counts itself behind. A live leader
// answers by wait_ms, so a poll still out after that is held by a hung
// leader or a stuck path, and the follower cannot know it is caught up.
const pollGrace = time.Second

// ClusterStatusResponse is the GET /api/v1/cluster/status body.
type ClusterStatusResponse struct {
	// Role is "leader" (accepts writes) or "follower" (read-only replica
	// tailing a leader's directory).
	Role string `json:"role"`
	// Leader is the leader base URL a follower is tailing.
	Leader string `json:"leader,omitempty"`
	// WALSeq is the WAL's durable commit index (leader, durable): the
	// newest record a follower may apply.
	WALSeq uint64 `json:"wal_seq"`
	// AppliedSeq is the last replicated sequence number applied to the
	// local model (follower).
	AppliedSeq uint64 `json:"applied_seq"`
	// LagSeconds is how long this follower has continuously been behind
	// the leader's WAL tail (0 when caught up).
	LagSeconds float64 `json:"lag_seconds"`
	// Durable reports whether a durable store is attached.
	Durable bool `json:"durable"`
	// Epoch is the durable directory's claim epoch (see store fencing):
	// of two servers both claiming leadership over the same directory,
	// the HIGHER epoch opened it more recently and is the survivor. The
	// gateway uses this to demote stale ex-leaders after a failover.
	Epoch uint64 `json:"epoch,omitempty"`
	// Fenced reports that this server's durable store lost the directory
	// claim — it no longer accepts writes regardless of role.
	Fenced bool `json:"fenced,omitempty"`
	// Promotable reports that POST /api/v1/promote would recover the
	// leader's durable directory: a follower with no durable store
	// attached. A demoted ex-leader (store attached, or never started as
	// a follower) reports false, and the gateway never promotes it.
	Promotable bool `json:"promotable,omitempty"`
}

// replicationRoutes registers the cluster control plane; called from
// routes().
func (s *Server) replicationRoutes() {
	s.handle("GET /api/v1/cluster/status", s.handleClusterStatus)
	s.handle("POST /api/v1/promote", s.handlePromote)
	s.handle("POST /api/v1/demote", s.handleDemote)
	s.handle("POST /api/v1/cluster/leader", s.handleSetLeader)
}

// rejectFollowerWrite answers write requests with 503 while the server
// is a follower, pointing the client at the leader. Returns true when
// the request was rejected. 503 (not 4xx) on purpose: the client did
// nothing wrong, and a gateway-aware client retries 503s against the
// (possibly newly promoted) leader.
func (s *Server) rejectFollowerWrite(w http.ResponseWriter) bool {
	if !s.follower.Load() {
		return false
	}
	s.refuseFollowerWrite(w)
	return true
}

// refuseFollowerWrite writes the 503 a follower answers a write with.
func (s *Server) refuseFollowerWrite(w http.ResponseWriter) {
	// A demoted ex-leader has no tailer; the gateway told us who won.
	if l, _ := s.demotedTo.Load().(string); l != "" {
		w.Header().Set("X-Amf-Leader", l)
	} else if rp := s.repl; rp != nil {
		if l := rp.Leader(); l != "" {
			w.Header().Set("X-Amf-Leader", l)
		}
	}
	// Role changes resolve on probe/failover timescales, not request
	// timescales: tell well-behaved clients to back off a beat.
	w.Header().Set("Retry-After", "1")
	w.Header().Set(ShedReasonHeader, "follower")
	s.writeError(w, http.StatusServiceUnavailable, "%v", errFollowerWrite)
}

// handleClusterStatus answers the server's role and positions. With no
// query it answers at once (the gateway's probe). With ?after=N it is a
// follower's long-poll for the commit index: it answers once wal_seq > N,
// or after wait_ms (default 5 s, capped at 30 s). The wait subscribes to
// the WAL's commit notifications, so it wakes the moment an fsync lands,
// with the poll tick kept as a fallback. A server with no durable store
// has no commit index to wait on and answers at once.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	wait := defaultReplWait
	if ms := q.Get("wait_ms"); ms != "" {
		n, err := strconv.Atoi(ms)
		if err != nil || n < 0 {
			s.countError(w, http.StatusBadRequest, "invalid wait_ms %q", ms)
			return
		}
		wait = min(time.Duration(n)*time.Millisecond, maxReplWait)
	}
	if q.Has("after") {
		after, err := strconv.ParseUint(q.Get("after"), 10, 64)
		if err != nil {
			s.countError(w, http.StatusBadRequest, "invalid after: %v", err)
			return
		}
		s.awaitCommit(r.Context(), after, wait)
	}
	m := s.durable.Load()
	resp := ClusterStatusResponse{Role: "leader", Durable: m != nil}
	if m != nil {
		resp.WALSeq = m.WAL().DurableSeq()
		resp.Epoch = m.Epoch()
		resp.Fenced = m.Fenced()
	}
	if s.follower.Load() {
		resp.Role = "follower"
		if rp := s.repl; rp != nil {
			resp.Leader = rp.Leader()
			resp.AppliedSeq = rp.AppliedSeq()
			resp.LagSeconds = rp.Lag().Seconds()
		}
		resp.Promotable = s.promotable()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// awaitCommit parks a status long-poll until the WAL's commit index
// passes after, the wait elapses, the client hangs up or the server
// closes.
func (s *Server) awaitCommit(ctx context.Context, after uint64, wait time.Duration) {
	m := s.durable.Load()
	if m == nil {
		return
	}
	wal := m.WAL()
	commits, cancel := wal.SubscribeCommits()
	defer cancel()
	deadline := time.Now().Add(wait)
	for wal.DurableSeq() <= after && time.Now().Before(deadline) && !s.closed.Load() {
		select {
		case <-ctx.Done():
			return
		case <-commits:
			// The commit index advanced (or the WAL hit a terminal state,
			// which the loop condition re-checks).
		case <-time.After(replPollTick):
			// Fallback timeout: notifications are coalesced best-effort,
			// so never trust them exclusively.
		}
	}
}

// handlePromote flips a follower into a leader (see Promote).
func (s *Server) handlePromote(w http.ResponseWriter, _ *http.Request) {
	rs, err := s.Promote()
	if err != nil {
		s.countError(w, http.StatusConflict, "promote: %v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":           "promoted",
		"wal_seq":          s.durable.Load().WAL().LastSeq(),
		"checkpoint_seq":   rs.CheckpointSeq,
		"replayed_entries": rs.Entries,
	})
}

// handleSetLeader re-points a follower's tailer at a new leader after a
// failover. The follower keeps its applied sequence: the new leader was
// promoted from the same directory, so sequence numbers stay valid.
func (s *Server) handleSetLeader(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Leader string `json:"leader"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Leader == "" {
		s.countError(w, http.StatusBadRequest, "leader is required")
		return
	}
	rp := s.repl
	if !s.follower.Load() || rp == nil {
		s.countError(w, http.StatusConflict, "not a follower")
		return
	}
	rp.SetLeader(req.Leader)
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "leader updated", "leader": req.Leader})
}

// FollowerConfig configures StartFollower.
type FollowerConfig struct {
	// Leader is the leader's base URL (required): where the follower
	// long-polls for the commit index.
	Leader string
	// LeaderData is the leader's durable data directory, reachable from
	// this process on shared storage (required). The follower reads the
	// leader's checkpoints and log from it, and promotion recovers from
	// it — checkpoint restore + WAL replay to tail — so no sample the
	// leader acked durably is lost.
	LeaderData string
	// StoreOptions tunes the store opened from LeaderData at promotion.
	StoreOptions store.Options
	// WaitMS is the long-poll window the follower requests (default
	// 5000, which is what amfserver runs with; tests shorten it).
	WaitMS int
	// RetryInterval is the pause after a failed poll (default 200ms).
	RetryInterval time.Duration
	// HTTP is the client used for the commit-index polls; nil gets a
	// default with no overall timeout (long-polls hold connections open).
	HTTP *http.Client
}

// Replicator tails a leader's directory into the local server.
// Construct via StartFollower.
type Replicator struct {
	s   *Server
	cfg FollowerConfig

	leader atomic.Value // string: current leader base URL
	http   *http.Client

	seq        atomic.Uint64 // last sequence applied locally
	leaderSeq  atomic.Uint64 // leader commit index from the last poll
	behindNano atomic.Int64  // when we first fell behind; 0 = caught up
	pollNano   atomic.Int64  // when the outstanding commit-index poll was sent; 0 = none

	records    atomic.Int64
	bootstraps atomic.Int64
	errs       atomic.Int64

	// Lifecycle: lifeMu guards stop so the tail loop can be relaunched
	// after Stop — the failed-promotion recovery path. stop cancels the
	// running loop; nil once stopped.
	lifeMu sync.Mutex
	stop   context.CancelFunc
	wg     sync.WaitGroup
}

// StartFollower puts the server in follower mode: it loads the newest
// checkpoint in the leader's directory, then tails the leader's log
// continuously. Must be called before serving traffic, at most once, and
// is mutually exclusive with AttachDurable — a follower's durability IS
// the leader's log (journaling its records again would double them on
// promotion).
func (s *Server) StartFollower(cfg FollowerConfig) (*Replicator, error) {
	switch {
	case s.durable.Load() != nil:
		return nil, errors.New("server: follower mode is incompatible with a local durable store")
	case s.repl != nil:
		return nil, errors.New("server: follower already started")
	case cfg.Leader == "":
		return nil, errors.New("server: follower needs a leader URL")
	case cfg.LeaderData == "":
		return nil, errors.New("server: follower needs the leader's data directory (LeaderData)")
	}
	if cfg.WaitMS <= 0 {
		cfg.WaitMS = int(defaultReplWait / time.Millisecond)
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 200 * time.Millisecond
	}
	rp := &Replicator{s: s, cfg: cfg, http: cfg.HTTP}
	if rp.http == nil {
		rp.http = &http.Client{}
	}
	rp.leader.Store(strings.TrimRight(cfg.Leader, "/"))

	if err := rp.reload(0, nil); err != nil {
		return nil, fmt.Errorf("server: follower bootstrap from %s: %w", cfg.LeaderData, err)
	}
	s.repl = rp
	s.follower.Store(true)
	rp.registerMetrics()
	rp.restart()
	s.log.Info("follower started",
		"leader", rp.Leader(), "leader_data", cfg.LeaderData, "bootstrap_seq", rp.seq.Load())
	return rp, nil
}

// Leader returns the leader base URL currently being tailed.
func (rp *Replicator) Leader() string { return rp.leader.Load().(string) }

// SetLeader re-points the tailer (used after a failover promotes a new
// leader over the same directory).
func (rp *Replicator) SetLeader(addr string) {
	rp.leader.Store(strings.TrimRight(addr, "/"))
}

// AppliedSeq returns the last WAL sequence number applied locally.
func (rp *Replicator) AppliedSeq() uint64 { return rp.seq.Load() }

// Lag returns how long the follower has continuously been behind the
// leader's commit index (0 when caught up as of the last poll). A poll
// unanswered past its wait_ms and pollGrace counts as behind from the
// moment it was sent.
func (rp *Replicator) Lag() time.Duration {
	now := time.Now().UnixNano()
	since := rp.behindNano.Load()
	if sent := rp.pollNano.Load(); sent != 0 && rp.overdue(sent, now) && (since == 0 || sent < since) {
		since = sent
	}
	if since == 0 {
		return 0
	}
	return time.Duration(now - since)
}

// overdue reports whether a poll sent at sent is, at now, past the time
// a live leader answers it by.
func (rp *Replicator) overdue(sent, now int64) bool {
	return time.Duration(now-sent) > time.Duration(rp.cfg.WaitMS)*time.Millisecond+pollGrace
}

// Stop halts the tail loop — cancelling a parked poll — and waits for it
// to exit. Idempotent; called by Promote and by Server.Close.
func (rp *Replicator) Stop() {
	rp.lifeMu.Lock()
	if rp.stop != nil {
		rp.stop()
		rp.stop = nil
	}
	rp.lifeMu.Unlock()
	rp.wg.Wait()
}

// restart launches the tail loop: at start, and after Stop on the
// failed-promotion recovery path. No-op while the loop is running, or
// once the server itself is closing.
func (rp *Replicator) restart() {
	rp.lifeMu.Lock()
	defer rp.lifeMu.Unlock()
	if rp.stop != nil || rp.s.closed.Load() {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	rp.stop = cancel
	rp.wg.Add(1)
	go rp.tail(ctx)
}

func (rp *Replicator) registerMetrics() {
	r := rp.s.reg
	r.GaugeFunc("amf_replication_lag_seconds",
		"How long this follower has continuously been behind the leader's commit index (0 = caught up).",
		func() float64 { return rp.Lag().Seconds() })
	r.GaugeFunc("amf_replication_applied_seq",
		"Last WAL sequence number replicated and applied locally.",
		func() float64 { return float64(rp.seq.Load()) })
	r.GaugeFunc("amf_replication_leader_seq",
		"Leader commit index observed on the last replication poll.",
		func() float64 { return float64(rp.leaderSeq.Load()) })
	r.CounterFunc("amf_replication_records_total",
		"WAL records read from the leader's directory and applied.", rp.records.Load)
	r.CounterFunc("amf_replication_bootstraps_total",
		"Checkpoints loaded from the leader's directory (one at start when it has one; more mean the leader truncated past this follower).",
		rp.bootstraps.Load)
	r.CounterFunc("amf_replication_errors_total",
		"Failed replication polls (leader unreachable, log unreadable).", rp.errs.Load)
}

// reload loads the newest checkpoint in the leader's directory when it
// covers more than applied, replacing the local state wholesale and
// moving the applied position to the sequence it covers. It is the
// follower's bootstrap (applied 0) and its answer to a gap: a leader that
// checkpointed and truncated its log past applied leaves a checkpoint
// past applied behind. When no such checkpoint exists, cause — the
// error that prompted the reload, nil at bootstrap — stands.
func (rp *Replicator) reload(applied uint64, cause error) error {
	seq, data, ok, err := store.LoadCheckpoint(rp.cfg.LeaderData, rp.s.log)
	if err != nil {
		return err
	}
	if !ok || seq <= applied {
		return cause
	}
	if err := rp.s.LoadState(data); err != nil {
		return fmt.Errorf("load checkpoint seq %d: %w", seq, err)
	}
	rp.seq.Store(seq)
	rp.bootstraps.Add(1)
	if cause != nil {
		rp.s.log.Warn("leader log no longer reaches our position; loaded its newest checkpoint",
			"applied", applied, "checkpoint_seq", seq, "cause", cause)
	}
	return nil
}

// tail is the follower's poll loop: wait for the leader's commit index to
// pass the applied sequence, apply the records up to it from disk,
// update lag.
func (rp *Replicator) tail(ctx context.Context) {
	defer rp.wg.Done()
	for ctx.Err() == nil {
		err := rp.pollOnce(ctx)
		if err == nil || ctx.Err() != nil {
			continue
		}
		// A follower that cannot reach its leader cannot know it is
		// caught up: it is behind from its first failed poll on.
		rp.behindNano.CompareAndSwap(0, time.Now().UnixNano())
		rp.errs.Add(1)
		rp.s.log.Warn("replication poll failed", "leader", rp.Leader(), "from", rp.seq.Load(), "err", err)
		select {
		case <-ctx.Done():
		case <-time.After(rp.cfg.RetryInterval):
		}
	}
}

func (rp *Replicator) pollOnce(ctx context.Context) error {
	from := rp.seq.Load()
	sent := time.Now().UnixNano()
	rp.pollNano.Store(sent)
	commit, err := rp.commitIndex(ctx, from)
	if err != nil && rp.overdue(sent, time.Now().UnixNano()) {
		rp.behindNano.CompareAndSwap(0, sent) // Lag has counted from sent already
	}
	rp.pollNano.Store(0)
	if err != nil {
		return err
	}
	rp.leaderSeq.Store(commit)
	if err := rp.apply(ctx, from, commit); err != nil {
		if ctx.Err() != nil {
			return err
		}
		if err := rp.reload(rp.seq.Load(), err); err != nil {
			return err
		}
	}
	// Lag accounting: behind means the leader's commit index (as of this
	// poll) is past what we've applied. The gauge reports how long that
	// has been continuously true, so a follower keeping up under constant
	// load reads ~0 while a stalled one reads its outage age.
	if commit > rp.seq.Load() {
		rp.behindNano.CompareAndSwap(0, time.Now().UnixNano())
	} else {
		rp.behindNano.Store(0)
	}
	return nil
}

// commitIndex long-polls the leader's cluster status for a commit index
// past after and returns it.
func (rp *Replicator) commitIndex(ctx context.Context, after uint64) (uint64, error) {
	url := fmt.Sprintf("%s/api/v1/cluster/status?after=%d&wait_ms=%d", rp.Leader(), after, rp.cfg.WaitMS)
	ctx, cancel := context.WithTimeout(ctx, time.Duration(rp.cfg.WaitMS)*time.Millisecond+10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := rp.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st ClusterStatusResponse
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("leader %s: HTTP %d", rp.Leader(), resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("leader %s: status: %w", rp.Leader(), err)
	}
	if st.Role != "leader" || !st.Durable {
		return 0, fmt.Errorf("%s is not a durable leader (role %s, durable %v)", rp.Leader(), st.Role, st.Durable)
	}
	return st.WALSeq, nil
}

// apply reads the records (from, commit] from the leader's directory and
// applies them through the shared recovery pipeline, advancing the
// applied sequence only for entries whose samples have actually been
// flushed into the engine. It never reads past commit: a record beyond
// the commit index may be in the file before its fsync lands.
func (rp *Replicator) apply(ctx context.Context, from, commit uint64) error {
	apply, flush := rp.s.walApplier()
	applied := from
	err := store.ReplayDir(rp.cfg.LeaderData, from, commit, func(e store.Entry) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := apply(e); err != nil {
			return err
		}
		applied = e.Seq
		return nil
	})
	// Flush before publishing the new position: an entry counts as
	// applied only once its samples are in the engine — otherwise a
	// mid-batch error would skip buffered samples forever.
	flush()
	rp.seq.Store(applied)
	rp.records.Add(int64(applied - from))
	if err == nil && applied < commit {
		err = fmt.Errorf("log in %s ends at seq %d, before the leader's commit index %d", rp.cfg.LeaderData, applied, commit)
	}
	return err
}

// Promote turns a follower into a leader by recovering its leader's log:
// the tailer stops, the full recovery protocol runs against the (dead)
// leader's data directory — newest checkpoint restore plus WAL replay to
// tail — and the server attaches it as its own durable store, continuing
// the same WAL sequence numbering (which is why surviving followers can
// keep their positions and just re-point at us). Only then does the
// server start accepting writes.
func (s *Server) Promote() (store.RecoveryStats, error) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	var rs store.RecoveryStats
	if !s.follower.Load() {
		return rs, errors.New("not a follower")
	}
	// A follower that still holds a durable store, or never had a tailer,
	// is a demoted ex-leader (StartFollower forbids the combination). It
	// can NEVER be promoted in place: its in-memory model carries acked
	// writes from the diverged lineage, and re-opening the shared
	// directory here would bump the claim epoch and fence the legitimate
	// owner — a gateway retrying failover against it would grab the lock
	// in a loop. The only way back is a restart with -role follower.
	if m := s.durable.Load(); m != nil {
		if m.Fenced() {
			return rs, errors.New("demoted ex-leader (durable store fenced): restart with -role follower to rejoin")
		}
		return rs, errors.New("durable store already attached")
	}
	rp := s.repl
	if rp == nil {
		return rs, errors.New("demoted ex-leader: restart with -role follower to rejoin")
	}
	rp.Stop()
	m, err := store.Open(rp.cfg.LeaderData, rp.cfg.StoreOptions)
	if err != nil {
		// Local state is untouched — resume tailing so the replica
		// keeps replicating instead of sitting as a stopped,
		// write-rejecting follower that looks healthy.
		s.resumeFollower(rp, false)
		return rs, fmt.Errorf("open leader data: %w", err)
	}
	// Start recovery from a clean slate. A checkpoint restore replaces
	// the state wholesale anyway, but a log young enough to have no
	// checkpoint replays from record 1 — on top of a model the tailer
	// already trained with those very samples. Resetting first makes
	// promotion exact in both cases: the served state IS the leader's
	// durable state, nothing more.
	if err := s.resetState(); err != nil {
		m.Close()
		s.resumeFollower(rp, true)
		return rs, fmt.Errorf("reset state: %w", err)
	}
	rs, err = s.AttachDurable(m)
	if err != nil {
		m.Close()
		s.resumeFollower(rp, true)
		return rs, fmt.Errorf("recover leader data: %w", err)
	}
	s.follower.Store(false)
	s.log.Info("promoted to leader",
		"checkpoint_seq", rs.CheckpointSeq, "replayed_entries", rs.Entries)
	return rs, nil
}

// promotable reports whether Promote would get as far as opening the
// leader's data directory: a follower with a tailer and no durable store
// attached.
func (s *Server) promotable() bool {
	return s.follower.Load() && s.durable.Load() == nil && s.repl != nil
}

// resumeFollower restarts the tail loop after a failed promotion so the
// replica keeps replicating (and keeps its shot at a later promotion)
// instead of being left dead-but-green: still reporting role=follower
// and healthy, but never applying another record. When the failed
// attempt already touched local state (wiped=true), the state resets to
// empty and the applied position to 0, so the tailer rebuilds it from
// the leader's directory: from record 1, or from the newest checkpoint
// once the log no longer reaches back that far.
func (s *Server) resumeFollower(rp *Replicator, wiped bool) {
	if wiped {
		if err := s.resetState(); err != nil {
			s.log.Error("reset state after failed promotion", "err", err)
		}
		rp.seq.Store(0)
	}
	rp.restart()
	s.log.Warn("promotion failed; resumed follower tailing",
		"leader", rp.Leader(), "state_wiped", wiped)
}

// Demote forces this server out of the leader role — the gateway calls
// it (POST /api/v1/demote) when a stale ex-leader reappears after a
// failover promoted a different replica, and the fence watcher calls it
// when the durable directory is claimed by another process. The server
// flips to follower (writes reject with 503 + X-Amf-Leader), and an
// attached durable store is fenced in place: its WAL lineage has
// diverged from the promoted leader's, so appends, checkpoints, and
// truncations must stop before they corrupt the shared directory. A
// demoted ex-leader does NOT rejoin as a live replica automatically —
// its in-memory model may contain acked-but-unreplicated writes no
// longer in any log — so restart it with -role follower to rejoin.
func (s *Server) Demote(leader string) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if leader != "" {
		s.demotedTo.Store(leader)
	}
	if s.follower.Load() {
		// Already a follower: just re-point the tailer, like
		// /api/v1/cluster/leader.
		if rp := s.repl; rp != nil && leader != "" {
			rp.SetLeader(leader)
		}
		return
	}
	s.follower.Store(true)
	if m := s.durable.Load(); m != nil {
		m.Fence("demoted, new leader: " + leader)
	}
	s.log.Warn("demoted to follower; restart with -role follower to rejoin the group",
		"leader", leader)
}

// handleDemote is the gateway's split-brain repair hook (see Demote).
func (s *Server) handleDemote(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Leader string `json:"leader"`
	}
	_ = json.NewDecoder(r.Body).Decode(&req) // leader is optional
	s.Demote(req.Leader)
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "demoted", "leader": req.Leader})
}
