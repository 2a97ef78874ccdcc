package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/registry"
	"github.com/qoslab/amf/internal/store"
)

// This file is the control plane of WAL-shipping replication. A leader
// (any server with a durable store attached) serves its log over
// GET /api/v1/replicate/wal as framed records — the on-disk framing
// verbatim, so every shipped record carries the CRC it had on the
// leader's disk. A follower (StartFollower) bootstraps from the leader's
// ETag'd snapshot, tails that endpoint, and applies entries through the
// same pipeline crash recovery uses (walApplier). Followers reject
// direct writes with 503 + an X-Amf-Leader pointer; reads are served
// from the follower's own published view and may lag the leader by the
// shipping delay (amf_replication_lag_seconds).
//
// Failover follows the shared-storage model: a follower started with a
// LeaderData directory is promoted (POST /api/v1/promote) by opening the
// dead leader's durable directory and running the full recovery protocol
// — checkpoint restore plus WAL replay to tail. Every sample the old
// leader acked under -fsync group is in that log, so promotion loses
// nothing acked. Without LeaderData promotion still works but serves the
// tailed in-memory state (the shipping delay becomes a loss window).

// replPollTick is how often long-polling replication handlers re-check
// the WAL tail and the server's closed flag; it bounds how long a
// graceful shutdown waits on an idle stream.
const replPollTick = 25 * time.Millisecond

const (
	defaultReplWait     = 5 * time.Second
	maxReplWait         = 30 * time.Second
	defaultReplMaxBytes = 4 << 20
)

// ClusterStatusResponse is the GET /api/v1/cluster/status body.
type ClusterStatusResponse struct {
	// Role is "leader" (accepts writes; serves the replication stream
	// when durable) or "follower" (read-only replica tailing a leader).
	Role string `json:"role"`
	// Leader is the leader base URL a follower is tailing.
	Leader string `json:"leader,omitempty"`
	// WALSeq is the last journaled sequence number (leader, durable).
	WALSeq uint64 `json:"wal_seq"`
	// AppliedSeq is the last replicated sequence number applied to the
	// local model (follower).
	AppliedSeq uint64 `json:"applied_seq"`
	// LagSeconds is how long this follower has continuously been behind
	// the leader's WAL tail (0 when caught up).
	LagSeconds float64 `json:"lag_seconds"`
	// Streams is the number of replication streams currently being
	// served to followers.
	Streams int64 `json:"replication_streams"`
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
	// ShedRate is the fraction of admission-considered work this server
	// refused over the gate's last one-second window (0 while admission
	// is disabled). The
	// gateway treats a group whose replicas report a high rate as
	// saturated and sheds sheddable traffic at the edge.
	ShedRate float64 `json:"shed_rate,omitempty"`
}

// replicationRoutes registers the cluster control plane; called from
// routes().
func (s *Server) replicationRoutes() {
	s.handle("GET /api/v1/replicate/wal", s.handleReplicateWAL)
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

// handleReplicateWAL streams WAL records with seq > from to a follower.
// Long-poll: when the log has nothing shippable past from, the handler
// subscribes to the WAL's commit notifications and wakes the moment the
// commit index advances — a follower sees new records within the fsync
// latency, not the poll tick — bounded by wait_ms (capped at 30s) with
// the old poll tick kept as a fallback timeout. The response carries
// X-Amf-Wal-Seq = the leader's current shippable tail (the durable
// commit index under fsync=group), which is how followers measure lag.
// Streams are tracked so graceful shutdown can drain them
// (DrainReplication); a follower disconnecting mid-stream is logged,
// never fatal.
func (s *Server) handleReplicateWAL(w http.ResponseWriter, r *http.Request) {
	if s.durable == nil {
		s.countError(w, http.StatusNotImplemented, "replication requires a durable store (-data-dir)")
		return
	}
	if s.follower.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "follower: replicate from the leader")
		return
	}
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		s.countError(w, http.StatusBadRequest, "invalid from: %v", err)
		return
	}
	wait := defaultReplWait
	if ms := q.Get("wait_ms"); ms != "" {
		n, err := strconv.Atoi(ms)
		if err != nil || n < 0 {
			s.countError(w, http.StatusBadRequest, "invalid wait_ms %q", ms)
			return
		}
		wait = min(time.Duration(n)*time.Millisecond, maxReplWait)
	}
	maxBytes := int64(defaultReplMaxBytes)
	if mb := q.Get("max_bytes"); mb != "" {
		n, err := strconv.ParseInt(mb, 10, 64)
		if err != nil || n < 0 {
			s.countError(w, http.StatusBadRequest, "invalid max_bytes %q", mb)
			return
		}
		maxBytes = n
	}

	s.replStreams.Add(1)
	s.replActive.Add(1)
	defer func() {
		s.replActive.Add(-1)
		s.replStreams.Done()
	}()

	wal := s.durable.WAL()
	// shipTail is the newest sequence number this poll may ship: the
	// durable commit index under fsync=group (shipping records
	// whose covering fsync has not landed would let a follower get ahead
	// of a crashed leader), the appended tail under the lossy policies.
	shipTail := wal.DurableSeq
	commits, cancel := wal.SubscribeCommits()
	defer cancel()
	deadline := time.Now().Add(wait)
	for shipTail() <= from && time.Now().Before(deadline) && !s.closed.Load() {
		select {
		case <-r.Context().Done():
			return
		case <-commits:
			// The commit index advanced (or the WAL hit a terminal state,
			// which the loop condition re-checks): answer now instead of
			// sleeping out the poll tick.
		case <-time.After(replPollTick):
			// Fallback timeout: notifications are coalesced best-effort,
			// so never trust them exclusively.
		}
	}
	tail := shipTail()
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-Amf-Wal-Seq", strconv.FormatUint(tail, 10))
	s.countStatus(http.StatusOK)
	last, err := wal.StreamSince(from, w, maxBytes)
	if err != nil {
		// Most commonly the follower hung up mid-stream; it will re-poll
		// from its last applied sequence, so nothing is lost.
		s.replErrors.Add(1)
		s.log.Warn("replication stream interrupted",
			"from", from, "last_shipped", last, "err", err)
	}
}

// DrainReplication waits for in-flight replication streams to finish,
// up to timeout. Call Close first: it flips the closed flag the
// long-poll loops watch, so idle streams exit within one poll tick.
// Returns false if streams were still active at the deadline (logged;
// the shutdown proceeds regardless — followers recover by re-polling).
func (s *Server) DrainReplication(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		s.replStreams.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		s.log.Warn("replication streams still active at shutdown deadline",
			"active", s.replActive.Load(), "timeout", timeout)
		return false
	}
}

func (s *Server) handleClusterStatus(w http.ResponseWriter, _ *http.Request) {
	resp := ClusterStatusResponse{
		Role: "leader", Durable: s.durable != nil,
		Streams: s.replActive.Load(), ShedRate: s.ShedRate(),
	}
	if s.durable != nil {
		resp.WALSeq = s.durable.WAL().LastSeq()
		resp.Epoch = s.durable.Epoch()
		resp.Fenced = s.durable.Fenced()
	}
	if s.follower.Load() {
		resp.Role = "follower"
		if rp := s.repl; rp != nil {
			resp.Leader = rp.Leader()
			resp.AppliedSeq = rp.AppliedSeq()
			resp.LagSeconds = rp.Lag().Seconds()
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handlePromote flips a follower into a leader (see Promote).
func (s *Server) handlePromote(w http.ResponseWriter, _ *http.Request) {
	rs, err := s.Promote()
	if err != nil {
		s.countError(w, http.StatusConflict, "promote: %v", err)
		return
	}
	resp := map[string]any{"status": "promoted"}
	if s.durable != nil {
		resp["wal_seq"] = s.durable.WAL().LastSeq()
		resp["checkpoint_seq"] = rs.CheckpointSeq
		resp["replayed_entries"] = rs.Entries
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleSetLeader re-points a follower's tailer at a new leader after a
// failover. The follower keeps its applied sequence: the new leader was
// promoted from the same WAL lineage, so sequence numbers stay valid.
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
	// Leader is the leader's base URL (required).
	Leader string
	// LeaderData is the leader's durable data directory, reachable from
	// this process (shared or replicated storage). When set, promotion
	// recovers from it — checkpoint restore + WAL replay to tail — so no
	// sample the leader acked durably is lost. When empty, promotion
	// serves the tailed in-memory state (best effort).
	LeaderData string
	// StoreOptions tunes the store opened from LeaderData at promotion.
	StoreOptions store.Options
	// WaitMS is the long-poll window the follower requests (default
	// 5000, which is what amfserver runs with; tests shorten it).
	WaitMS int
	// MaxBytes bounds one replication response (default 4 MiB).
	MaxBytes int64
	// RetryInterval is the pause after a failed poll (default 200ms).
	RetryInterval time.Duration
	// HTTP is the client used for snapshot and WAL fetches; nil gets a
	// default with no overall timeout (long-polls hold connections open).
	HTTP *http.Client
}

// Replicator tails a leader's WAL into the local server. Construct via
// StartFollower.
type Replicator struct {
	s   *Server
	cfg FollowerConfig

	leader atomic.Value // string: current leader base URL
	http   *http.Client

	seq        atomic.Uint64 // last sequence applied locally
	leaderSeq  atomic.Uint64 // leader tail from the last poll
	behindNano atomic.Int64  // when we first fell behind; 0 = caught up

	records    atomic.Int64
	bootstraps atomic.Int64
	errs       atomic.Int64

	etag string // snapshot validator from the last bootstrap (tail goroutine only)

	// Lifecycle: lifeMu guards stop/stopped so the tail loop can be
	// relaunched after Stop — the failed-promotion recovery path. Each
	// relaunch gets a fresh stop channel.
	lifeMu  sync.Mutex
	stop    chan struct{}
	stopped bool
	wg      sync.WaitGroup
}

// StartFollower puts the server in follower mode: it bootstraps state
// from the leader's snapshot, then tails the leader's WAL continuously.
// Must be called before serving traffic, at most once, and is mutually
// exclusive with AttachDurable — a follower's durability IS the leader's
// log (replicated records are already durable there; journaling them
// again would double them on promotion).
func (s *Server) StartFollower(cfg FollowerConfig) (*Replicator, error) {
	if s.durable != nil {
		return nil, errors.New("server: follower mode is incompatible with a local durable store")
	}
	if s.repl != nil {
		return nil, errors.New("server: follower already started")
	}
	if cfg.Leader == "" {
		return nil, errors.New("server: follower needs a leader URL")
	}
	if cfg.WaitMS <= 0 {
		cfg.WaitMS = int(defaultReplWait / time.Millisecond)
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = defaultReplMaxBytes
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 200 * time.Millisecond
	}
	rp := &Replicator{s: s, cfg: cfg, http: cfg.HTTP, stop: make(chan struct{})}
	if rp.http == nil {
		rp.http = &http.Client{}
	}
	rp.leader.Store(strings.TrimRight(cfg.Leader, "/"))

	if err := rp.bootstrap(context.Background()); err != nil {
		return nil, err
	}
	s.repl = rp
	s.follower.Store(true)
	rp.registerMetrics()
	rp.wg.Add(1)
	go rp.tail(rp.stop)
	s.log.Info("follower started",
		"leader", rp.Leader(), "bootstrap_seq", rp.seq.Load())
	return rp, nil
}

// Leader returns the leader base URL currently being tailed.
func (rp *Replicator) Leader() string { return rp.leader.Load().(string) }

// SetLeader re-points the tailer (used after a failover promotes a new
// leader from the same WAL lineage).
func (rp *Replicator) SetLeader(addr string) {
	rp.leader.Store(strings.TrimRight(addr, "/"))
}

// AppliedSeq returns the last WAL sequence number applied locally.
func (rp *Replicator) AppliedSeq() uint64 { return rp.seq.Load() }

// Lag returns how long the follower has continuously been behind the
// leader's WAL tail (0 when caught up as of the last poll).
func (rp *Replicator) Lag() time.Duration {
	since := rp.behindNano.Load()
	if since == 0 {
		return 0
	}
	return time.Duration(time.Now().UnixNano() - since)
}

// Stop halts the tail loop and waits for it to exit. Idempotent; called
// by Promote and by Server.Close.
func (rp *Replicator) Stop() {
	rp.lifeMu.Lock()
	if !rp.stopped {
		rp.stopped = true
		close(rp.stop)
	}
	rp.lifeMu.Unlock()
	rp.wg.Wait()
}

// restart relaunches the tail loop after Stop — the failed-promotion
// recovery path. No-op while the tailer is still running, or once the
// server itself is closing.
func (rp *Replicator) restart() {
	rp.lifeMu.Lock()
	defer rp.lifeMu.Unlock()
	if !rp.stopped || rp.s.closed.Load() {
		return
	}
	rp.stopped = false
	rp.stop = make(chan struct{})
	rp.wg.Add(1)
	go rp.tail(rp.stop)
}

func (rp *Replicator) registerMetrics() {
	r := rp.s.reg
	r.GaugeFunc("amf_replication_lag_seconds",
		"How long this follower has continuously been behind the leader's WAL tail (0 = caught up).",
		func() float64 { return rp.Lag().Seconds() })
	r.GaugeFunc("amf_replication_applied_seq",
		"Last WAL sequence number replicated and applied locally.",
		func() float64 { return float64(rp.seq.Load()) })
	r.GaugeFunc("amf_replication_leader_seq",
		"Leader WAL tail observed on the last replication poll.",
		func() float64 { return float64(rp.leaderSeq.Load()) })
	r.CounterFunc("amf_replication_records_total",
		"WAL records received from the leader and applied.", rp.records.Load)
	r.CounterFunc("amf_replication_bootstraps_total",
		"Full snapshot bootstraps from the leader (1 at start; more mean the leader truncated past us).",
		rp.bootstraps.Load)
	r.CounterFunc("amf_replication_errors_total",
		"Failed replication polls (leader unreachable, stream corrupt).", rp.errs.Load)
}

// parseSnapshotETag extracts the covered WAL sequence from a snapshot
// ETag of the form `"seq-N"`. Returns ok=false for the non-durable
// `"view-N"` form — such a snapshot has no WAL position, so it cannot
// anchor replication.
func parseSnapshotETag(etag string) (uint64, bool) {
	etag = strings.Trim(etag, `"`)
	num, found := strings.CutPrefix(etag, "seq-")
	if !found {
		return 0, false
	}
	n, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// bootstrap replaces the local state with the leader's snapshot and
// anchors the tail position at the sequence number its ETag names. The
// previous bootstrap's validator rides If-None-Match: a 304 means the
// leader's checkpoint is the one we already restored, so only the tail
// position resets.
func (rp *Replicator) bootstrap(ctx context.Context) error {
	url := rp.Leader() + "/api/v1/snapshot"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return fmt.Errorf("server: bootstrap request: %w", err)
	}
	if rp.etag != "" {
		req.Header.Set("If-None-Match", rp.etag)
	}
	resp, err := rp.http.Do(req)
	if err != nil {
		return fmt.Errorf("server: bootstrap from %s: %w", url, err)
	}
	defer resp.Body.Close()
	etag := resp.Header.Get("ETag")
	seq, durable := parseSnapshotETag(etag)
	switch resp.StatusCode {
	case http.StatusNotModified:
		if !durable {
			return fmt.Errorf("server: bootstrap: leader returned 304 with ETag %q", etag)
		}
		rp.seq.Store(seq)
		return nil
	case http.StatusOK:
	default:
		return fmt.Errorf("server: bootstrap from %s: HTTP %d", url, resp.StatusCode)
	}
	if !durable {
		return fmt.Errorf("server: leader snapshot has no WAL position (ETag %q) — the leader must run with a durable store", etag)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("server: bootstrap download: %w", err)
	}
	if err := rp.s.LoadState(data); err != nil {
		return fmt.Errorf("server: bootstrap restore: %w", err)
	}
	rp.etag = etag
	rp.seq.Store(seq)
	rp.bootstraps.Add(1)
	return nil
}

// tail is the follower's poll loop: fetch records past the applied
// sequence, verify and apply them, update lag. On a sequence gap at the
// stream head (the leader checkpointed and truncated past our position)
// it re-bootstraps from the snapshot.
func (rp *Replicator) tail(stop <-chan struct{}) {
	defer rp.wg.Done()
	for {
		select {
		case <-stop:
			return
		default:
		}
		if err := rp.pollOnce(); err != nil {
			rp.errs.Add(1)
			rp.s.log.Warn("replication poll failed", "leader", rp.Leader(), "from", rp.seq.Load(), "err", err)
			select {
			case <-stop:
				return
			case <-time.After(rp.cfg.RetryInterval):
			}
		}
	}
}

// errReplGap signals that the leader's log no longer reaches back to our
// applied sequence; the only recovery is a fresh snapshot bootstrap.
var errReplGap = errors.New("server: replication gap")

func (rp *Replicator) pollOnce() error {
	from := rp.seq.Load()
	url := fmt.Sprintf("%s/api/v1/replicate/wal?from=%d&wait_ms=%d&max_bytes=%d",
		rp.Leader(), from, rp.cfg.WaitMS, rp.cfg.MaxBytes)
	ctx, cancel := context.WithTimeout(context.Background(),
		time.Duration(rp.cfg.WaitMS)*time.Millisecond+10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := rp.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("leader %s: HTTP %d", rp.Leader(), resp.StatusCode)
	}
	if hdr := resp.Header.Get("X-Amf-Wal-Seq"); hdr != "" {
		if n, err := strconv.ParseUint(hdr, 10, 64); err == nil {
			rp.leaderSeq.Store(n)
		}
	}

	applied, err := rp.applyStream(from, resp.Body)
	if errors.Is(err, errReplGap) {
		rp.s.log.Warn("leader truncated past our position; re-bootstrapping",
			"applied", applied, "leader", rp.Leader())
		return rp.bootstrap(context.Background())
	}
	if err != nil {
		return err
	}
	// Lag accounting: behind means the leader's tail (as of this poll)
	// is past what we've applied. The gauge reports how long that has
	// been continuously true, so a follower keeping up under constant
	// load reads ~0 while a stalled one reads its outage age.
	if rp.leaderSeq.Load() > rp.seq.Load() {
		rp.behindNano.CompareAndSwap(0, time.Now().UnixNano())
	} else {
		rp.behindNano.Store(0)
	}
	return nil
}

// applyStream decodes framed records from body and applies them through
// the shared recovery pipeline, advancing the applied sequence only for
// entries whose samples have actually been flushed into the engine.
func (rp *Replicator) applyStream(from uint64, body io.Reader) (uint64, error) {
	rr := store.NewRecordReader(body)
	apply, flush := rp.s.walApplier()
	applied := from
	n := 0
	var streamErr error
	for {
		e, err := rr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			streamErr = err
			break
		}
		if n == 0 && e.Seq != from+1 {
			if e.Seq > from+1 {
				return applied, errReplGap
			}
			// Records at or below our position (leader replayed from an
			// older segment boundary): already applied, skip.
			if e.Seq <= from {
				continue
			}
		}
		if err := apply(e); err != nil {
			streamErr = err
			break
		}
		applied = e.Seq
		n++
	}
	// Flush before publishing the new position: an entry counts as
	// applied only once its samples are in the engine — otherwise a
	// mid-batch error would skip buffered samples forever.
	flush()
	rp.seq.Store(applied)
	rp.records.Add(int64(n))
	if streamErr != nil {
		return applied, fmt.Errorf("apply replication stream: %w", streamErr)
	}
	return applied, nil
}

// Promote turns a follower into a leader. The tailer stops first; then,
// when the follower was configured with the (dead) leader's data
// directory, the full recovery protocol runs against it — newest
// checkpoint restore plus WAL replay to tail — and the server attaches
// it as its own durable store, continuing the same WAL sequence
// numbering (which is why surviving followers can keep their positions
// and just re-point at us). Only then does the server start accepting
// writes. Without a data directory the tailed in-memory state is served
// as-is.
func (s *Server) Promote() (store.RecoveryStats, error) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	var rs store.RecoveryStats
	if !s.follower.Load() {
		return rs, errors.New("not a follower")
	}
	// A follower that still holds a durable store is a demoted ex-leader
	// (StartFollower forbids the combination). It can NEVER be promoted
	// in place: its in-memory model carries acked writes from the
	// diverged lineage, and re-opening the shared directory here would
	// bump the claim epoch and fence the legitimate owner — a gateway
	// retrying failover against it would grab the lock in a loop. The
	// only way back is a restart with -role follower.
	if m := s.durable; m != nil {
		if m.Fenced() {
			return rs, errors.New("demoted ex-leader (durable store fenced): restart with -role follower to rejoin")
		}
		return rs, errors.New("durable store already attached")
	}
	rp := s.repl
	if rp != nil {
		rp.Stop()
	}
	if rp != nil && rp.cfg.LeaderData != "" {
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
		view := s.eng.Pin()
		blank, err := core.MustNew(view.Config()).Snapshot()
		s.eng.Unpin(view)
		if err != nil {
			m.Close()
			s.resumeFollower(rp, false)
			return rs, fmt.Errorf("reset state: %w", err)
		}
		if err := s.eng.Restore(blank); err != nil {
			m.Close()
			s.resumeFollower(rp, true)
			return rs, fmt.Errorf("reset state: %w", err)
		}
		s.users = registry.New()
		s.services = registry.New()
		rs, err = s.AttachDurable(m)
		if err != nil {
			m.Close()
			s.resumeFollower(rp, true)
			return rs, fmt.Errorf("recover leader data: %w", err)
		}
	}
	s.follower.Store(false)
	s.log.Info("promoted to leader",
		"durable", s.durable != nil,
		"checkpoint_seq", rs.CheckpointSeq, "replayed_entries", rs.Entries)
	return rs, nil
}

// resumeFollower restarts the tail loop after a failed promotion so the
// replica keeps replicating (and keeps its shot at a later promotion)
// instead of being left dead-but-green: still reporting role=follower
// and healthy, but never applying another record. When the failed
// attempt already wiped local state (wiped=true), the applied position
// and snapshot validator reset too — the next successful poll then sees
// a sequence gap and re-bootstraps wholesale from the leader's
// snapshot, which rebuilds consistent state from scratch. (rp.etag is
// safe to touch here: the tail goroutine is stopped.)
func (s *Server) resumeFollower(rp *Replicator, wiped bool) {
	if wiped {
		rp.seq.Store(0)
		rp.etag = ""
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
	if m := s.durable; m != nil {
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
