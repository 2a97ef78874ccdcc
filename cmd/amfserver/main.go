// Command amfserver runs the QoS prediction service (framework Fig. 3):
// an HTTP/JSON endpoint that collects observed QoS data from service
// users, keeps an AMF model updated online, and serves predictions for
// candidate-service selection.
//
//	amfserver -addr :8080 -attr RT
//	curl -XPOST localhost:8080/api/v1/observe -d '{"observations":[{"user":"u1","service":"s1","value":1.4}]}'
//	curl 'localhost:8080/api/v1/predict?user=u1&service=s1'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/matrix"
	"github.com/qoslab/amf/internal/obs"
	"github.com/qoslab/amf/internal/server"
	"github.com/qoslab/amf/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "amfserver:", err)
		os.Exit(1)
	}
}

// run serves until SIGINT/SIGTERM; logs and flag errors go to stderr.
func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("amfserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		attrFlag = fs.String("attr", "RT", "QoS attribute served: RT or TP")
		expiry   = fs.Duration("expiry", 15*time.Minute, "observation expiry (paper: one 15-minute slice)")
		replay   = fs.Duration("replay-interval", 100*time.Millisecond, "background replay tick")
		batch    = fs.Int("replay-batch", 500, "replay updates per tick")
		seed     = fs.Int64("seed", 1, "model seed")

		dataDir = fs.String("data-dir", "", "durable-state directory: WAL journaling, periodic checkpoints, crash recovery; a write is acked only once an fsync covers it")
		snapIvl = fs.Duration("snapshot-interval", time.Minute, "background checkpoint cadence for -data-dir")

		role       = fs.String("role", "leader", "cluster role: leader (serves writes) or follower (tails a leader's log from -leader-data, read-only until promoted)")
		leaderURL  = fs.String("leader", "", "leader base URL the follower long-polls for the commit index (follower role, required)")
		leaderData = fs.String("leader-data", "", "leader's durable data directory on shared storage: the follower reads its checkpoints and log from it, and promotion recovers it to the exact durable tail (follower role, required)")

		sloAdmit     = fs.Bool("slo-admission", false, "enable the SLO admission gate on observe/predict/rank (class header X-Amf-Slo-Class; critical is never shed)")
		sloBudgetStd = fs.Duration("slo-budget-standard", 2*time.Second, "predicted-wait budget for standard-class requests (with -slo-admission)")
		sloBudgetShd = fs.Duration("slo-budget-sheddable", 250*time.Millisecond, "predicted-wait budget for sheddable-class requests (with -slo-admission)")

		logLevel  = fs.String("log-level", "info", "log level: debug, info, warn, or error")
		logFormat = fs.String("log-format", "text", "log format: text or json")
		pprofFlag = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A ticker cannot tick at a non-positive interval, a checkpoint
	// cadence of zero would be replaced by the store's default, and a
	// budget of zero would shed every non-critical request.
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"replay-interval", *replay},
		{"snapshot-interval", *snapIvl},
		{"slo-budget-standard", *sloBudgetStd},
		{"slo-budget-sheddable", *sloBudgetShd},
	} {
		if d.v <= 0 {
			return fmt.Errorf("-%s must be positive, got %v", d.name, d.v)
		}
	}
	// Zero replays nothing, which turns replay off; a negative count would
	// do the same while reading as a mistake.
	if *batch < 0 {
		return fmt.Errorf("-replay-batch must not be negative, got %d", *batch)
	}

	logger, err := obs.NewLogger(stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}

	var attr dataset.Attribute
	switch strings.ToUpper(*attrFlag) {
	case "RT":
		attr = dataset.ResponseTime
	case "TP":
		attr = dataset.Throughput
	default:
		return fmt.Errorf("unknown attribute %q", *attrFlag)
	}
	rmin, rmax := attr.Range()
	cfg := core.DefaultConfig(attr.DefaultAlpha(), rmin, rmax)
	cfg.Expiry = *expiry
	cfg.Seed = *seed
	model, err := core.New(cfg)
	if err != nil {
		return err
	}

	svc := server.New(model, server.WithLogger(logger))
	defer svc.Close()
	if *pprofFlag {
		svc.EnablePprof()
	}
	if *sloAdmit {
		svc.EnableAdmission(server.AdmissionConfig{
			BudgetStandard:  *sloBudgetStd,
			BudgetSheddable: *sloBudgetShd,
		})
	}
	follower := false
	switch *role {
	case "leader":
		if *leaderURL != "" || *leaderData != "" {
			return errors.New("-leader/-leader-data only apply to -role follower")
		}
	case "follower":
		follower = true
		if *leaderURL == "" {
			return errors.New("-role follower requires -leader")
		}
		if *leaderData == "" {
			return errors.New("-role follower requires -leader-data (the leader's durable directory, which the follower reads)")
		}
		if *dataDir != "" {
			return errors.New("-role follower is incompatible with -data-dir (durability lives on the leader; the follower reads it from -leader-data)")
		}
	default:
		return fmt.Errorf("unknown role %q (want leader or follower)", *role)
	}
	var mgr *store.Manager
	if *dataDir != "" {
		mgr, err = store.Open(*dataDir, store.Options{
			CheckpointInterval: *snapIvl,
			Logger:             logger,
		})
		if err != nil {
			return err
		}
		defer mgr.Close()
		// Recover (checkpoint restore + WAL tail replay through the normal
		// observe path), attach the journal, start the checkpointer — in
		// that order, so replayed work is not re-journaled.
		rs, err := svc.AttachDurable(mgr)
		if err != nil {
			return fmt.Errorf("recover %s: %w", *dataDir, err)
		}
		logger.Info("durable state ready", "dir", *dataDir,
			"snapshot_interval", *snapIvl,
			"recovered_samples", rs.Samples, "checkpoint_seq", rs.CheckpointSeq)
	}
	if follower {
		// Load the newest checkpoint in the leader's directory, then tail
		// its log. The store options only matter at promotion time, when
		// the follower re-opens the leader's durable directory as its own.
		if _, err := svc.StartFollower(server.FollowerConfig{
			Leader:     *leaderURL,
			LeaderData: *leaderData,
			StoreOptions: store.Options{
				CheckpointInterval: *snapIvl,
				Logger:             logger,
			},
		}); err != nil {
			return fmt.Errorf("start follower: %w", err)
		}
		logger.Info("following leader", "leader", *leaderURL, "leader_data", *leaderData)
	}
	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: svc.Handler(),
		// Full slow-client protection: bound the header read, the whole
		// request (large observe/snapshot uploads included), the response
		// write, and how long an idle keep-alive connection may pin a
		// file descriptor.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go svc.RunReplay(ctx, *replay, *batch)
	// shutDown is closed once Shutdown has returned: every handler has
	// finished, or the grace period ran out.
	shutDown := make(chan struct{})
	go func() {
		defer close(shutDown)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()

	// Effective config, one structured record: everything an operator
	// needs to reproduce this process.
	logger.Info("amfserver starting",
		"version", obs.BuildVersion(), "commit", obs.BuildCommit(),
		"addr", *addr, "attr", attr.String(),
		"rank", cfg.Rank, "eta", cfg.LearnRate, "beta", cfg.Beta, "alpha", cfg.Alpha,
		"expiry", *expiry, "replay_interval", *replay, "replay_batch", *batch,
		"simd", matrix.SIMD(),
		"slo_admission", *sloAdmit, "slo_budget_standard", *sloBudgetStd,
		"slo_budget_sheddable", *sloBudgetShd,
		"role", *role, "leader", *leaderURL, "leader_data", *leaderData,
		"data_dir", *dataDir, "snapshot_interval", *snapIvl,
		"pprof", *pprofFlag, "log_level", *logLevel, "log_format", *logFormat)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// ListenAndServe returns as soon as Shutdown starts. No observe may
	// commit after the final checkpoint, or into a closed manager: wait
	// for the handlers still running (Close is idempotent; the deferred
	// call becomes a no-op).
	<-shutDown
	svc.Close()
	// svc.Durable(), not the local mgr: a follower promoted at runtime
	// attached the dead leader's durable directory inside the server,
	// which the -data-dir flag path never saw.
	if m := svc.Durable(); m != nil {
		// Final checkpoint: a graceful shutdown leaves nothing for the
		// next start to replay.
		if err := m.Checkpoint(); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		logger.Info("final checkpoint written", "dir", m.Dir())
		if m != mgr {
			// Promotion-attached manager: the deferred mgr.Close only
			// releases the flag-opened one.
			if err := m.Close(); err != nil {
				logger.Warn("close durable state", "err", err)
			}
		}
	}
	return nil
}
