// Command amfgateway fronts a user-sharded cluster of amfserver
// replicas: it consistent-hashes users across shard groups, proxies the
// prediction API to the right group (writes to the leader, reads
// round-robin), and — with -failover — promotes a follower when a
// group's leader dies.
//
//	amfgateway -addr :8080 \
//	  -shard http://s0a:8081,http://s0b:8082 \
//	  -shard http://s1a:8083,http://s1b:8084 \
//	  -failover
//
// Each -shard lists one group's replicas (leader first by convention;
// the gateway discovers actual roles by probing). Clients speak the
// same /api/v1 JSON API to the gateway that they would to a single
// amfserver.
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

	"github.com/qoslab/amf/internal/cluster"
	"github.com/qoslab/amf/internal/obs"
)

// shardList collects repeatable -shard flags, each a comma-separated
// replica URL list for one group.
type shardList [][]string

func (s *shardList) String() string {
	parts := make([]string, len(*s))
	for i, grp := range *s {
		parts[i] = strings.Join(grp, ",")
	}
	return strings.Join(parts, " ")
}

func (s *shardList) Set(v string) error {
	var urls []string
	for _, u := range strings.Split(v, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return fmt.Errorf("replica %q: URL must start with http:// or https://", u)
		}
		urls = append(urls, u)
	}
	if len(urls) == 0 {
		return errors.New("empty shard group")
	}
	*s = append(*s, urls)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "amfgateway:", err)
		os.Exit(1)
	}
}

// run serves until SIGINT/SIGTERM; logs and flag errors go to stderr.
func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("amfgateway", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var shards shardList
	fs.Var(&shards, "shard", "one shard group's replica URLs, comma-separated (repeatable; at least one required)")
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		probeIvl  = fs.Duration("probe-interval", 500*time.Millisecond, "replica health-probe cadence")
		downAfter = fs.Int("down-after", 3, "consecutive probe failures before a replica is marked down")
		failover  = fs.Bool("failover", false, "promote the most caught-up follower when a group's leader stays down")
		logLevel  = fs.String("log-level", "info", "log level: debug, info, warn, or error")
		logFormat = fs.String("log-format", "text", "log format: text or json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := obs.NewLogger(stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	if len(shards) == 0 {
		return errors.New("at least one -shard group is required")
	}
	// cluster.New would replace a non-positive cadence or count with its
	// default; refuse them instead.
	if *probeIvl <= 0 {
		return fmt.Errorf("-probe-interval must be positive, got %v", *probeIvl)
	}
	if *downAfter <= 0 {
		return fmt.Errorf("-down-after must be positive, got %d", *downAfter)
	}

	gw, err := cluster.New(cluster.Config{
		Groups:        shards,
		ProbeInterval: *probeIvl,
		DownAfter:     *downAfter,
		Failover:      *failover,
		Logger:        logger,
	})
	if err != nil {
		return err
	}
	defer gw.Close()
	gw.Start()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()

	logger.Info("amfgateway starting",
		"version", obs.BuildVersion(), "commit", obs.BuildCommit(),
		"addr", *addr, "groups", len(shards),
		"probe_interval", *probeIvl, "down_after", *downAfter,
		"failover", *failover)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
