package main

import (
	"context"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/client"
	"github.com/qoslab/amf/internal/server"
)

func TestRunRejectsBadAttr(t *testing.T) {
	if err := run([]string{"-attr", "XX"}, io.Discard); err == nil {
		t.Fatal("bad attribute should error")
	}
}

// TestRunRejectsBadFlag: an unknown flag fails start-up, and so does
// every flag that became a constant — a unit file still carrying one
// must not start a server that silently ignores it.
func TestRunRejectsBadFlag(t *testing.T) {
	for _, name := range []string{
		"definitely-not-a-flag",
		"queue", "publish-interval", "publish-every", "slo-headroom",
		"wal-segment-bytes", "fsync", "fsync-group-window", "fsync-group-bytes", "repl-wait",
	} {
		err := run([]string{"-" + name, "1"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("-%s: err = %v, want a flag-not-defined error", name, err)
		}
	}
}

// runMustRefuse runs the server with args and fails t unless start-up
// fails with an error containing want. run gets a deadline, so a build
// that starts serving fails the test instead of hanging it.
func runMustRefuse(t *testing.T, want string, args ...string) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard)
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v: err = %v, want %q", args, err, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%v: run is serving, want a start-up error", args)
	}
}

// TestRunRejectsNonPositiveDuration: a zero or negative replay tick,
// checkpoint cadence or admission budget fails start-up naming the flag,
// instead of crashing the replay goroutine or being replaced by a
// default.
func TestRunRejectsNonPositiveDuration(t *testing.T) {
	for _, tc := range []struct{ name, value string }{
		{"replay-interval", "0"},
		{"replay-interval", "-1s"},
		{"snapshot-interval", "0"},
		{"snapshot-interval", "-1m"},
		{"slo-budget-standard", "0"},
		{"slo-budget-sheddable", "0"},
		{"slo-budget-sheddable", "-250ms"},
	} {
		runMustRefuse(t, "-"+tc.name+" must be positive", "-slo-admission", "-data-dir", t.TempDir(), "-"+tc.name, tc.value)
	}
}

// TestRunRejectsNegativeReplayBatch: a negative replay batch fails
// start-up instead of quietly turning replay off, as -replay-batch 0 does
// on purpose.
func TestRunRejectsNegativeReplayBatch(t *testing.T) {
	runMustRefuse(t, "-replay-batch must not be negative", "-replay-batch", "-1")
}

// TestRunRejectsFollowerWithoutLeaderData: a follower reads its
// leader's checkpoints and log from the leader's directory, so
// -role follower without -leader-data fails start-up naming the flag,
// and so does a -leader-data that holds no log.
func TestRunRejectsFollowerWithoutLeaderData(t *testing.T) {
	runMustRefuse(t, "-leader-data", "-role", "follower", "-leader", "http://127.0.0.1:1")
	runMustRefuse(t, "not a durable directory", "-role", "follower", "-leader", "http://127.0.0.1:1", "-leader-data", t.TempDir())
}

// syncBuffer collects run's log output; the logger and the test's
// failure paths may touch it from different goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// serve starts run with -data-dir on dir and returns a client once the
// server answers. Background replay is parked (1h tick) so the model
// changes only when the test observes. stop takes run's own shutdown
// path — SIGTERM to this process, which run's signal context catches —
// and returns its log.
func serve(t *testing.T, dir string) (c *client.Client, stop func() string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var logs syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-data-dir", dir, "-replay-interval", "1h"}, &logs)
	}()
	c = client.New("http://"+addr, nil)
	for deadline := time.Now().Add(10 * time.Second); c.Health(context.Background()) != nil; {
		select {
		case err := <-done:
			t.Fatalf("run exited before serving: %v\n%s", err, logs.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server on %s not healthy within 10s\n%s", addr, logs.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	return c, func() string {
		t.Helper()
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run: %v\n%s", err, logs.String())
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("run did not return after SIGTERM\n%s", logs.String())
		}
		return logs.String()
	}
}

// TestRestartThroughDataDir drives main.go's own wiring of the one
// persistence path: observe, stop gracefully, start again on the same
// directory, and the model, the name directories and the update count
// are all still there — restored from the final checkpoint, with nothing
// left to replay — and the restarted server keeps learning.
func TestRestartThroughDataDir(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	obs := []server.Observation{
		{User: "u1", Service: "s1", Value: 1.4},
		{User: "u1", Service: "s2", Value: 0.7},
		{User: "u2", Service: "s1", Value: 0.4},
	}

	c, stop := serve(t, dir)
	if _, err := c.Observe(ctx, obs); err != nil {
		t.Fatal(err)
	}
	before, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Predict(ctx, "u1", "s2")
	if err != nil {
		t.Fatal(err)
	}
	if log := stop(); !strings.Contains(log, "final checkpoint written") {
		t.Fatalf("graceful stop logged no final checkpoint:\n%s", log)
	}

	c, stop = serve(t, dir)
	after, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Users != 2 || after.Services != 2 || after.Updates != before.Updates {
		t.Fatalf("stats after restart = %+v, want 2 users, 2 services, %d updates", after, before.Updates)
	}
	if got, err := c.Predict(ctx, "u1", "s2"); err != nil || got != want {
		t.Fatalf("predict (u1, s2) after restart = %g, %v; want %g", got, err, want)
	}
	if _, err := c.Observe(ctx, obs[:1]); err != nil {
		t.Fatal(err)
	}
	if again, err := c.Stats(ctx); err != nil || again.Updates <= after.Updates {
		t.Fatalf("updates did not advance after restart: %+v, %v (was %d)", again, err, after.Updates)
	}
	if log := stop(); !strings.Contains(log, "recovered_samples=0") {
		t.Fatalf("restart after a graceful stop replayed WAL samples:\n%s", log)
	}
}
