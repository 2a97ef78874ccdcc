package main

import (
	"io"
	"strings"
	"testing"
	"time"
)

// TestRunRejectsBadFlag: -vnodes became a constant (every gateway of a
// cluster must hash alike), -fanout-threshold went with rank/batch
// fan-out, and -slo-edge-shed and -slo-shed-threshold with the edge
// shed; a command line still carrying any of them is an error, as any
// unknown flag is.
func TestRunRejectsBadFlag(t *testing.T) {
	for _, name := range []string{"definitely-not-a-flag", "vnodes", "fanout-threshold", "slo-edge-shed", "slo-shed-threshold"} {
		err := run([]string{"-shard", "http://127.0.0.1:1", "-" + name, "1"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("-%s: err = %v, want a flag-not-defined error", name, err)
		}
	}
}

// runMustRefuse runs the gateway with args and fails t unless start-up
// fails with an error containing want. run gets a deadline, so a build
// that starts serving fails the test instead of hanging it.
func runMustRefuse(t *testing.T, want string, args ...string) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{"-addr", "127.0.0.1:0", "-shard", "http://127.0.0.1:1"}, args...), io.Discard)
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

// TestRunRejectsOutOfRangeFlags: a non-positive probe cadence or failure
// count fails start-up naming the flag instead of being replaced by a
// default.
func TestRunRejectsOutOfRangeFlags(t *testing.T) {
	for _, tc := range []struct{ name, value, want string }{
		{"probe-interval", "0", "must be positive"},
		{"probe-interval", "-1s", "must be positive"},
		{"down-after", "0", "must be positive"},
		{"down-after", "-2", "must be positive"},
	} {
		runMustRefuse(t, "-"+tc.name+" "+tc.want, "-"+tc.name, tc.value)
	}
}
