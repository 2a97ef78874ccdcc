package main

import (
	"io"
	"strings"
	"testing"
)

// TestRunRejectsBadFlag: -vnodes became a constant (every gateway of a
// cluster must hash alike) and -fanout-threshold went with rank/batch
// fan-out; a command line still carrying either is an error, as any
// unknown flag is.
func TestRunRejectsBadFlag(t *testing.T) {
	for _, name := range []string{"definitely-not-a-flag", "vnodes", "fanout-threshold"} {
		err := run([]string{"-shard", "http://127.0.0.1:1", "-" + name, "1"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("-%s: err = %v, want a flag-not-defined error", name, err)
		}
	}
}
