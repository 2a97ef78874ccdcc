package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/ingest"
)

// observeStream commits one observation through the TCP door's sink, as
// the listener hands it a one-line batch.
func observeStream(s *Server, user, service string, v float64) error {
	return s.ObserveBatch([]ingest.Observation{{User: []byte(user), Service: []byte(service), Value: v}})
}

// serveStream starts a stream-ingest listener on s over real loopback and
// returns its address; the listener stops when the test ends.
func serveStream(t testing.TB, s *Server) string {
	t.Helper()
	l, err := ingest.Listen("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- l.Serve(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return l.Addr().String()
}

// TestStreamTrainsDeterministically: the model a stream trains does not
// depend on how reads split it. Two servers on one seed and one clock get
// the same timestamped lines — one as a single write, the other a byte at
// a time with a PING after every seventh line, which cuts its batches at
// other places — and must serve byte-identical snapshots.
func TestStreamTrainsDeterministically(t *testing.T) {
	var lines []string
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 300; i++ {
		lines = append(lines, fmt.Sprintf("app-%d ws-%d %g %d\n",
			i%6, (i*7)%40, 0.25+float64(i%9)/3, epoch.Add(time.Duration(i)*10*time.Millisecond).UnixMilli()))
	}
	run := func(chunked bool) []byte {
		t.Helper()
		cfg := core.DefaultConfig(-0.007, 0, 20)
		cfg.Expiry = 0
		cfg.Seed = 11
		s := NewWithClock(core.MustNew(cfg), func() time.Time { return epoch })
		defer s.Close()
		c, err := net.Dial("tcp", serveStream(t, s))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		br := bufio.NewReader(c)
		pong := func() {
			t.Helper()
			_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if line, err := br.ReadString('\n'); err != nil || line != "PONG\n" {
				t.Fatalf("read %q, %v; want PONG", line, err)
			}
		}
		if !chunked {
			if _, err := c.Write([]byte(strings.Join(lines, "") + "PING\n")); err != nil {
				t.Fatal(err)
			}
			pong()
		} else {
			for i, line := range lines {
				for j := range len(line) {
					if _, err := c.Write([]byte{line[j]}); err != nil {
						t.Fatal(err)
					}
				}
				if i%7 == 6 || i == len(lines)-1 {
					if _, err := c.Write([]byte("PING\n")); err != nil {
						t.Fatal(err)
					}
					pong()
				}
			}
		}
		snap, err := s.Engine().View().Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Engine().Stats().Applied; got != int64(len(lines)) {
			t.Fatalf("applied %d of %d lines", got, len(lines))
		}
		return snap
	}
	whole, chunked := run(false), run(true)
	if !bytes.Equal(whole, chunked) {
		t.Fatal("the same stream, split differently, trained different models")
	}
}
