package ingest

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// recordingSink captures committed observations and the size of every
// batch they came in.
type recordingSink struct {
	mu      sync.Mutex
	got     []string
	batches []int
	err     error
}

func (r *recordingSink) ObserveBatch(batch []Observation) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.batches = append(r.batches, len(batch))
	if r.err != nil {
		return r.err
	}
	for _, o := range batch {
		r.got = append(r.got, fmt.Sprintf("%s|%s|%g|%d", o.User, o.Service, o.Value, o.TimestampMs))
	}
	return nil
}

func (r *recordingSink) lines() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.got))
	copy(out, r.got)
	return out
}

// startListener spins up a listener on a free port and returns it with a
// cancel function.
func startListener(t *testing.T, sink Sink) (*Listener, context.CancelFunc) {
	t.Helper()
	l, err := Listen("127.0.0.1:0", sink)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := l.Serve(ctx); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Error("listener did not stop")
		}
	})
	return l, cancel
}

func TestListenRejectsNilSink(t *testing.T) {
	if _, err := Listen("127.0.0.1:0", nil); err == nil {
		t.Fatal("nil sink should error")
	}
}

func TestStreamIngestEndToEnd(t *testing.T) {
	sink := &recordingSink{}
	l, _ := startListener(t, sink)

	w, err := Dial(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Send("app-1", "ws-a", 1.5, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Send("app-2", "ws-b", 0.25, 1234); err != nil {
		t.Fatal(err)
	}
	if err := w.Ping(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	got := sink.lines()
	if len(got) != 2 {
		t.Fatalf("sink got %v", got)
	}
	if got[0] != "app-1|ws-a|1.5|0" || got[1] != "app-2|ws-b|0.25|1234" {
		t.Fatalf("sink got %v", got)
	}
	accepted, lines, rejected := l.Stats()
	if accepted != 1 || lines != 2 || rejected != 0 {
		t.Fatalf("stats = %d/%d/%d", accepted, lines, rejected)
	}
}

func TestStreamIngestRejectsMalformedLines(t *testing.T) {
	sink := &recordingSink{}
	l, _ := startListener(t, sink)
	w, err := Dial(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Raw writes bypass the Writer's validation.
	for _, raw := range []string{
		"only two\n",
		"a b notanumber\n",
		"a b -1\n",
		"a b NaN\n",
		"a b 1 notatimestamp\n",
		"a b 1 -5\n",
		"a b 1 2 3\n",
	} {
		if _, err := w.bw.WriteString(raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Send("ok", "fine", 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Ping(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := sink.lines(); len(got) != 1 || got[0] != "ok|fine|2|0" {
		t.Fatalf("sink got %v", got)
	}
	_, lines, rejected := l.Stats()
	if lines != 1 || rejected != 7 {
		t.Fatalf("lines=%d rejected=%d", lines, rejected)
	}
}

// TestStreamIngestSinkErrorsCountAsRejected: a refused batch is refused
// whole, so every line in it counts as rejected.
func TestStreamIngestSinkErrorsCountAsRejected(t *testing.T) {
	sink := &recordingSink{err: errors.New("follower")}
	l, _ := startListener(t, sink)
	w, err := Dial(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 3; i++ {
		if err := w.Send("u", fmt.Sprint("s", i), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Ping(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	sent := 0
	for _, n := range sink.batches {
		sent += n
	}
	sink.mu.Unlock()
	if _, lines, rejected := l.Stats(); lines != 0 || rejected != 3 || sent != 3 {
		t.Fatalf("lines=%d rejected=%d, %d lines reached the sink; want 0, 3, 3", lines, rejected, sent)
	}
}

func TestStreamIngestManyConcurrentWriters(t *testing.T) {
	sink := &recordingSink{}
	l, _ := startListener(t, sink)
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := Dial(l.Addr().String(), time.Second)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer w.Close()
			for j := 0; j < per; j++ {
				if err := w.Send(fmt.Sprintf("u%d", i), fmt.Sprintf("s%d", j), 1, 0); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
			if err := w.Ping(5 * time.Second); err != nil {
				t.Errorf("ping: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if got := len(sink.lines()); got != writers*per {
		t.Fatalf("sink got %d lines, want %d", got, writers*per)
	}
}

func TestWriterValidation(t *testing.T) {
	sink := &recordingSink{}
	l, _ := startListener(t, sink)
	w, err := Dial(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Send("has space", "svc", 1, 0); err == nil {
		t.Error("whitespace in user should error")
	}
	if err := w.Send("u", "has\ttab", 1, 0); err == nil {
		t.Error("whitespace in service should error")
	}
	if err := w.Send("", "svc", 1, 0); err == nil {
		t.Error("empty user should error")
	}
}

func TestListenerCloseStopsServe(t *testing.T) {
	sink := &recordingSink{}
	l, err := Listen("127.0.0.1:0", sink)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- l.Serve(context.Background()) }()
	time.Sleep(20 * time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("serve did not stop after Close")
	}
}

// rawConn dials the listener for tests that write bytes the Writer would
// not: partial lines, oversized runs, PINGs mid-stream.
func rawConn(t *testing.T, l *Listener) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, bufio.NewReader(c)
}

func readPong(t *testing.T, c net.Conn, br *bufio.Reader) {
	t.Helper()
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if line, err := br.ReadString('\n'); err != nil || line != "PONG\n" {
		t.Fatalf("read %q, %v; want PONG", line, err)
	}
}

// TestLinesStraddlingReadsArriveIntact: a read buffer barely longer than a
// line makes most lines straddle a refill, which moves the bytes of the
// line being read; the names the sink gets must be the names sent, once a
// byte at a time and once as one write.
func TestLinesStraddlingReadsArriveIntact(t *testing.T) {
	for _, chunk := range []int{1, 1 << 20} {
		t.Run(fmt.Sprint("chunk=", chunk), func(t *testing.T) {
			sink := &recordingSink{}
			l, err := Listen("127.0.0.1:0", sink)
			if err != nil {
				t.Fatal(err)
			}
			l.MaxLineBytes = 48 // the longest line below is 43 bytes
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- l.Serve(ctx) }()
			defer func() { cancel(); <-done }()

			var stream strings.Builder
			var want []string
			for i := 0; i < 200; i++ {
				u, s := strings.Repeat("u", 1+i%13)+fmt.Sprint(i), fmt.Sprintf("svc-%d-%s", i, strings.Repeat("x", i%7))
				fmt.Fprintf(&stream, "%s %s %d.5 %d\n", u, s, i, 1000+i)
				want = append(want, fmt.Sprintf("%s|%s|%d.5|%d", u, s, i, 1000+i))
			}
			stream.WriteString("PING\n")
			c, br := rawConn(t, l)
			for b := []byte(stream.String()); len(b) > 0; {
				n := min(chunk, len(b))
				if _, err := c.Write(b[:n]); err != nil {
					t.Fatal(err)
				}
				b = b[n:]
			}
			readPong(t, c, br)
			if got := sink.lines(); strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("sink got %d lines, want %d; first difference in %v", len(got), len(want), firstDiff(got, want))
			}
		})
	}
}

func firstDiff(got, want []string) string {
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			return fmt.Sprintf("line %d: %q", i, got[min(i, len(got)-1):])
		}
	}
	return "the tail"
}

// TestBatchesAreBounded: a burst of lines far longer than maxBatch reaches
// the sink whole, in order, and no call carries more than maxBatch lines.
func TestBatchesAreBounded(t *testing.T) {
	sink := &recordingSink{}
	l, err := Listen("127.0.0.1:0", sink)
	if err != nil {
		t.Fatal(err)
	}
	l.MaxLineBytes = 1 << 16 // room for more than maxBatch lines per read
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- l.Serve(ctx) }()
	defer func() { cancel(); <-done }()

	const n = 5 * maxBatch
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "u s%d 1\n", i)
	}
	b.WriteString("PING\n")
	c, br := rawConn(t, l)
	if _, err := c.Write([]byte(b.String())); err != nil {
		t.Fatal(err)
	}
	readPong(t, c, br)
	got := sink.lines()
	if len(got) != n || got[n-1] != fmt.Sprintf("u|s%d|1|0", n-1) {
		t.Fatalf("sink got %d lines, want %d in order", len(got), n)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, size := range sink.batches {
		if size > maxBatch {
			t.Fatalf("a sink call carried %d lines, more than %d (batches %v)", size, maxBatch, sink.batches)
		}
	}
}

// blockingSink holds every batch until release is closed, telling entered
// when it has one.
type blockingSink struct {
	recordingSink
	entered chan struct{}
	release chan struct{}
}

func newBlockingSink() *blockingSink {
	return &blockingSink{entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (b *blockingSink) ObserveBatch(batch []Observation) error {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.release
	return b.recordingSink.ObserveBatch(batch)
}

// TestPongFollowsCommit: a PING commits what came before it, and PONG is
// written only once that commit has returned.
func TestPongFollowsCommit(t *testing.T) {
	sink := newBlockingSink()
	l, _ := startListener(t, sink)
	c, br := rawConn(t, l)
	if _, err := c.Write([]byte("u1 s1 1.5\nPING\n")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sink.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the line before the PING never reached the sink")
	}
	_ = c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if line, err := br.ReadString('\n'); err == nil {
		t.Fatalf("read %q while the batch was still committing", line)
	}
	close(sink.release)
	readPong(t, c, br)
	if got := sink.lines(); len(got) != 1 || got[0] != "u1|s1|1.5|0" {
		t.Fatalf("sink got %v", got)
	}
}

// TestServeWaitsForCommittingBatch: cancelling Serve closes the
// connections, but Serve returns only once a batch that was committing
// has returned — what lets a server's shutdown take its final checkpoint
// after the last stream write.
func TestServeWaitsForCommittingBatch(t *testing.T) {
	sink := newBlockingSink()
	l, err := Listen("127.0.0.1:0", sink)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- l.Serve(ctx) }()
	c, _ := rawConn(t, l)
	if _, err := c.Write([]byte("u1 s1 1.5\n")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sink.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the line never reached the sink")
	}
	cancel()
	select {
	case err := <-done:
		t.Fatalf("Serve returned (%v) while a batch was committing", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(sink.release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return once the batch had committed")
	}
	if got := sink.lines(); len(got) != 1 {
		t.Fatalf("sink got %v", got)
	}
}
