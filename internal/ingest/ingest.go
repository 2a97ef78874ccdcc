// Package ingest implements the stream-input side of the paper's QoS
// prediction service (Fig. 3, "Input Handling: the observed QoS data are
// collected and processed as formatted stream data"): a line-oriented TCP
// listener that execution middlewares write observations to, far cheaper
// per sample than HTTP for high-frequency monitoring feeds.
//
// Wire format, one observation per line:
//
//	<user> <service> <value> [timestampMs]
//
// e.g. "app-7 ws-weather 1.42 1718000000000". Responses are not sent per
// line; a client can send "PING\n" and read "PONG\n" to checkpoint: the
// PONG is written only once every line sent before the PING has been
// committed by the Sink — for the prediction server, the same commit an
// HTTP observe acks.
//
// A connection's lines reach the Sink in batches of at most maxBatch, cut
// wherever reading on would block (or at a PING, or at the end of the
// stream). While a batch commits the connection is not read, so a client
// that writes faster than the Sink commits is held back by TCP flow
// control; nothing is queued or dropped.
package ingest

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// maxBatch bounds the lines one Sink call carries.
const maxBatch = 256

// Observation is one parsed line. Its names are views: valid until the
// Sink call that carries them returns.
type Observation struct {
	User        []byte
	Service     []byte
	Value       float64
	TimestampMs int64 // 0: stamped on arrival
}

// Sink commits parsed observations; the prediction server implements it.
type Sink interface {
	// ObserveBatch commits one batch, in order, and returns once it is
	// committed. An error refuses the whole batch.
	ObserveBatch(batch []Observation) error
}

// Listener accepts TCP connections and feeds their observation lines to a
// Sink. Construct with Listen, stop with Close or by cancelling the
// context passed to Serve.
type Listener struct {
	ln   net.Listener
	sink Sink

	// MaxLineBytes bounds a single line (default 4096).
	MaxLineBytes int
	// IdleTimeout disconnects silent clients (default 5 minutes).
	IdleTimeout time.Duration

	accepted atomic.Int64
	lines    atomic.Int64
	rejected atomic.Int64

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// Listen binds a TCP address ("127.0.0.1:0" picks a free port).
func Listen(addr string, sink Sink) (*Listener, error) {
	if sink == nil {
		return nil, errors.New("ingest: nil sink")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ingest: listen: %w", err)
	}
	return &Listener{
		ln:           ln,
		sink:         sink,
		MaxLineBytes: 4096,
		IdleTimeout:  5 * time.Minute,
		conns:        make(map[net.Conn]struct{}),
	}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() net.Addr { return l.ln.Addr() }

// Stats returns (connections accepted, lines ingested, lines rejected).
func (l *Listener) Stats() (accepted, lines, rejected int64) {
	return l.accepted.Load(), l.lines.Load(), l.rejected.Load()
}

// Serve accepts connections until ctx is cancelled or the listener is
// closed. Each connection is handled on its own goroutine. Serve returns
// once the accept loop has stopped and every connection's handler has
// returned: a batch being committed when the connections are closed is
// committed first, so a caller that waits for Serve knows no Sink call is
// running or will start.
func (l *Listener) Serve(ctx context.Context) error {
	var wg sync.WaitGroup
	done := make(chan struct{})
	defer func() {
		close(done)
		wg.Wait()
	}()
	go func() {
		select {
		case <-ctx.Done():
			l.ln.Close()
			l.closeConns()
		case <-done:
		}
	}()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("ingest: accept: %w", err)
		}
		l.accepted.Add(1)
		l.track(conn, true)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer l.track(conn, false)
			defer conn.Close()
			l.handle(conn)
		}()
	}
}

func (l *Listener) track(c net.Conn, add bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if add {
		l.conns[c] = struct{}{}
	} else {
		delete(l.conns, c)
	}
}

func (l *Listener) closeConns() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for c := range l.conns {
		c.Close()
	}
}

// Close stops accepting and disconnects all clients.
func (l *Listener) Close() error {
	err := l.ln.Close()
	l.closeConns()
	return err
}

func (l *Listener) handle(conn net.Conn) {
	br := bufio.NewReaderSize(conn, l.MaxLineBytes)
	var (
		batch []Observation
		arena []byte // the batch's names: ReadSlice's bytes last only until the next read
		f     [5][]byte
	)
	commit := func() {
		if len(batch) == 0 {
			return
		}
		if err := l.sink.ObserveBatch(batch); err != nil {
			l.rejected.Add(int64(len(batch)))
		} else {
			l.lines.Add(int64(len(batch)))
		}
		batch, arena = batch[:0], arena[:0]
	}
	for {
		if !lineBuffered(br) {
			// The next read may block: commit what has been read first.
			commit()
			if l.IdleTimeout > 0 {
				_ = conn.SetReadDeadline(time.Now().Add(l.IdleTimeout))
			}
		}
		line, err := br.ReadSlice('\n')
		if err != nil && !(errors.Is(err, io.EOF) && len(line) > 0) {
			if errors.Is(err, bufio.ErrBufferFull) {
				l.rejected.Add(1) // a line longer than MaxLineBytes ends the connection
			}
			return
		}
		switch n := fields(line, &f); {
		case n == 0:
			continue
		case n == 1 && string(f[0]) == "PING":
			commit()
			if _, err := conn.Write(pong); err != nil {
				return
			}
			continue
		case n < 3 || n > 4:
			l.rejected.Add(1)
			continue
		default:
			o, ok := parse(f[:n])
			if !ok {
				l.rejected.Add(1)
				continue
			}
			u := len(arena)
			arena = append(arena, f[0]...)
			s := len(arena)
			arena = append(arena, f[1]...)
			// Views into the arena as it is now: an append that outgrows it
			// copies to a new array and leaves these bytes where they are.
			o.User, o.Service = arena[u:s:s], arena[s:len(arena):len(arena)]
			if batch = append(batch, o); len(batch) == maxBatch {
				commit()
			}
		}
	}
}

var pong = []byte("PONG\n")

// lineBuffered reports whether a whole line is waiting in br, so that
// reading it will not block.
func lineBuffered(br *bufio.Reader) bool {
	b, _ := br.Peek(br.Buffered())
	return bytes.IndexByte(b, '\n') >= 0
}

// fields splits line at runs of ASCII whitespace into f and returns how
// many fields it holds, counting past len(f) so that a surplus shows.
func fields(line []byte, f *[5][]byte) int {
	n := 0
	for i := 0; i < len(line); {
		if isSpace(line[i]) {
			i++
			continue
		}
		j := i
		for j < len(line) && !isSpace(line[j]) {
			j++
		}
		if n < len(f) {
			f[n] = line[i:j]
		}
		n++
		i = j
	}
	return n
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f'
}

// parse reads "<user> <service> <value> [timestampMs]" from a line's
// fields, holding the value to what the model accepts: finite and
// non-negative. The names are left for the caller to copy.
func parse(f [][]byte) (Observation, bool) {
	value, err := parseFloat(f[2])
	if err != nil || value < 0 || math.IsNaN(value) || math.IsInf(value, 0) {
		return Observation{}, false
	}
	var ts int64
	if len(f) == 4 {
		if ts, err = strconv.ParseInt(string(f[3]), 10, 64); err != nil || ts < 0 {
			return Observation{}, false
		}
	}
	return Observation{Value: value, TimestampMs: ts}, true
}
