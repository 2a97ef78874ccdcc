package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/qoslab/amf/internal/cluster"
	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/engine"
	"github.com/qoslab/amf/internal/server"
	"github.com/qoslab/amf/internal/store"
)

// The flag defaults of cmd/amfserver and cmd/amfgateway that stack S is
// assembled with; everything not listed is left at the package default,
// as the binaries leave it.
const (
	replayInterval   = 100 * time.Millisecond // amfserver -replay-interval
	replayBatch      = 500                    // amfserver -replay-batch
	snapshotInterval = time.Minute            // amfserver -snapshot-interval
	probeInterval    = 500 * time.Millisecond // amfgateway -probe-interval
	gatewayVNodes    = 128                    // amfgateway -vnodes
	gatewayDownAfter = 3                      // amfgateway -down-after
	gatewayFanout    = 256                    // amfgateway -fanout-threshold
	leaderURL        = "http://leader"
)

var quiet = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 4}))

// recorder is the http.ResponseWriter both hops write into: the client's
// (reused across ops, one op in flight) and the in-process transport's
// (one per backend round trip).
type recorder struct {
	hdr  http.Header
	buf  bytes.Buffer
	code int
}

func newRecorder() *recorder { return &recorder{hdr: make(http.Header, 4)} }

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.buf.Write(b)
}

func (r *recorder) reset() {
	clear(r.hdr)
	r.buf.Reset()
	r.code = 0
}

// inproc is the gateway's backend transport: a round trip is a direct
// call into the server's handler. around, when set, wraps that call (the
// traced run records the server span there).
type inproc struct {
	h      http.Handler
	around func(req *http.Request, call func())
}

func (t *inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := newRecorder()
	if t.around != nil {
		t.around(req, func() { t.h.ServeHTTP(rec, req) })
	} else {
		t.h.ServeHTTP(rec, req)
	}
	if rec.code == 0 {
		rec.code = http.StatusOK
	}
	resp := &http.Response{
		StatusCode: rec.code, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: rec.hdr, Body: io.NopCloser(bytes.NewReader(rec.buf.Bytes())),
		ContentLength: int64(rec.buf.Len()), Request: req,
	}
	if rec.code != http.StatusOK {
		resp.Status = strconv.Itoa(rec.code) + " " + http.StatusText(rec.code)
	}
	return resp, nil
}

// stack is system S: what `amfgateway -shard <leader>` in front of
// `amfserver -data-dir <dir> -fsync group` runs, assembled in one process
// from the same public constructors, with every other flag at its default.
type stack struct {
	dir    string
	mgr    *store.Manager
	svc    *server.Server
	gw     *cluster.Gateway
	rs     store.RecoveryStats
	cancel context.CancelFunc
	replay sync.WaitGroup
	closed bool
}

// stackOptions are the seams the traced run hooks; the timed run sets none.
type stackOptions struct {
	around  func(req *http.Request, call func()) // server span
	journal func(w *store.WAL) engine.Journal    // journal decorator
}

func newStack(dir string, opt stackOptions) (*stack, error) {
	attr := dataset.ResponseTime
	cfg := core.DefaultConfig(attr.DefaultAlpha(), rtMin, rtMax)
	model, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir}
	s.svc = server.NewWithEngine(engine.New(model, engine.Config{}), server.WithLogger(quiet))
	s.mgr, err = store.Open(dir, store.Options{
		Sync: store.SyncGroup, CheckpointInterval: snapshotInterval, Logger: quiet,
	})
	if err != nil {
		s.svc.Close()
		return nil, err
	}
	if s.rs, err = s.svc.AttachDurable(s.mgr); err != nil {
		s.svc.Close()
		s.mgr.Close()
		return nil, fmt.Errorf("recover %s: %w", dir, err)
	}
	if opt.journal != nil {
		s.svc.Engine().SetJournal(opt.journal(s.mgr.WAL()))
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.replay.Add(1)
	go func() {
		defer s.replay.Done()
		s.svc.RunReplay(ctx, replayInterval, replayBatch)
	}()

	s.gw, err = cluster.New(cluster.Config{
		Groups: [][]string{{leaderURL}}, VNodes: gatewayVNodes, ProbeInterval: probeInterval,
		DownAfter: gatewayDownAfter, FanOutThreshold: gatewayFanout, Logger: quiet,
		HTTP: &http.Client{Transport: &inproc{h: s.svc.Handler(), around: opt.around}},
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.gw.Start()
	return s, nil
}

// stopReplay ends the background replay loop, so the published view stops
// moving (the cross-checks compare two responses from one view).
func (s *stack) stopReplay() {
	s.cancel()
	s.replay.Wait()
}

// close shuts S down the way a kill would leave it: no final checkpoint,
// so a reopen has to recover every acked sample from the WAL.
func (s *stack) close() {
	if s.closed {
		return
	}
	s.closed = true
	s.stopReplay()
	if s.gw != nil {
		s.gw.Close()
	}
	s.svc.Close()
	s.mgr.Close()
}

// dataRoot picks where data directories go: tmpfs when there is one, so
// write and fsync are executed but the neighbours' disk is not measured.
func dataRoot() string {
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		if f, err := os.CreateTemp("/dev/shm", "amf-bench-probe-*"); err == nil {
			f.Close()
			os.Remove(f.Name())
			return "/dev/shm"
		}
	}
	return outDir
}

// outDir holds everything the benchmark leaves behind (span dumps,
// self-check archives) and, without tmpfs, its data directories. It is
// relative to the working directory, which `go -C bench run .` makes bench/.
const outDir = "out"

// fsType names the filesystem behind path, for the provenance header.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

// dataDirs tracks the live data directories so every way out of the
// process — return, failure, signal — removes them.
type dataDirs struct {
	mu   sync.Mutex
	dirs map[string]struct{}
}

var live = dataDirs{dirs: map[string]struct{}{}}

func (d *dataDirs) add(dir string) {
	d.mu.Lock()
	d.dirs[dir] = struct{}{}
	d.mu.Unlock()
}

func (d *dataDirs) remove(dir string) {
	os.RemoveAll(dir)
	d.mu.Lock()
	delete(d.dirs, dir)
	d.mu.Unlock()
}

func (d *dataDirs) removeAll() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for dir := range d.dirs {
		os.RemoveAll(dir)
	}
	d.dirs = map[string]struct{}{}
}

// scratchDir makes a tracked data directory under root.
func scratchDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(root, "amf-bench-data-*")
	if err != nil {
		return "", err
	}
	live.add(dir)
	return dir, nil
}
