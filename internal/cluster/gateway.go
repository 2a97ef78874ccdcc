package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/qoslab/amf/internal/ingest"
	"github.com/qoslab/amf/internal/obs"
	"github.com/qoslab/amf/internal/obs/trace"
	"github.com/qoslab/amf/internal/server"
)

// Config tunes a Gateway.
type Config struct {
	// Groups lists the shard groups: each inner slice is the replica
	// base URLs of one group (leader + followers over one WAL lineage).
	// Users are consistent-hashed across groups; within a group, writes
	// go to the leader and reads spread across replicas.
	Groups [][]string
	// VNodes is the ring's virtual-node count per group (default 128).
	// amfgateway has no flag for it: two gateways of one cluster with
	// different values would route the same user to different groups,
	// so the value must be equal cluster-wide and ships as the default.
	// The field is how tests and bench/ build their rings.
	VNodes int
	// ProbeInterval is the health-probe cadence (default 500ms). One
	// probe request is bounded by min(ProbeInterval, 1s).
	ProbeInterval time.Duration
	// Failover enables automatic leader promotion: when a group's leader
	// stays unreachable for DownAfter consecutive probe rounds, a
	// reachable follower that reports itself promotable is promoted and
	// the survivors re-pointed at it. A group with none stays leaderless.
	Failover bool
	// DownAfter is how many consecutive probe failures mark a replica
	// Down (default 3; the first failure marks it Suspect).
	DownAfter int
	// FanOutThreshold is ignored: a rank or batch-predict request goes to
	// one replica whatever its candidate count, because splitting it
	// measured slower than the single hop (DESIGN.md "Cluster &
	// replication"). The field stays only because bench/ still sets it.
	FanOutThreshold int
	// Logger receives lifecycle and failover events (default slog.Default()).
	Logger *slog.Logger
	// HTTP is the client of every backend call — proxied requests, the
	// multi-group observe's buckets, failover control calls, health probes
	// and federation scrapes; nil builds one with a connection pool sized
	// for concurrent proxying. Every call goes to its Transport directly,
	// bounded by its Timeout when that is non-zero: a backend's redirect
	// is relayed, never followed.
	HTTP *http.Client
}

// replica is one amfserver the gateway proxies to.
type replica struct {
	url  string
	base url.URL // url, parsed
	// The hot routes' backend URLs, parsed once: an outgoing request is
	// built around one of these instead of re-parsing url per request.
	observeURL, predictURL, rankURL *url.URL
	span                            string // name of a backend round trip's child span

	fails      atomic.Int32 // consecutive probe failures
	health     atomic.Int32 // Health
	role       atomic.Int32 // 1 = leader (as of the last probe)
	appliedSeq atomic.Uint64
	walSeq     atomic.Uint64
	epoch      atomic.Uint64 // durable directory claim epoch (0 = non-durable)
	fenced     atomic.Bool   // lost its directory claim
	promotable atomic.Bool   // follower that can recover its leader's log
	lagSecs    atomic.Uint64 // follower time-lag, Float64bits (federation gauge)
}

func (rep *replica) Health() Health { return Health(rep.health.Load()) }

func newReplica(base string) (*replica, error) {
	rep := &replica{url: strings.TrimRight(base, "/")}
	u, err := url.Parse(rep.url)
	if err != nil {
		return nil, fmt.Errorf("replica URL: %w", err)
	}
	rep.base = *u
	rep.observeURL = rep.at("/api/v1/observe")
	rep.predictURL = rep.at("/api/v1/predict")
	rep.rankURL = rep.at("/api/v1/rank")
	rep.span = "backend " + u.Host
	return rep, nil
}

// at returns the URL of the replica's route path: its base URL with path
// appended, as url.Parse(rep.url + path) would read it.
func (rep *replica) at(path string) *url.URL {
	u := rep.base
	u.Path += path
	if u.RawPath != "" {
		u.RawPath += path
	}
	return &u
}

// group is one user shard: a set of replicas over one WAL lineage.
type group struct {
	name     string
	replicas []*replica
	leader   atomic.Pointer[replica]
	rr       atomic.Uint64 // read round-robin cursor
	noLeader int           // consecutive probe rounds without a reachable leader
}

// Gateway routes the prediction API across a user-sharded cluster. It
// is an http.Handler; construct with New, serve, Close on shutdown.
type Gateway struct {
	cfg    Config
	ring   *Ring
	groups []*group
	byName map[string]*group
	mux    server.Mux
	http   *http.Client
	log    *slog.Logger

	reg          *obs.Registry
	proxySeconds *obs.HistogramVec
	proxyErrors  *obs.Counter
	failovers    *obs.Counter
	demotions    *obs.Counter
	probeErrors  *obs.Counter
	probeLatency *obs.Histogram
	scrapeErrors *obs.Counter

	// traces records the gateway's half of every proxied request: the
	// root span minted in timed() plus one child per backend round trip.
	traces *trace.Recorder

	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds a gateway over the configured shard groups and runs one
// synchronous probe round so routing starts with live leader/health
// knowledge. Call Start to launch the background probe loop.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Groups) == 0 {
		return nil, errors.New("cluster: no shard groups configured")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 3
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	g := &Gateway{
		cfg:    cfg,
		ring:   NewRing(cfg.VNodes),
		byName: make(map[string]*group),
		http:   cfg.HTTP,
		log:    cfg.Logger,
		traces: trace.NewRecorder(trace.Config{}),
		stop:   make(chan struct{}),
	}
	if g.http == nil {
		// The default transport keeps only 2 idle conns per host — a
		// proxy fanning every request through the same few backends
		// would reconnect constantly. Compression is pointless on the
		// backend leg (same-datacenter hops, and gzip would burn far
		// more than it saves at this latency floor).
		g.http = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
			DisableCompression:  true,
		}}
	}
	for i, urls := range cfg.Groups {
		if len(urls) == 0 {
			return nil, fmt.Errorf("cluster: shard group %d has no replicas", i)
		}
		grp := &group{name: fmt.Sprintf("shard-%d", i)}
		for _, u := range urls {
			rep, err := newReplica(u)
			if err != nil {
				return nil, fmt.Errorf("cluster: shard group %d: %w", i, err)
			}
			grp.replicas = append(grp.replicas, rep)
		}
		g.ring.Add(grp.name)
		g.groups = append(g.groups, grp)
		g.byName[grp.name] = grp
	}
	g.buildMetrics()
	g.routes()
	g.probeAll() // seed health + leadership before the first request
	return g, nil
}

// Start launches the background probe (and failover) loop.
func (g *Gateway) Start() {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		ticker := time.NewTicker(g.cfg.ProbeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-ticker.C:
				g.probeAll()
			}
		}
	}()
}

// Close stops the probe loop.
func (g *Gateway) Close() {
	select {
	case <-g.stop:
	default:
		close(g.stop)
	}
	g.wg.Wait()
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return &g.mux }

func (g *Gateway) buildMetrics() {
	r := obs.NewRegistry()
	g.reg = r
	obs.RegisterBuildInfo(r)
	g.proxySeconds = r.NewHistogramVec("amf_cluster_proxy_seconds",
		"End-to-end gateway latency (routing + backend round trips), by route.", "route", 1e-6, 60, 8)
	for _, route := range []string{"observe", "predict", "batch", "rank"} {
		g.proxySeconds.With(route)
	}
	g.proxyErrors = r.NewCounter("amf_cluster_proxy_errors_total",
		"Backend requests that failed (connection errors or non-2xx).")
	g.failovers = r.NewCounter("amf_cluster_failovers_total",
		"Leader promotions driven by the gateway.")
	g.demotions = r.NewCounter("amf_cluster_demotions_total",
		"Stale leaders demoted by the gateway (ex-leaders that recovered after a failover).")
	g.probeErrors = r.NewCounter("amf_cluster_probe_errors_total",
		"Health probes that failed.")
	g.probeLatency = obs.NewHistogram(1e-6, 60, 8)
	r.RegisterHistogram("amf_cluster_probe_latency_seconds",
		"Health-probe round-trip latency (tunes failover sensitivity: DownAfter x ProbeInterval should clear the tail).",
		g.probeLatency)
	g.scrapeErrors = r.NewCounter("amf_cluster_scrape_errors_total",
		"Replica /metrics scrapes that failed during federation.")
	r.GaugeFunc("amf_cluster_replicas_down", "Replicas currently marked down.",
		func() float64 {
			n := 0
			for _, grp := range g.groups {
				for _, rep := range grp.replicas {
					if rep.Health() == Down {
						n++
					}
				}
			}
			return float64(n)
		})
}

// routes registers the gateway's routes on the router the server uses
// too (server.Mux): each one is a literal route, found by exact match.
func (g *Gateway) routes() {
	g.mux.HandleFunc("GET /healthz", g.handleHealth)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	g.mux.HandleFunc("GET /api/v1/cluster/status", g.handleStatus)
	g.mux.HandleFunc("GET /api/v1/cluster/metrics", g.handleClusterMetrics)
	g.mux.Handle("GET /debug/traces", g.traces)
	g.mux.HandleFunc("POST /api/v1/observe", g.timed("observe", g.handleObserve))
	g.mux.HandleFunc("GET /api/v1/predict", g.timed("predict", g.handlePredict))
	g.mux.HandleFunc("POST /api/v1/predict", g.timed("batch", g.handleCandidates(false)))
	g.mux.HandleFunc("POST /api/v1/rank", g.timed("rank", g.handleCandidates(true)))
}

// requestIDHeader mirrors the server's spelling (canonical MIME form, so
// direct header-map assignment skips canonicalization).
const requestIDHeader = "X-Request-Id"

// call is what the gateway knows about one proxied request beyond the
// request itself: the root span of its trace, the X-Amf-Trace value that
// names it to backends, and its SLO class (parsed once from
// X-Amf-Slo-Class). timed() builds it on its stack and passes it down as
// an argument — to the route handler and from there to forward and
// send — so no leg re-parses a header and the request is never copied
// to carry it.
type call struct {
	span  *trace.Span
	trace []string // X-Amf-Trace header value; nil on an untraced call
	class server.Class
}

// controlCall is the call of a request the gateway makes on its own
// (failover and demotion control calls, probes, scrapes): untraced,
// standard class.
var controlCall = call{class: server.Standard}

// proxyHandler is a proxied route behind timed().
type proxyHandler func(w http.ResponseWriter, r *http.Request, c call)

// timed wraps a proxied route with the gateway's per-route metrics and
// mints the root span of a new trace: every proxied request gets a fresh
// 128-bit trace ID, echoed to the client as X-Request-Id and propagated
// to backends via X-Amf-Trace (see stamp), so one identifier names the
// request at the client, the gateway, and every shard it touched. The
// header value is rendered once; X-Request-Id is its trace-ID prefix. The
// proxy latency runs from the root span's start stamp, so the clock is
// read once to start both.
func (g *Gateway) timed(route string, h proxyHandler) http.HandlerFunc {
	hist := g.proxySeconds.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		sp := g.traces.Start(trace.NewID(), 0, route)
		start := sp.Start
		hv := trace.HeaderValue(sp.Trace, sp.ID)
		// One backing array for both headers; each slice is capped at its
		// own element, so an append to either cannot reach the other.
		ids := []string{hv[:32], hv}
		w.Header()[requestIDHeader] = ids[:1:1]
		h(w, r, call{span: sp, trace: ids[1:], class: server.ClassFromHeader(r.Header)})
		d := time.Since(start)
		hist.Observe(d.Seconds())
		sp.Finish(d)
	}
}

// classValues holds each class's header value ready-made; header values
// are read, never written, once set, so every request shares them.
var classValues = func() (v [server.NumClasses][]string) {
	for _, c := range server.Classes() {
		v[c] = []string{c.String()}
	}
	return v
}()

var jsonContentType = []string{"application/json"}

// stamp propagates the call onto an outgoing backend request: the
// backend adopts the trace ID and records its own spans under it, and a
// backend running its own admission gate applies the class the client
// declared. Header-map assignments and nothing else, so the raw
// pass-through path stays raw. An untraced call stamps no trace.
func stamp(req *http.Request, c call) {
	if c.trace != nil {
		req.Header[trace.Header] = c.trace
	}
	req.Header[server.ClassHeader] = classValues[c.class]
}

// cancelBody ends a timed backend call's context when its body is closed.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

func (g *Gateway) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (g *Gateway) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	g.writeJSON(w, status, server.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// unavailable writes the gateway's 503 for a request with nowhere to
// go: no routable shard group, or a write to a group with no live
// leader. Retry-After is part of the shed/unavailable contract: one
// probe interval is when routing state can next change.
func (g *Gateway) unavailable(w http.ResponseWriter, why string) {
	w.Header().Set("Retry-After", server.RetryAfter(g.cfg.ProbeInterval))
	g.writeError(w, http.StatusServiceUnavailable, "%s", why)
}

// groupFor routes a user key through the ring.
func (g *Gateway) groupFor(user string) *group { return g.groupAt(hash64(user)) }

// groupAt returns the group owning a key hash (hash64 of a user name,
// held as a string or as a view of a request body).
func (g *Gateway) groupAt(h uint64) *group {
	m := g.ring.lookup(h)
	if m == nil {
		return nil
	}
	return g.byName[m.Name()]
}

// writeTarget returns where a group's writes go, as of the last probe:
// the leader, or any live replica claiming leadership; nil while the
// group has no live leader, which the gateway answers with its own 503.
func (grp *group) writeTarget() *replica {
	live := func(rep *replica) bool { return rep.role.Load() == 1 && rep.Health() != Down }
	if lead := grp.leader.Load(); lead != nil && live(lead) {
		return lead
	}
	for _, rep := range grp.replicas {
		if live(rep) {
			return rep
		}
	}
	return nil
}

// readTarget returns the next read replica: round-robin across replicas
// that are not Down (followers and leader alike — every replica holds
// the full group state).
func (grp *group) readTarget() *replica {
	n := len(grp.replicas)
	start := int(grp.rr.Add(1))
	for i := 0; i < n; i++ {
		rep := grp.replicas[(start+i)%n]
		if rep.Health() != Down {
			return rep
		}
	}
	return grp.replicas[start%n]
}

// reqBody is the body of a request the gateway sends a backend — a
// proxied request's, a split observe's bucket, a control call's — in a
// pooled buffer. The buffer goes back to the pool only once nothing can
// read it: its holder has released it, and every reader of it handed to
// a transport has been closed or has read to its end. The readers are
// what make reuse safe, not the response: a transport may still be
// writing a body after its response has arrived and been closed (the
// backend answered before reading it — a shed 429, a follower's 503 —
// and net/http gives the write up to 50 ms more before dropping the
// connection), and one whose RoundTrip failed may keep reading a body it
// was handed until it closes it, which the http.RoundTripper contract
// lets it do on another goroutine. A reader never closed is left to the
// collector, and its buffer with it.
type reqBody struct {
	buf  []byte
	refs atomic.Int32 // the holder's, and one per reader not yet done
	// getBody is b.reader, bound once per pooled body: a transport that
	// retries on a fresh connection takes a second reader through it.
	getBody func() (io.ReadCloser, error)
}

// maxPooledBody is the largest body buffer the pool keeps.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any {
	b := new(reqBody)
	b.getBody = b.reader
	return b
}}

// acquireBody returns an empty pooled body held by the caller, who
// releases it once done with it.
func acquireBody() *reqBody {
	b := bodyPool.Get().(*reqBody)
	b.buf = b.buf[:0]
	b.refs.Store(1)
	return b
}

// release drops one hold on b; the last returns it to the pool.
func (b *reqBody) release() {
	if b.refs.Add(-1) == 0 && cap(b.buf) <= maxPooledBody {
		bodyPool.Put(b)
	}
}

// reader returns a new reader of b's bytes, which holds b until it is
// done.
func (b *reqBody) reader() (io.ReadCloser, error) {
	b.refs.Add(1)
	r := &bodyReader{body: b}
	r.rd.Reset(b.buf)
	return r, nil
}

// bodyReader is one read of a reqBody by a transport. It lets go of the
// body when it is closed or returns io.EOF, whichever comes first; a
// Read past the end touches no byte of the buffer. It has no method but
// Read and Close, so nothing can seek it back into a buffer it let go of.
type bodyReader struct {
	body *reqBody
	rd   bytes.Reader
	done atomic.Bool
}

func (r *bodyReader) Read(p []byte) (int, error) {
	n, err := r.rd.Read(p)
	if err == io.EOF {
		r.finish()
	}
	return n, err
}

func (r *bodyReader) Close() error {
	r.finish()
	return nil
}

func (r *bodyReader) finish() {
	if r.done.CompareAndSwap(false, true) {
		r.body.release()
	}
}

// send is the gateway's one way to call a replica: proxied requests, the
// multi-group observe's buckets, failover control calls, health probes
// and federation scrapes. It builds the request around a parsed URL
// (net/http's constructors would parse it again, wrap the body twice and
// re-canonicalise canonical headers), stamps the call on it, times it as
// a child span of the call's root, and hands it to the client's transport
// directly: http.Client.Do would clone the headers and keep bookkeeping
// for redirects the gateway never follows — a backend's 3xx is an answer
// like any other. The client's Timeout still bounds the call, response
// body included. A non-empty body goes as JSON; the transport reads it
// through readers that hold it (reqBody), so the caller may release it
// whenever it is done with it, and must not change its bytes before. A
// non-200 answer marks the span failed; counting failures is the
// caller's.
func (g *Gateway) send(ctx context.Context, c call, method string, u *url.URL, span string, body *reqBody) (*http.Response, error) {
	var cancel context.CancelFunc
	if g.http.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, g.http.Timeout)
	}
	req := (&http.Request{
		Method: method, URL: u, Host: u.Host,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header, 3),
	}).WithContext(ctx)
	if body != nil && len(body.buf) > 0 {
		req.Body, _ = body.reader()
		req.ContentLength = int64(len(body.buf))
		// The transport replays the body when it retries on a keep-alive
		// connection the backend had already closed.
		req.GetBody = body.getBody
		req.Header["Content-Type"] = jsonContentType
	}
	// Tracing and class propagation touch headers only: the body and the
	// response still stream through untouched.
	stamp(req, c)
	rt := g.http.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	child := g.traces.StartChild(c.span, span)
	resp, err := rt.RoundTrip(req)
	switch {
	case err != nil:
		err = &url.Error{Op: method, URL: u.Redacted(), Err: err}
		if cancel != nil {
			cancel()
		}
	case cancel != nil:
		resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		child.SetError()
	}
	child.FinishNow()
	return resp, err
}

// forward proxies one request verbatim to one backend — body bytes
// untouched (nil for a GET) — and streams the response straight through:
// the path of every request but a multi-group observe. Skipping the
// gateway-side decode/re-encode of both body and response is what keeps
// the proxy hop within the 15% overhead budget on large ranking queries.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, c call, method string, rep *replica, u *url.URL, body *reqBody) {
	resp, err := g.send(r.Context(), c, method, u, rep.span, body)
	if err != nil {
		g.proxyErrors.Inc()
		g.writeError(w, http.StatusBadGateway, "%v", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		g.proxyErrors.Inc()
	}
	copyResponse(w, resp)
}

// copyBufPool recycles the buffers copyResponse relays through.
var copyBufPool = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

// statusHeaders are what a refusal tells the client to act on: when to
// retry and why it was refused (a shed 429, a follower's 503), and where
// the leader is (the follower's 503). Only non-200 answers carry them.
var statusHeaders = [...]string{"Retry-After", server.ShedReasonHeader, "X-Amf-Leader"}

// copyResponse relays a backend response verbatim: status, the headers
// a relay needs (a 3xx keeps its Location, a refusal its statusHeaders)
// and the body. Propagating
// Content-Length keeps the client leg un-chunked (one frame instead of
// chunk headers), which matters at the proxy's latency floor. The body
// is copied by a plain read/write loop through a pooled buffer:
// io.CopyBuffer would take the ResponseWriter's ReadFrom, which falls
// back to a fresh 32 KB buffer for a source it cannot splice from, and
// hiding that method behind a wrapper costs an allocation of its own.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	h := w.Header()
	if ct := resp.Header["Content-Type"]; len(ct) > 0 {
		h["Content-Type"] = ct
	}
	if loc := resp.Header["Location"]; len(loc) > 0 {
		h["Location"] = loc
	}
	if resp.StatusCode != http.StatusOK {
		for _, k := range statusHeaders {
			if v := resp.Header[k]; len(v) > 0 {
				h[k] = v
			}
		}
	}
	if cl := resp.Header["Content-Length"]; len(cl) > 0 {
		h["Content-Length"] = cl
	} else if resp.ContentLength >= 0 {
		h["Content-Length"] = []string{strconv.FormatInt(resp.ContentLength, 10)}
	}
	w.WriteHeader(resp.StatusCode)
	buf := copyBufPool.Get().(*[]byte)
	for {
		n, err := resp.Body.Read(*buf)
		if n > 0 {
			if _, werr := w.Write((*buf)[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	copyBufPool.Put(buf)
}

// readBody reads a proxied request body whole into a pooled body, which
// the caller releases once done with it (its response closed), answering
// 413 past server.MaxBodyBytes, the bound the backends apply themselves.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) (*reqBody, bool) {
	b := acquireBody()
	var err error
	if b.buf, err = server.ReadBody(w, r, server.MaxBodyBytes, b.buf); err != nil {
		b.release()
		g.writeError(w, server.BodyErrorStatus(err), "read body: %v", err)
		return nil, false
	}
	return b, true
}

func (g *Gateway) handleHealth(w http.ResponseWriter, _ *http.Request) {
	for _, grp := range g.groups {
		if !slices.ContainsFunc(grp.replicas, func(rep *replica) bool { return rep.Health() != Down }) {
			g.writeJSON(w, http.StatusServiceUnavailable,
				map[string]string{"status": "degraded", "group": grp.name})
			return
		}
	}
	g.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = g.reg.WritePrometheus(w)
}

// GroupStatus describes one shard group in the gateway's status body.
type GroupStatus struct {
	Name     string          `json:"name"`
	Leader   string          `json:"leader,omitempty"`
	Replicas []ReplicaStatus `json:"replicas"`
}

// ReplicaStatus describes one replica as of the last probe.
type ReplicaStatus struct {
	URL        string `json:"url"`
	Health     string `json:"health"`
	Role       string `json:"role"`
	WALSeq     uint64 `json:"wal_seq,omitempty"`
	AppliedSeq uint64 `json:"applied_seq,omitempty"`
	Epoch      uint64 `json:"epoch,omitempty"`
	Fenced     bool   `json:"fenced,omitempty"`
}

func (g *Gateway) handleStatus(w http.ResponseWriter, _ *http.Request) {
	out := struct {
		Groups []GroupStatus `json:"groups"`
		VNodes int           `json:"vnodes"`
	}{VNodes: g.ring.VNodes()}
	for _, grp := range g.groups {
		gs := GroupStatus{Name: grp.name}
		if lead := grp.leader.Load(); lead != nil {
			gs.Leader = lead.url
		}
		for _, rep := range grp.replicas {
			role := "follower"
			if rep.role.Load() == 1 {
				role = "leader"
			}
			gs.Replicas = append(gs.Replicas, ReplicaStatus{
				URL: rep.url, Health: rep.Health().String(), Role: role,
				WALSeq: rep.walSeq.Load(), AppliedSeq: rep.appliedSeq.Load(),
				Epoch: rep.epoch.Load(), Fenced: rep.fenced.Load(),
			})
		}
		out.Groups = append(out.Groups, gs)
	}
	g.writeJSON(w, http.StatusOK, out)
}

// handleObserve splits an observation batch by user shard and forwards
// each bucket to its group leader concurrently. The batch is decoded by
// the backends' own codec and held to their own checks first
// (server.CheckObservations), so a batch one server would refuse is
// refused whole, before any shard trains on part of it. Observations are
// SGD training steps, not idempotent upserts, so the failure status is
// chosen by what was applied: if NO bucket succeeded, a failing backend's
// answer passes through verbatim — status, refusal headers and body; a
// 503 invites a retry, which is safe, as nothing trained — but once ANY
// bucket succeeded a retryable status would double-train the successful
// buckets on resend, so partial failure is reported as a non-retryable
// 500.
func (g *Gateway) handleObserve(w http.ResponseWriter, r *http.Request, c call) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	defer body.release()
	// Single-group deployments need no bucketing: the whole batch goes to
	// the one leader verbatim (the backend still validates it).
	if len(g.groups) == 1 {
		rep := g.groups[0].writeTarget()
		if rep == nil {
			g.unavailable(w, "group "+g.groups[0].name+" has no live leader")
			return
		}
		g.forward(w, r, c, http.MethodPost, rep, rep.observeURL, body)
		return
	}
	d := server.AcquireDecoder()
	defer d.Release()
	// No list bound here: each backend applies its own to its bucket.
	obs, err := d.Observe(body.buf, math.MaxInt)
	if err != nil {
		g.writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if len(obs) == 0 {
		g.writeError(w, http.StatusBadRequest, "no observations")
		return
	}
	if err := server.CheckObservations(obs); err != nil {
		g.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var parts []bucket // one per group the batch touches, in first-touch order
	for _, o := range obs {
		grp := g.groupAt(hash64(o.User))
		if grp == nil {
			g.unavailable(w, "no shard groups available")
			return
		}
		k := slices.IndexFunc(parts, func(b bucket) bool { return b.grp == grp })
		if k < 0 {
			// A batch touching a leaderless group is refused whole,
			// before anything is sent: refusing only that group's bucket
			// would leave the partial-application hazard the error path
			// below exists for (retry is safe).
			rep := grp.writeTarget()
			if rep == nil {
				g.unavailable(w, "group "+grp.name+" has no live leader")
				return
			}
			k = len(parts)
			parts = append(parts, bucket{grp: grp, rep: rep})
		}
		parts[k].obs = append(parts[k].obs, o)
	}
	var wg sync.WaitGroup
	for k := range parts {
		wg.Add(1)
		go func(b *bucket) {
			defer wg.Done()
			g.observeBucket(r.Context(), c, b)
		}(&parts[k])
	}
	wg.Wait()

	var (
		merged  server.ObserveResponse
		applied int
		failed  *bucket
	)
	for k := range parts {
		b := &parts[k]
		switch {
		case b.resp != nil:
			defer b.resp.Body.Close()
		case b.err == nil:
			applied++
			merged.Accepted += b.out.Accepted
			merged.NewUsers += b.out.NewUsers
			merged.NewServices += b.out.NewServices
			continue
		}
		// A backend's answer tells the client more than a transport error.
		if failed == nil || failed.resp == nil && b.resp != nil {
			failed = b
		}
	}
	switch {
	case failed == nil:
		g.writeJSON(w, http.StatusOK, merged)
	case applied == 0 && failed.resp != nil:
		// Nothing was applied anywhere: relay the backend's answer
		// verbatim — retrying the whole batch is safe.
		copyResponse(w, failed.resp)
	case applied == 0:
		g.writeError(w, http.StatusBadGateway, "observe: group %s: %v", failed.grp.name, failed.err)
	default:
		// Partial application: some groups trained their models, some did
		// not. Never relay a retryable status here (see handler comment).
		why := fmt.Sprint(failed.err)
		if failed.resp != nil {
			why = refusal(failed.resp)
		}
		g.writeError(w, http.StatusInternalServerError,
			"observe: partially applied (%d observations accepted, %d of %d groups); not retryable: group %s: %s",
			merged.Accepted, applied, len(parts), failed.grp.name, why)
	}
}

// bucket is one shard group's part of a split observe and what became of
// it: the backend's answer, a refusal kept open for relaying, or an error.
type bucket struct {
	grp  *group
	rep  *replica // the group's write target when the batch was split
	obs  []ingest.Observation
	out  server.ObserveResponse
	resp *http.Response // a non-200 answer, body unread
	err  error
}

// observeBucket encodes one bucket with the backends' codec and sends it
// to its group's leader.
func (g *Gateway) observeBucket(ctx context.Context, c call, b *bucket) {
	body := acquireBody()
	defer body.release()
	var err error
	if body.buf, err = server.AppendObserveRequest(body.buf, b.obs); err != nil { // CheckObservations lets no such value through
		b.err = err
		return
	}
	resp, err := g.send(ctx, c, http.MethodPost, b.rep.observeURL, b.rep.span, body)
	switch {
	case err != nil:
		b.err = err
	case resp.StatusCode != http.StatusOK:
		b.resp = resp
	default:
		defer resp.Body.Close()
		var raw []byte
		if raw, err = io.ReadAll(resp.Body); err != nil {
			b.err = fmt.Errorf("read response: %w", err)
			break
		}
		b.err = json.Unmarshal(raw, &b.out)
		return
	}
	g.proxyErrors.Inc()
}

// refusal describes a backend's non-200 answer by the message of its
// error body and its status, reading the body.
func refusal(resp *http.Response) string {
	msg := resp.Status
	var e server.ErrorResponse
	if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
		msg = e.Error
	}
	return fmt.Sprintf("%s (HTTP %d)", msg, resp.StatusCode)
}

// handlePredict proxies a single prediction to a read replica of the
// user's group, streaming the response straight through.
func (g *Gateway) handlePredict(w http.ResponseWriter, r *http.Request, c call) {
	user := server.QueryParam(r.URL.RawQuery, "user")
	if user == "" {
		g.writeError(w, http.StatusBadRequest, "user query parameter is required")
		return
	}
	grp := g.groupFor(user)
	if grp == nil {
		g.unavailable(w, "no shard groups available")
		return
	}
	rep := grp.readTarget()
	u := *rep.predictURL
	u.RawQuery = r.URL.RawQuery
	g.forward(w, r, c, http.MethodGet, rep, &u, nil)
}

// handleCandidates returns the handler of batch predict (rank false) or
// rank, which forwards the body verbatim to one read replica of the
// user's group: every replica holds the whole group state, and splitting
// a candidate list across several measured slower than the one hop. With
// one group there is nothing to route, so the body is not decoded at all
// and the replica alone validates it, as an observe's is (handleObserve);
// with more, route decodes it once to find the user.
func (g *Gateway) handleCandidates(rank bool) proxyHandler {
	return func(w http.ResponseWriter, r *http.Request, c call) {
		body, ok := g.readBody(w, r)
		if !ok {
			return
		}
		defer body.release()
		grp := g.groups[0]
		if len(g.groups) > 1 {
			if grp = g.route(w, body.buf, rank); grp == nil {
				return
			}
		}
		rep := grp.readTarget()
		u := rep.predictURL
		if rank {
			u = rep.rankURL
		}
		g.forward(w, r, c, http.MethodPost, rep, u, body)
	}
}

// route decodes a batch-predict or rank body once, for the user to route
// by (the last of duplicate keys, as the server reads it), and returns the
// user's shard group. It answers the request itself and returns nil when
// the body is malformed, names no user, or cannot be routed.
func (g *Gateway) route(w http.ResponseWriter, raw []byte, rank bool) *group {
	d := server.AcquireDecoder()
	defer d.Release()
	decode, missing := d.Batch, "user and services are required"
	if rank {
		decode, missing = d.Rank, "user is required"
	}
	// No list bound here: the backend applies its own.
	q, err := decode(raw, math.MaxInt)
	if err != nil {
		g.writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return nil
	}
	if len(q.User) == 0 {
		g.writeError(w, http.StatusBadRequest, "%s", missing)
		return nil
	}
	grp := g.groupAt(hash64(q.User))
	if grp == nil {
		g.unavailable(w, "no shard groups available")
	}
	return grp
}

// probeAll probes every replica of every group and updates routing
// state; one round also drives failover for leaderless groups.
func (g *Gateway) probeAll() {
	var wg sync.WaitGroup
	for _, grp := range g.groups {
		for _, rep := range grp.replicas {
			wg.Add(1)
			go func(rep *replica) {
				defer wg.Done()
				g.probe(rep)
			}(rep)
		}
	}
	wg.Wait()
	for _, grp := range g.groups {
		g.settleGroup(grp)
	}
}

// probe fetches one replica's cluster status and updates its health,
// role, and sequence numbers.
func (g *Gateway) probe(rep *replica) {
	ctx, cancel := context.WithTimeout(context.Background(), min(g.cfg.ProbeInterval, time.Second))
	defer cancel()
	start := time.Now()
	resp, err := g.send(ctx, controlCall, http.MethodGet, rep.at("/api/v1/cluster/status"), rep.span, nil)
	g.probeLatency.Observe(time.Since(start).Seconds())
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		g.probeErrors.Inc()
		health := Suspect
		if int(rep.fails.Add(1)) >= g.cfg.DownAfter {
			health = Down
		}
		rep.health.Store(int32(health))
		return
	}
	var st server.ClusterStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		g.probeErrors.Inc()
		return
	}
	rep.fails.Store(0)
	rep.health.Store(int32(Healthy))
	rep.epoch.Store(st.Epoch)
	rep.fenced.Store(st.Fenced)
	rep.promotable.Store(st.Promotable)
	// A fenced server lost its durable-directory claim: whatever role it
	// reports, it cannot accept writes, so never treat it as a leader.
	if st.Role == "leader" && !st.Fenced {
		rep.role.Store(1)
		rep.walSeq.Store(st.WALSeq)
		rep.lagSecs.Store(0)
	} else {
		rep.role.Store(0)
		rep.appliedSeq.Store(st.AppliedSeq)
		rep.lagSecs.Store(math.Float64bits(st.LagSeconds))
	}
}

// settleGroup folds replica states into group-level routing decisions:
// the leader pointer and — when failover is enabled — promotion of the
// best follower after the leader has been gone DownAfter consecutive
// rounds. When more than one healthy replica
// claims leadership (an ex-leader recovered after the gateway promoted
// around it), the claim epoch breaks the tie — and the losers are
// actively demoted, not just routed around (see demoteStale).
func (g *Gateway) settleGroup(grp *group) {
	var claimants []*replica
	for _, rep := range grp.replicas {
		if rep.role.Load() == 1 && rep.Health() == Healthy {
			claimants = append(claimants, rep)
		}
	}
	if len(claimants) > 0 {
		// Highest epoch claimed the durable directory most recently: by
		// construction that is the failover winner, and the promoted
		// replica recovered the group's full durable state. On epoch
		// ties (non-durable groups report 0) keep the current pointer
		// rather than flapping between claimants.
		leader := claimants[0]
		cur := grp.leader.Load()
		for _, rep := range claimants[1:] {
			e, le := rep.epoch.Load(), leader.epoch.Load()
			if e > le || (e == le && rep == cur) {
				leader = rep
			}
		}
		if len(claimants) > 1 {
			g.demoteStale(grp, claimants, leader)
		}
		grp.leader.Store(leader)
		grp.noLeader = 0
		return
	}
	grp.noLeader++
	if !g.cfg.Failover || grp.noLeader < g.cfg.DownAfter {
		return
	}
	g.failover(grp)
}

// demoteStale resolves an observed split brain: a leadership claimant
// whose epoch is strictly below the winner's is an ex-leader that
// recovered after a failover promoted a different replica over the
// same durable directory. Routing around it is not enough —
// writeTarget scans by role, so a later probe round could steer acked
// writes onto its diverged WAL lineage, where no replica and no future
// recovery would ever see them. The gateway therefore demotes stale
// claimants explicitly: the server flips to follower, fences its
// store, and answers writes with 503 + the real leader. Epoch TIES are
// left alone — without durable-claim evidence (non-durable replicas
// all report 0) demotion would be arbitrary and could take down the
// legitimate leader.
func (g *Gateway) demoteStale(grp *group, claimants []*replica, winner *replica) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, rep := range claimants {
		if rep == winner || rep.epoch.Load() >= winner.epoch.Load() {
			continue
		}
		if err := g.control(ctx, rep, "/api/v1/demote", winner.url); err != nil {
			// The stale claimant stays routed-around (the winner holds the
			// leader pointer); the next probe round retries the demotion.
			g.log.Warn("demoting stale leader failed",
				"group", grp.name, "stale", rep.url, "err", err)
			continue
		}
		rep.role.Store(0)
		g.demotions.Inc()
		g.log.Warn("demoted stale leader",
			"group", grp.name, "stale", rep.url, "stale_epoch", rep.epoch.Load(),
			"leader", winner.url, "leader_epoch", winner.epoch.Load())
	}
}

// failover promotes a healthy follower that reports itself promotable —
// one that recovers the leader's log from the shared directory — and
// points the surviving followers at it. A demoted ex-leader reports
// false, so a group with no promotable follower stays leaderless: writes
// get 503, reads are still served. Promotion resets
// the model and recovers from the shared log, so the applied sequence
// does not decide what is kept; it only breaks the tie, toward the
// replica whose reads lagged least.
func (g *Gateway) failover(grp *group) {
	var candidate *replica
	for _, rep := range grp.replicas {
		if rep.Health() != Healthy || rep.role.Load() == 1 || !rep.promotable.Load() {
			continue
		}
		if candidate == nil || rep.appliedSeq.Load() > candidate.appliedSeq.Load() {
			candidate = rep
		}
	}
	if candidate == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := g.control(ctx, candidate, "/api/v1/promote", ""); err != nil {
		g.log.Warn("promotion failed", "group", grp.name, "candidate", candidate.url, "err", err)
		return
	}
	g.failovers.Inc()
	candidate.role.Store(1)
	grp.leader.Store(candidate)
	grp.noLeader = 0
	g.log.Info("promoted new leader", "group", grp.name, "leader", candidate.url)
	for _, rep := range grp.replicas {
		if rep == candidate || rep.Health() == Down {
			continue
		}
		if err := g.control(ctx, rep, "/api/v1/cluster/leader", candidate.url); err != nil {
			g.log.Warn("re-pointing follower failed", "follower", rep.url, "err", err)
		}
	}
}

// control posts one failover control call to a replica — promote (no
// leader), or demote and re-point, naming the leader — and reports a
// refusal as an error carrying the backend's message.
func (g *Gateway) control(ctx context.Context, rep *replica, path, leader string) error {
	body := acquireBody()
	defer body.release()
	if leader != "" {
		js, _ := json.Marshal(map[string]string{"leader": leader}) // cannot fail
		body.buf = append(body.buf, js...)
	}
	resp, err := g.send(ctx, controlCall, http.MethodPost, rep.at(path), rep.span, body)
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			// Drain so the keep-alive connection goes back to the pool.
			_, _ = io.Copy(io.Discard, resp.Body)
			return nil
		}
		err = errors.New(refusal(resp))
	}
	g.proxyErrors.Inc()
	return err
}
