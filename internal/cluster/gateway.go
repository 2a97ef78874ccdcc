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

	"github.com/qoslab/amf/internal/control"
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
	// ProbeInterval is the health-probe cadence (default 500ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (default min(interval, 1s)).
	ProbeTimeout time.Duration
	// Failover enables automatic leader promotion: when a group's leader
	// stays unreachable for DownAfter consecutive probe rounds, the
	// reachable follower with the highest applied sequence is promoted
	// and the survivors re-pointed at it.
	Failover bool
	// DownAfter is how many consecutive probe failures mark a replica
	// Down (default 3; the first failure marks it Suspect).
	DownAfter int
	// FanOutThreshold is ignored: a rank or batch-predict request goes to
	// one replica whatever its candidate count, because splitting it
	// measured slower than the single hop (DESIGN.md "Cluster &
	// replication"). The field stays only because bench/ still sets it.
	FanOutThreshold int
	// MaxBody bounds proxied request bodies (default server.MaxBodyBytes,
	// the bound the backends apply themselves).
	MaxBody int64
	// EdgeShed enables edge shedding: sheddable-class requests aimed at
	// a shard group whose probed shed rate is at or above ShedThreshold
	// are refused at the gateway (429 + Retry-After) without a backend
	// round trip. Standard and critical traffic always passes through.
	EdgeShed bool
	// ShedThreshold is the group shed rate (max over healthy replicas,
	// from the probe loop) at which edge shedding kicks in (default 0.5).
	ShedThreshold float64
	// Logger receives lifecycle and failover events (default slog.Default()).
	Logger *slog.Logger
	// HTTP is the client for proxying and probing; nil builds one with a
	// connection pool sized for concurrent proxying. Proxied requests go
	// to its Transport directly: a backend's redirect is relayed, never
	// followed, and a non-zero Timeout bounds each backend hop.
	HTTP *http.Client
}

// replica is one amfserver the gateway proxies to.
type replica struct {
	url string
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
	fenced     atomic.Bool   // lost its directory claim; never promotable
	lagSecs    atomic.Uint64 // follower time-lag, Float64bits (federation gauge)
	shedRate   atomic.Uint64 // last-probed shed/rejection rate, Float64bits
}

func (rep *replica) Health() Health { return Health(rep.health.Load()) }

func newReplica(base string) (*replica, error) {
	rep := &replica{url: strings.TrimRight(base, "/")}
	var err error
	parse := func(path string) *url.URL {
		u, perr := url.Parse(rep.url + path)
		if perr != nil {
			err = fmt.Errorf("replica URL: %w", perr)
		}
		return u
	}
	rep.observeURL = parse("/api/v1/observe")
	rep.predictURL = parse("/api/v1/predict")
	rep.rankURL = parse("/api/v1/rank")
	if err != nil {
		return nil, err
	}
	rep.span = "backend " + rep.rankURL.Host
	return rep, nil
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
	mux    *http.ServeMux
	http   *http.Client
	log    *slog.Logger

	reg          *obs.Registry
	requests     *obs.CounterVec
	proxySeconds *obs.HistogramVec
	proxyErrors  *obs.Counter
	edgeSheds    *obs.Counter
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
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = min(cfg.ProbeInterval, time.Second)
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 3
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = server.MaxBodyBytes
	}
	if cfg.ShedThreshold <= 0 {
		cfg.ShedThreshold = 0.5
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
func (g *Gateway) Handler() http.Handler { return g.mux }

func (g *Gateway) buildMetrics() {
	r := obs.NewRegistry()
	g.reg = r
	obs.RegisterBuildInfo(r)
	g.requests = r.NewCounterVec("amf_cluster_requests_total",
		"Requests routed through the gateway, by route.", "route")
	g.proxySeconds = r.NewHistogramVec("amf_cluster_proxy_seconds",
		"End-to-end gateway latency (routing + backend round trips), by route.", "route", 1e-6, 60, 8)
	for _, route := range []string{"observe", "predict", "batch", "rank"} {
		g.requests.With(route)
		g.proxySeconds.With(route)
	}
	g.proxyErrors = r.NewCounter("amf_cluster_proxy_errors_total",
		"Backend requests that failed (connection errors or non-2xx).")
	g.edgeSheds = r.NewCounter("amf_admission_edge_shed_total",
		"Sheddable-class requests refused at the gateway because the target shard group reported saturation.")
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
	r.GaugeFunc("amf_cluster_groups", "Configured shard groups.",
		func() float64 { return float64(len(g.groups)) })
	r.GaugeFunc("amf_cluster_replicas", "Configured replicas across all groups.",
		func() float64 {
			n := 0
			for _, grp := range g.groups {
				n += len(grp.replicas)
			}
			return float64(n)
		})
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

func (g *Gateway) routes() {
	g.mux = http.NewServeMux()
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
// an argument — to the route handler and from there to route, edgeShed,
// forward and postJSON — so no leg re-parses a header and the request is
// never copied to carry it.
type call struct {
	span  *trace.Span
	trace []string // X-Amf-Trace header value; nil on an untraced call
	class control.Class
}

// controlCall is the call of a request the gateway makes on its own
// (failover and demotion control calls): untraced, standard class.
var controlCall = call{class: control.Standard}

// proxyHandler is a proxied route behind timed().
type proxyHandler func(w http.ResponseWriter, r *http.Request, c call)

// timed wraps a proxied route with the gateway's per-route metrics and
// mints the root span of a new trace: every proxied request gets a fresh
// 128-bit trace ID, echoed to the client as X-Request-Id and propagated
// to backends via X-Amf-Trace (see stamp), so one identifier names the
// request at the client, the gateway, and every shard it touched. The
// header value is rendered once; X-Request-Id is its trace-ID prefix.
func (g *Gateway) timed(route string, h proxyHandler) http.HandlerFunc {
	counter := g.requests.With(route)
	hist := g.proxySeconds.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		counter.Inc()
		sp := g.traces.Start(trace.NewID(), 0, route)
		hv := trace.HeaderValue(sp.Trace, sp.ID)
		// One backing array for both headers; each slice is capped at its
		// own element, so an append to either cannot reach the other.
		ids := []string{hv[:32], hv}
		w.Header()[requestIDHeader] = ids[:1:1]
		h(w, r, call{span: sp, trace: ids[1:], class: control.ClassFromHeader(r.Header)})
		d := time.Since(start)
		hist.Observe(d.Seconds())
		sp.Finish(d)
	}
}

// classValues holds each class's header value ready-made; header values
// are read, never written, once set, so every request shares them.
var classValues = func() (v [control.NumClasses][]string) {
	for _, c := range control.Classes() {
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
	req.Header[control.ClassHeader] = classValues[c.class]
}

// roundTrip sends one backend request straight through the client's
// transport (http.DefaultTransport when it has none). http.Client.Do
// would clone the request's headers and keep redirect bookkeeping on
// every call for redirects a proxy never follows: a backend's 3xx is
// relayed to the client like any other status. What the client still
// contributes is its Timeout, which bounds the hop — body included —
// through the request context.
func (g *Gateway) roundTrip(req *http.Request) (*http.Response, error) {
	rt := g.http.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	var cancel context.CancelFunc
	if g.http.Timeout > 0 {
		var ctx context.Context
		ctx, cancel = context.WithTimeout(req.Context(), g.http.Timeout)
		req = req.WithContext(ctx)
	}
	resp, err := rt.RoundTrip(req)
	if err != nil {
		if cancel != nil {
			cancel()
		}
		return nil, &url.Error{Op: req.Method, URL: req.URL.Redacted(), Err: err}
	}
	if cancel != nil {
		resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
	}
	return resp, nil
}

// cancelBody ends a timed round trip's context when its body is closed.
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

// writeTarget returns where a group's writes go: the probed leader, or
// any replica claiming leadership, or the first replica (whose 503 will
// tell the client to retry — by then a probe round has usually caught
// up).
func (grp *group) writeTarget() *replica {
	if lead := grp.leader.Load(); lead != nil && lead.Health() != Down {
		return lead
	}
	for _, rep := range grp.replicas {
		if rep.role.Load() == 1 && rep.Health() != Down {
			return rep
		}
	}
	return grp.replicas[0]
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

// proxyBufPool recycles the request-marshal and response-read buffers
// under postJSON: one of each per observe bucket or control call.
var proxyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// postJSON sends one JSON sub-request and decodes the 200 response into
// out. Non-200 answers surface as errors carrying the backend's message.
func (g *Gateway) postJSON(ctx context.Context, c call, url string, body, out any) error {
	buf := proxyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer proxyBufPool.Put(buf)
	if err := json.NewEncoder(buf).Encode(body); err != nil {
		return fmt.Errorf("cluster: marshal: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	stamp(req, c)
	child := g.traces.StartChild(c.span, "backend "+req.URL.Host)
	resp, err := g.roundTrip(req)
	if err != nil {
		child.SetError()
		child.FinishNow()
		g.proxyErrors.Inc()
		return err
	}
	if resp.StatusCode != http.StatusOK {
		child.SetError()
	}
	child.FinishNow()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		g.proxyErrors.Inc()
		var apiErr server.ErrorResponse
		msg := resp.Status
		if decodeErr := json.NewDecoder(resp.Body).Decode(&apiErr); decodeErr == nil && apiErr.Error != "" {
			msg = apiErr.Error
		}
		return &backendError{status: resp.StatusCode, msg: msg}
	}
	if out == nil {
		// Drain so the keep-alive connection goes back to the pool.
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	rbuf := proxyBufPool.Get().(*bytes.Buffer)
	rbuf.Reset()
	defer proxyBufPool.Put(rbuf)
	if _, err := rbuf.ReadFrom(resp.Body); err != nil {
		g.proxyErrors.Inc()
		return fmt.Errorf("cluster: read response: %w", err)
	}
	return json.Unmarshal(rbuf.Bytes(), out)
}

// bytesBody is an outgoing request body over bytes the caller keeps.
type bytesBody struct{ bytes.Reader }

func (*bytesBody) Close() error { return nil }

func newBytesBody(b []byte) *bytesBody {
	body := new(bytesBody)
	body.Reset(b)
	return body
}

// forward proxies one request verbatim to one backend — body bytes
// untouched (nil for a GET) — and streams the response straight through:
// the path of every request but a multi-group observe. Skipping the
// gateway-side decode/re-encode of both body and response is what keeps
// the proxy hop within the 15% overhead budget on large ranking queries.
// The outgoing request is assembled around the replica's parsed URL;
// http.NewRequest would parse it again, wrap the body twice and
// canonicalise headers that are already canonical.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, c call, method string, rep *replica, u *url.URL, body []byte) {
	req := (&http.Request{
		Method: method, URL: u, Host: u.Host,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header, 3),
	}).WithContext(r.Context())
	if len(body) > 0 {
		req.Body, req.ContentLength = newBytesBody(body), int64(len(body))
		// The transport replays the body when it retries on a keep-alive
		// connection the backend had already closed.
		req.GetBody = func() (io.ReadCloser, error) { return newBytesBody(body), nil }
		req.Header["Content-Type"] = jsonContentType
	}
	// Tracing and class propagation touch headers only: the body and the
	// response still stream through untouched.
	stamp(req, c)
	child := g.traces.StartChild(c.span, rep.span)
	resp, err := g.roundTrip(req)
	if err != nil {
		child.SetError()
		child.FinishNow()
		g.proxyErrors.Inc()
		g.writeError(w, http.StatusBadGateway, "%v", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		child.SetError()
		g.proxyErrors.Inc()
	}
	child.FinishNow()
	copyResponse(w, resp)
}

// copyBufPool recycles the buffers copyResponse relays through.
var copyBufPool = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

// copyResponse relays a backend response verbatim: status, the headers
// a relay needs (a 3xx keeps its Location) and the body. Propagating
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

// readBody reads a proxied request body whole, answering 413 past
// MaxBody. The bytes are the request's own, not pooled: the transport
// may still be writing them to a backend that answered early when the
// handler returns.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	raw, err := server.ReadBody(w, r, g.cfg.MaxBody, nil)
	if err != nil {
		g.writeError(w, server.BodyErrorStatus(err), "read body: %v", err)
		return nil, false
	}
	return raw, true
}

// backendError carries a backend's HTTP status out of postJSON so the
// gateway can relay it instead of flattening everything to 502.
type backendError struct {
	status int
	msg    string
}

func (e *backendError) Error() string { return fmt.Sprintf("%s (HTTP %d)", e.msg, e.status) }

// relayStatus picks the gateway's response status for a failed backend
// call: backend HTTP statuses pass through (404 unknown user stays 404,
// 503 follower/drain stays 503 so clients retry), transport errors
// become 502.
func relayStatus(err error) int {
	var be *backendError
	if errors.As(err, &be) {
		return be.status
	}
	return http.StatusBadGateway
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
	URL        string  `json:"url"`
	Health     string  `json:"health"`
	Role       string  `json:"role"`
	WALSeq     uint64  `json:"wal_seq,omitempty"`
	AppliedSeq uint64  `json:"applied_seq,omitempty"`
	Epoch      uint64  `json:"epoch,omitempty"`
	Fenced     bool    `json:"fenced,omitempty"`
	ShedRate   float64 `json:"shed_rate,omitempty"`
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
				ShedRate: rep.shedRateValue(),
			})
		}
		out.Groups = append(out.Groups, gs)
	}
	g.writeJSON(w, http.StatusOK, out)
}

// handleObserve splits an observation batch by user shard and forwards
// each bucket to its group leader concurrently. Observations are SGD
// training steps, not idempotent upserts, so the failure status is
// chosen by what was applied: if NO bucket succeeded the backend's
// status passes through (a 503 invites a retry, which is safe — nothing
// trained), but once ANY bucket succeeded a retryable status would
// double-train the successful buckets on resend, so partial failure is
// reported as a non-retryable 500.
func (g *Gateway) handleObserve(w http.ResponseWriter, r *http.Request, c call) {
	raw, ok := g.readBody(w, r)
	if !ok {
		return
	}
	// Single-group deployments need no bucketing: the whole batch goes to
	// the one leader verbatim (the backend still validates it).
	if len(g.groups) == 1 {
		if g.edgeShed(w, c, g.groups[0]) {
			return
		}
		rep := g.groups[0].writeTarget()
		g.forward(w, r, c, http.MethodPost, rep, rep.observeURL, raw)
		return
	}
	var req server.ObserveRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		g.writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if len(req.Observations) == 0 {
		g.writeError(w, http.StatusBadRequest, "no observations")
		return
	}
	buckets := make(map[*group][]server.Observation)
	for _, o := range req.Observations {
		grp := g.groupFor(o.User)
		if grp == nil {
			g.unavailable(w)
			return
		}
		buckets[grp] = append(buckets[grp], o)
	}
	// Edge shedding is all-or-nothing for a batch: refusing only the
	// saturated groups' buckets would leave the same partial-application
	// hazard the error path below exists for, so a sheddable batch
	// touching ANY saturated group is refused whole (nothing trained,
	// retry is safe).
	targets := make([]*group, 0, len(buckets))
	for grp := range buckets {
		targets = append(targets, grp)
	}
	if g.edgeShed(w, c, targets...) {
		return
	}
	var (
		mu       sync.Mutex
		merged   server.ObserveResponse
		firstErr error
		okGroups int
		wg       sync.WaitGroup
	)
	for grp, obsBatch := range buckets {
		wg.Add(1)
		go func(grp *group, obsBatch []server.Observation, c call) {
			defer wg.Done()
			var resp server.ObserveResponse
			err := g.postJSON(r.Context(), c, grp.writeTarget().url+"/api/v1/observe",
				server.ObserveRequest{Observations: obsBatch}, &resp)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("group %s: %w", grp.name, err)
				}
				return
			}
			okGroups++
			merged.Accepted += resp.Accepted
			merged.NewUsers += resp.NewUsers
			merged.NewServices += resp.NewServices
		}(grp, obsBatch, c)
	}
	wg.Wait()
	if firstErr != nil {
		if okGroups == 0 {
			// Nothing was applied anywhere: relay the backend's status
			// verbatim — retrying the whole batch is safe.
			g.writeError(w, relayStatus(firstErr), "observe: %v", firstErr)
			return
		}
		// Partial application: some groups trained their models, some did
		// not. Never relay a retryable status here (see handler comment).
		g.writeError(w, http.StatusInternalServerError,
			"observe: partially applied (%d observations accepted, %d of %d groups); not retryable: %v",
			merged.Accepted, okGroups, len(buckets), firstErr)
		return
	}
	g.writeJSON(w, http.StatusOK, merged)
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
		g.unavailable(w)
		return
	}
	if g.edgeShed(w, c, grp) {
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
		raw, ok := g.readBody(w, r)
		if !ok {
			return
		}
		grp := g.groups[0]
		if len(g.groups) > 1 {
			if grp = g.route(w, raw, rank); grp == nil {
				return
			}
		}
		if g.edgeShed(w, c, grp) {
			return
		}
		rep := grp.readTarget()
		u := rep.predictURL
		if rank {
			u = rep.rankURL
		}
		g.forward(w, r, c, http.MethodPost, rep, u, raw)
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
		g.unavailable(w)
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
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/api/v1/cluster/status", nil)
	if err != nil {
		return
	}
	start := time.Now()
	resp, err := g.http.Do(req)
	g.probeLatency.Observe(time.Since(start).Seconds())
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		g.probeErrors.Inc()
		fails := rep.fails.Add(1)
		switch {
		case int(fails) >= g.cfg.DownAfter:
			rep.health.Store(int32(Down))
		default:
			rep.health.Store(int32(Suspect))
		}
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
	rep.shedRate.Store(math.Float64bits(st.ShedRate))
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
		if err := g.postJSON(ctx, controlCall, rep.url+"/api/v1/demote",
			map[string]string{"leader": winner.url}, nil); err != nil {
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

// failover promotes the healthiest follower — the one with the highest
// applied sequence, so the least replicated work is lost — and points
// the surviving followers at it.
func (g *Gateway) failover(grp *group) {
	var candidate *replica
	for _, rep := range grp.replicas {
		if rep.Health() != Healthy || rep.role.Load() == 1 {
			continue
		}
		// A fenced replica is a demoted ex-leader that lost the durable
		// directory to a newer claimant; promoting it would re-grab the
		// lock over the legitimate owner's head, round after round.
		if rep.fenced.Load() {
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
	if err := g.postJSON(ctx, controlCall, candidate.url+"/api/v1/promote", struct{}{}, nil); err != nil {
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
		if err := g.postJSON(ctx, controlCall, rep.url+"/api/v1/cluster/leader",
			map[string]string{"leader": candidate.url}, nil); err != nil {
			g.log.Warn("re-pointing follower failed", "follower", rep.url, "err", err)
		}
	}
}
