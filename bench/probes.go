package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"time"

	"github.com/qoslab/amf/internal/cluster"
	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/engine"
	"github.com/qoslab/amf/internal/matrix"
	"github.com/qoslab/amf/internal/obs"
	"github.com/qoslab/amf/internal/obs/trace"
	"github.com/qoslab/amf/internal/registry"
	"github.com/qoslab/amf/internal/server"
	"github.com/qoslab/amf/internal/stats"
	"github.com/qoslab/amf/internal/store"
	"github.com/qoslab/amf/internal/stream"
)

// How the traced run spends --seconds, and how much it samples where a
// count is steadier than a duration.
const (
	untracedShare = 0.20 // the same loop as the timed run, spans off
	tracedShare   = 0.20 // the same ops again, spans on
	directShare   = 0.10 // straight into server.Handler()
	wireShare     = 0.10 // over loopback listeners
	maxTracedOps  = 20000
	siblingCalls  = 200 // ObserveAllTraced calls beside the traced ops
	allocRequests = 200 // requests per kind for the allocs-per-op probes
	idleWindow    = 2 * time.Second
)

// layer collects the per-layer metrics of a traced run by name.
type layer map[string]float64

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func p50us(ns []uint32) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := slices.Clone(ns)
	slices.Sort(s)
	return float64(quantileSorted(s, 0.5)) / 1e3
}

func p50dur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return quantileSorted(s, 0.5)
}

// scaleAll expresses every latency in quiet-host time.
func scaleAll(byKind *[numOps][]uint32, slowBy float64) {
	for k := range byKind {
		for i, ns := range byKind[k] {
			byKind[k][i] = clampNs(onQuietHost(time.Duration(ns), slowBy))
		}
	}
}

// tracedRun replays the workload's stream through S with a span around
// every call from one layer into the next, probes each layer's public
// functions on the same view and users, and prints the ledger.
func tracedRun(w workloadSpec, seed int64, seconds float64) (*result, error) {
	in, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	ring, err := buildRing(in.ring)
	if err != nil {
		return nil, err
	}
	root := dataRoot()
	header(w, seed, root)
	share := func(x float64) time.Duration { return time.Duration(x * seconds * float64(time.Second)) }

	tr := &tracer{}
	s, c, _, err := setUp(in, root, nil, stackOptions{
		// Only requests the gateway stamped belong to an op; its health
		// probes travel the same transport untraced.
		around: func(req *http.Request, call func()) {
			if len(req.Header[trace.Header]) == 0 {
				call()
				return
			}
			sp := tr.begin("server")
			call()
			tr.end(sp)
		},
		journal: func(wal *store.WAL) engine.Journal { return tracedJournal{wal, tr} },
	})
	if err != nil {
		return nil, err
	}
	defer func() { tearDown(s) }()
	L := layer{}
	var ck checks
	eng, met := s.svc.Engine(), s.mgr.Metrics()

	// Phase A: spans off. This is the timed run's loop on this S; its p50
	// is what the traced p50 is compared with.
	var plain, traced, direct, wire [numOps][]uint32
	// The phases and probes below run minutes apart on a host whose speed
	// drifts. The reference work runs beside each of them, and each is
	// scaled to the quiet host by the slowdown of its own moment (calib.go).
	meter := newSpeedometer()
	c.byKind, c.meter = &plain, meter
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	a := c.drive(ring, 0, share(untracedShare), 0, nil)
	runtime.ReadMemStats(&m1)
	slowA := a.ref.slowdown()
	scaleAll(&plain, slowA)
	L["client.host_slowdown"] = slowA
	L["client.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	L["client.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	slices.Sort(a.lat)
	L["client.latency_p999_us"] = float64(quantileSorted(a.lat, 0.999)) / 1e3 / slowA

	// Phase B: the same ops with spans on, and the counters the layers
	// keep themselves read before and after.
	c.byKind, c.tr = &traced, tr
	pub0, fsync0, bytes0 := eng.Stats().Published, met.Fsync.Count(), met.Bytes.Load()
	tr.enable(true)
	b := c.drive(ring, a.next, share(tracedShare), maxTracedOps, nil)
	tr.enable(false)
	c.tr, c.meter = nil, nil
	slowB := b.ref.slowdown()
	scaleAll(&traced, slowB)
	for i := range tr.spans {
		tr.spans[i].Start, tr.spans[i].End = onQuietHost(tr.spans[i].Start, slowB), onQuietHost(tr.spans[i].End, slowB)
	}
	observes := len(traced[opObserve])
	if observes > 0 {
		L["engine.publishes_per_observe"] = float64(eng.Stats().Published-pub0) / float64(observes)
		L["store.fsyncs_per_observe"] = float64(met.Fsync.Count()-fsync0) / float64(observes)
		L["store.wal_bytes_per_sample"] = float64(met.Bytes.Load()-bytes0) / float64(b.observed)
		ck.expect(met.Fsync.Count() > fsync0, "no WAL fsync during %d traced observes", observes)
	} else {
		ck.expect(met.Bytes.Load() == bytes0, "read-only workload wrote %d WAL bytes", met.Bytes.Load()-bytes0)
	}
	tracedSpans := len(tr.spans)

	// Sibling probe of the engine: the same public call the observe
	// handler makes, on the next batches of the stream.
	var sib []observeSibling
	if w.writes {
		if sib, err = siblingObserves(in, s, tr, b.next, meter); err != nil {
			return nil, err
		}
		engineTerms(L, sib)
	}

	// Phase D: the same ops straight into the server's handler.
	dc := newClient(s.svc.Handler())
	dc.byKind, dc.meter = &direct, meter
	d := dc.drive(ring, b.next+siblingCalls, share(directShare), 0, nil)
	dc.meter = nil
	scaleAll(&direct, d.ref.slowdown())

	// The service at rest: replay and its republishing are all that runs.
	cpu0 := cpuTime()
	time.Sleep(idleWindow)
	L["engine.idle_cpu_share"] = float64(cpuTime()-cpu0) / float64(idleWindow)
	_, idleBytes := atRest(s)
	L["engine.idle_alloc_mb_per_s"] = idleBytes / (1 << 20)

	if err := wireProbe(in, s, d.next, share(wireShare), &wire, meter); err != nil {
		return nil, err
	}

	// Everything below counts allocations or times kernels, so the
	// background replay (and the views it republishes) stops here.
	s.stopReplay()
	byKind := requestsByKind(ring)
	for k := opKind(0); k < numOps; k++ {
		if len(byKind[k]) == 0 {
			continue
		}
		allocs, bytes := allocsPerRequest(dc, byKind[k])
		L["server.allocs_per_op."+k.String()] = allocs
		L["server.alloc_bytes_per_op."+k.String()] = bytes
		if L["cluster.allocs_per_op."+k.String()], err = cannedGatewayAllocs(c, byKind[k]); err != nil {
			return nil, err
		}
	}
	if err := kernelProbes(L, in, s, meter); err != nil {
		return nil, err
	}
	L["client.overhead_ns_per_op"] = clientOverhead(c, byKind, meter)
	if L["server.gate_ns_per_req"], err = gateProbe(in, meter); err != nil {
		return nil, err
	}
	modelProbes(L, in, meter)
	if err := storeProbes(L, in, s, &ck, meter); err != nil {
		return nil, err
	}

	// The ledger: one line per op kind the workload issues.
	spans := tr.spans[:tracedSpans]
	self := selfTimes(spans)
	var clusterSelf, serverSpan [numOps][]time.Duration
	var appendDur, waitDur []time.Duration
	for i, sp := range spans {
		switch {
		case sp.Parent < 0:
			k := opKind(slices.Index(opNames, strings.TrimPrefix(sp.Name, "gateway.")))
			clusterSelf[k] = append(clusterSelf[k], self[i])
		case sp.Name == "server":
			k := opKind(slices.Index(opNames, strings.TrimPrefix(spans[sp.Parent].Name, "gateway.")))
			serverSpan[k] = append(serverSpan[k], sp.dur())
		case sp.Name == "store.append":
			appendDur = append(appendDur, sp.dur())
		case sp.Name == "store.wait_durable":
			waitDur = append(waitDur, sp.dur())
		}
	}
	L["store.append_p50_us"] = us(p50dur(appendDur))
	L["store.wait_durable_p50_us"] = us(p50dur(waitDur))
	var plainAll, tracedAll []uint32
	fmt.Println("ledger (us, p50): op = cluster.self + server.self + children + unaccounted")
	for k := opKind(0); k < numOps; k++ {
		name := k.String()
		if len(traced[k]) == 0 {
			continue
		}
		plainAll, tracedAll = append(plainAll, plain[k]...), append(tracedAll, traced[k]...)
		op := p50us(traced[k])
		L["client.p50_us."+name] = op
		L["client.wire_p50_us."+name] = p50us(wire[k])
		L["client.wire_residual_us."+name] = p50us(wire[k]) - p50us(plain[k])
		if dp := p50us(direct[k]); dp > 0 {
			L["cluster.overhead_pct."+name] = 100 * (p50us(plain[k]) - dp) / dp
		}
		cs := us(p50dur(clusterSelf[k]))
		L["cluster.self_p50_us."+name] = cs
		terms := childTerms(L, k, byKind[k][0].want)
		sum := 0.0
		for _, t := range terms {
			sum += t.us
		}
		ss := max(us(p50dur(serverSpan[k]))-sum, 0)
		L["server.self_p50_us."+name] = ss
		un := op - cs - ss - sum
		L["ledger.unaccounted_pct."+name] = 100 * un / op
		fmt.Printf("  %s/%s: op %.2f = cluster.self %.2f + server.self %.2f", w.name, name, op, cs, ss)
		for _, t := range terms {
			fmt.Printf(" + %s %.2f", t.name, t.us)
		}
		fmt.Printf(" + unaccounted %.2f (%.1f%%)\n", un, 100*un/op)
	}
	if p := p50us(plainAll); p > 0 {
		L["client.trace_overhead_pct"] = 100 * (p50us(tracedAll) - p) / p
	}
	path, err := tr.write(fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
	if err != nil {
		return nil, err
	}
	fmt.Printf("%d spans of %d traced ops written to %s\n", len(tr.spans), b.ops, path)

	res := &result{
		Attempted: c.attempted + dc.attempted + ck.attempted,
		Failed:    c.failed + dc.failed + len(ck.failures),
		Metrics:   make(map[string]metricValue),
	}
	res.Correct = res.Failed == 0
	for _, cl := range []*client{c, dc} {
		if cl.firstErr != nil {
			fmt.Println("FAILED op:", cl.firstErr)
		}
	}
	for _, f := range ck.failures {
		fmt.Println("FAILED check:", f)
	}
	specs := perLayer()
	for _, m := range specs {
		res.set(specs, m.name, L[m.name])
		fmt.Printf("  %-36s %14.4f %s\n", m.name, L[m.name], m.unit)
	}
	return res, nil
}

func requestsByKind(ring []builtCycle) (out [numOps][]*builtRequest) {
	for i := range ring {
		for j := range ring[i].reqs {
			r := &ring[i].reqs[j]
			if len(out[r.kind]) < allocRequests {
				out[r.kind] = append(out[r.kind], r)
			}
		}
	}
	return out
}

// term is one child entry of a ledger line.
type term struct {
	name string
	us   float64
}

// childTerms lists what the server handler of op k calls into, priced
// with the sibling probes: n is the op's batch, candidate or top-k count.
func childTerms(L layer, k opKind, n int) []term {
	lookup, predict := L["registry.lookup_ns"]/1e3, L["core.predict_ns"]/1e3
	switch k {
	case opPredict:
		return []term{{"core.predict", predict}, {"registry", 2 * lookup}}
	case opBatch:
		return []term{{"core.predict", float64(n) * predict}, {"registry", float64(n) * lookup}}
	case opRankCand:
		return []term{{"core.topk_cand", L["core.topk_cand_p50_us"]}, {"registry", float64(rankCandidates+n) * lookup}}
	case opRankAll:
		return []term{{"core.topk_all", L["core.topk_all_p50_us"]}, {"registry", float64(n) * lookup}}
	}
	// observe: scoring against the old view, two registrations per
	// sample, then the engine's stages with the store's share taken out.
	return []term{
		{"core.predict", float64(n) * predict},
		{"registry", 2 * float64(n) * lookup},
		{"engine.queue_wait", L["engine.queue_wait_p50_us"]},
		{"engine.journal-store", max(L["engine.journal_p50_us"]-L["store.append_p50_us"], 0)},
		{"store.append", L["store.append_p50_us"]},
		{"engine.apply", L["engine.apply_p50_us"]},
		{"engine.publish", L["engine.publish_p50_us"]},
		{"engine.commit_wait-store", max(L["engine.commit_wait_p50_us"]-L["store.wait_durable_p50_us"], 0)},
		{"store.wait_durable", L["store.wait_durable_p50_us"]},
	}
}

// ---------------------------------------------------------------------------
// engine

type observeSibling struct {
	tm engine.ObserveTiming
	n  int
}

// ids fetches the name → model ID directory through the server's own API.
func ids(s *stack, path string) (map[string]int, error) {
	c := newClient(s.svc.Handler())
	var list []server.EntityInfo
	if err := c.get(request{kind: numOps, method: "GET", path: path}, &list); err != nil {
		return nil, err
	}
	out := make(map[string]int, len(list))
	for _, e := range list {
		out[e.Name] = e.ID
	}
	return out, nil
}

// siblingObserves calls Engine.ObserveAllTraced, the call the observe
// handler makes for every gateway request, on the observe batches that
// follow the traced ops in the stream.
func siblingObserves(in *inputs, s *stack, tr *tracer, from int, meter *speedometer) ([]observeSibling, error) {
	users, err := ids(s, "/api/v1/users")
	if err != nil {
		return nil, err
	}
	services, err := ids(s, "/api/v1/services")
	if err != nil {
		return nil, err
	}
	var out []observeSibling
	var ref refTime
	first := len(tr.spans)
	tr.enable(true)
	defer tr.enable(false)
	for i := 0; i < siblingCalls; i++ {
		r := in.ring[(from+i)%len(in.ring)].reqs[0]
		if r.kind != opObserve {
			return nil, fmt.Errorf("op %d does not start with an observe", from+i)
		}
		var body server.ObserveRequest
		if err := json.Unmarshal(r.body, &body); err != nil {
			return nil, err
		}
		ss := make([]stream.Sample, len(body.Observations))
		for j, o := range body.Observations {
			ss[j] = stream.Sample{Time: time.Duration(i) * time.Millisecond, User: users[o.User], Service: services[o.Service], Value: o.Value}
		}
		sp := tr.begin("probe.observe")
		tm := s.svc.Engine().ObserveAllTraced(ss)
		tr.end(sp)
		out = append(out, observeSibling{tm, len(ss)})
		ref.add(meter.slice())
	}
	slowBy := ref.slowdown()
	for i := range out {
		tm := &out[i].tm
		tm.QueueWait, tm.Journal, tm.Apply = onQuietHost(tm.QueueWait, slowBy), onQuietHost(tm.Journal, slowBy), onQuietHost(tm.Apply, slowBy)
		tm.Publish, tm.CommitWait = onQuietHost(tm.Publish, slowBy), onQuietHost(tm.CommitWait, slowBy)
	}
	for i := first; i < len(tr.spans); i++ {
		tr.spans[i].Start, tr.spans[i].End = onQuietHost(tr.spans[i].Start, slowBy), onQuietHost(tr.spans[i].End, slowBy)
	}
	return out, nil
}

func engineTerms(L layer, sib []observeSibling) {
	var qw, jr, ap, pb, cw []time.Duration
	for _, o := range sib {
		qw, jr, ap = append(qw, o.tm.QueueWait), append(jr, o.tm.Journal), append(ap, o.tm.Apply)
		pb, cw = append(pb, o.tm.Publish), append(cw, o.tm.CommitWait)
	}
	L["engine.queue_wait_p50_us"] = us(p50dur(qw))
	L["engine.journal_p50_us"] = us(p50dur(jr))
	L["engine.apply_p50_us"] = us(p50dur(ap))
	L["engine.publish_p50_us"] = us(p50dur(pb))
	L["engine.commit_wait_p50_us"] = us(p50dur(cw))
	L["engine.apply_ns_per_sample"] = float64(p50dur(ap)) / float64(sib[0].n)
}

// ---------------------------------------------------------------------------
// client: sockets, and the harness's own cost

// wireProbe runs the stream over real loopback listeners in front of the
// gateway and the server. Ungated: PR 11 showed this host cannot repeat it.
func wireProbe(in *inputs, s *stack, from int, d time.Duration, out *[numOps][]uint32, meter *speedometer) error {
	backend := httptest.NewServer(s.svc.Handler())
	defer backend.Close()
	gw, err := cluster.New(cluster.Config{
		Groups: [][]string{{backend.URL}}, VNodes: gatewayVNodes, ProbeInterval: probeInterval,
		DownAfter: gatewayDownAfter, FanOutThreshold: gatewayFanout, Logger: quiet,
	})
	if err != nil {
		return err
	}
	defer gw.Close()
	front := httptest.NewServer(gw.Handler())
	defer front.Close()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer hc.CloseIdleConnections()
	wc := wireClient{hc: hc, base: front.URL}
	var sendErr error
	slowBy := meter.around(func() {
		for begin, i := time.Now(), from; time.Since(begin) < d && sendErr == nil; i++ {
			for j := range in.ring[i%len(in.ring)].reqs {
				r := &in.ring[i%len(in.ring)].reqs[j]
				t0 := time.Now()
				if sendErr = wc.send(r); sendErr != nil {
					break
				}
				out[r.kind] = append(out[r.kind], clampNs(time.Since(t0)))
			}
		}
	})
	if sendErr != nil {
		return fmt.Errorf("over loopback: %w", sendErr)
	}
	scaleAll(out, slowBy)
	return nil
}

// cannedHandler answers every request with a recorded correct response.
type cannedHandler struct{ body []byte }

func (h *cannedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header()["Content-Type"] = []string{"application/json"}
	w.Write(h.body)
}

// clientOverhead is the mean cost of one pass of the client loop —
// request rewind, two clock reads, response check — against a handler
// that only copies a recorded answer.
func clientOverhead(c *client, byKind [numOps][]*builtRequest, meter *speedometer) float64 {
	var total time.Duration
	n := 0
	slowBy := meter.around(func() { total, n = clientLoopCost(c, byKind) })
	return float64(total) / float64(n) / slowBy
}

func clientLoopCost(c *client, byKind [numOps][]*builtRequest) (total time.Duration, n int) {
	for k := range byKind {
		if len(byKind[k]) == 0 {
			continue
		}
		c.send(byKind[k][0]) // leaves a correct response in c.rec
		stub := newClient(&cannedHandler{body: bytes.Clone(c.rec.buf.Bytes())})
		const laps = 50
		begin := time.Now()
		for lap := 0; lap < laps; lap++ {
			for _, r := range byKind[k] {
				stub.send(r)
			}
		}
		total += time.Since(begin)
		n += laps * len(byKind[k])
	}
	return total, n
}

func mallocs() (count, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// allocsPerRequest is the process's allocation count and bytes per
// request while c sends reqs and nothing else runs.
func allocsPerRequest(c *client, reqs []*builtRequest) (count, bytes float64) {
	c.send(reqs[0]) // grow the client's buffers first
	n0, b0 := mallocs()
	for _, r := range reqs {
		c.send(r)
	}
	n1, b1 := mallocs()
	return float64(n1-n0) / float64(len(reqs)), float64(b1-b0) / float64(len(reqs))
}

// cannedGatewayAllocs is what the gateway alone allocates per request: a
// gateway of its own whose backend transport returns a recorded response.
func cannedGatewayAllocs(c *client, reqs []*builtRequest) (float64, error) {
	c.send(reqs[0])
	answer := &cannedHandler{body: bytes.Clone(c.rec.buf.Bytes())}
	status, err := json.Marshal(server.ClusterStatusResponse{Role: "leader"})
	if err != nil {
		return 0, err
	}
	mux := http.NewServeMux()
	mux.Handle("GET /api/v1/cluster/status", &cannedHandler{body: status})
	mux.Handle("/", answer)
	gw, err := cluster.New(cluster.Config{
		Groups: [][]string{{leaderURL}}, VNodes: gatewayVNodes, ProbeInterval: time.Hour,
		DownAfter: gatewayDownAfter, FanOutThreshold: gatewayFanout, Logger: quiet,
		HTTP: &http.Client{Transport: &inproc{h: mux}},
	})
	if err != nil {
		return 0, err
	}
	defer gw.Close()
	allocs, _ := allocsPerRequest(newClient(gw.Handler()), reqs)
	return allocs, nil
}

// gateProbe prices the SLO admission gate: the same predicts against two
// small servers, one with EnableAdmission, in alternating blocks.
func gateProbe(in *inputs, meter *speedometer) (float64, error) {
	var clients [2]*client
	var reqs []*builtRequest
	for i := range clients {
		model, err := core.New(core.DefaultConfig(dataset.ResponseTime.DefaultAlpha(), rtMin, rtMax))
		if err != nil {
			return 0, err
		}
		svc := server.New(model, server.WithLogger(quiet))
		defer svc.Close()
		if i == 1 {
			svc.EnableAdmission(server.AdmissionConfig{})
		}
		clients[i] = newClient(svc.Handler())
		b, err := build("http://server", in.preload[0])
		if err != nil {
			return 0, err
		}
		if _, err := clients[i].send(&b); err != nil {
			return 0, err
		}
	}
	var first server.ObserveRequest
	if err := json.Unmarshal(in.preload[0].body, &first); err != nil {
		return 0, err
	}
	for _, o := range first.Observations[:200] {
		b, err := build("http://server", request{kind: opPredict, method: "GET", want: 1,
			path: "/api/v1/predict?user=" + o.User + "&service=" + o.Service})
		if err != nil {
			return 0, err
		}
		reqs = append(reqs, &b)
	}
	var spent [2]time.Duration
	const blocks = 40
	slowBy := meter.around(func() {
		for blk := 0; blk < blocks; blk++ {
			for i, c := range clients {
				begin := time.Now()
				for _, r := range reqs {
					c.send(r)
				}
				spent[i] += time.Since(begin)
			}
		}
	})
	if clients[0].failed+clients[1].failed > 0 {
		return 0, fmt.Errorf("gate probe: %v %v", clients[0].firstErr, clients[1].firstErr)
	}
	return float64(spent[1]-spent[0]) / float64(blocks*len(reqs)) / slowBy, nil
}

// ---------------------------------------------------------------------------
// core, matrix, registry, obs: the public functions the handlers call, on
// the view S serves and the users the stream asks about.

// around runs f with three reference slices before and after it and returns
// how much slower than quiet the host was meanwhile. The traced run's
// phases and probes run minutes apart; scaling each by the slowdown of its
// own moment is what lets their times be added up in one ledger.
func (m *speedometer) around(f func()) float64 {
	var ref refTime
	for i := 0; i < 3; i++ {
		ref.add(m.slice())
	}
	f()
	for i := 0; i < 3; i++ {
		ref.add(m.slice())
	}
	return ref.slowdown()
}

// perCall times f over rounds of n calls, a reference slice between
// rounds, and returns the median round's quiet-host nanoseconds per call;
// for calls too short to time one by one.
func (m *speedometer) perCall(rounds, n int, f func(i int)) float64 {
	per := make([]float64, rounds)
	var ref refTime
	for r := range per {
		ref.add(m.slice())
		begin := time.Now()
		for i := 0; i < n; i++ {
			f(r*n + i)
		}
		per[r] = float64(time.Since(begin)) / float64(n)
	}
	return stats.Median(per) / ref.slowdown()
}

// each times every call of f on its own, a reference slice every few
// calls, and returns the quiet-host p50.
func (m *speedometer) each(n int, f func(i int)) time.Duration {
	ds := make([]time.Duration, n)
	var ref refTime
	for i := range ds {
		if i%(n/16+1) == 0 {
			ref.add(m.slice())
		}
		begin := time.Now()
		f(i)
		ds[i] = time.Since(begin)
	}
	return onQuietHost(p50dur(ds), ref.slowdown())
}

var sink float64 // keeps probe results alive

func kernelProbes(L layer, in *inputs, s *stack, meter *speedometer) error {
	users, err := ids(s, "/api/v1/users")
	if err != nil {
		return err
	}
	services, err := ids(s, "/api/v1/services")
	if err != nil {
		return err
	}
	view := s.svc.Engine().View()
	rng := rand.New(rand.NewSource(1))
	uid := make([]int, 256)
	for i := range uid {
		uid[i] = users[in.users[in.ring[i%len(in.ring)].user]]
	}
	sid := make([]int, in.w.services)
	for i, name := range in.services {
		sid[i] = services[name]
	}
	rng.Shuffle(len(sid), func(i, j int) { sid[i], sid[j] = sid[j], sid[i] })

	L["core.predict_ns"] = meter.perCall(21, 2000, func(i int) {
		v, _, _ := view.PredictWithConfidence(uid[i%len(uid)], sid[i%len(sid)])
		sink += v
	})
	all := meter.each(301, func(i int) { sink += view.TopKAll(uid[i%len(uid)], rankAllTopK, true, 1)[0].Value })
	L["core.topk_all_p50_us"] = us(all)
	L["core.scan_ns_per_service"] = float64(all) / float64(view.NumServices())
	L["core.topk_cand_p50_us"] = us(meter.each(301, func(i int) {
		lo := (i * 37) % (len(sid) - rankCandidates)
		r, _ := view.TopK(uid[i%len(uid)], sid[lo:lo+rankCandidates], rankCandTopK, true)
		sink += r[0].Value
	}))
	dst := make([]float64, batchCandidates)
	L["core.predict_batch_p50_us"] = us(meter.each(301, func(i int) {
		lo := (i * 37) % (len(sid) - batchCandidates)
		if err := view.PredictBatch(uid[i%len(uid)], sid[lo:lo+batchCandidates], dst); err == nil {
			sink += dst[0]
		}
	}))

	// The registry's own cost, on a registry holding the same names.
	reg := registry.New()
	for _, name := range in.services {
		reg.Register(name)
	}
	L["registry.lookup_ns"] = meter.perCall(21, 2000, func(i int) {
		id, _ := reg.Lookup(in.services[(i*7919)%len(in.services)])
		sink += float64(id)
	})

	// The kernels under the scan, at the view's rank and catalog size.
	rank := view.Config().Rank
	rows := in.w.services
	block := make([]float64, rows*rank)
	block32 := make([]float32, rows*rank)
	for i := range block {
		block[i] = rng.Float64()
		block32[i] = float32(block[i])
	}
	q, q32 := block[:rank], block32[:rank]
	out, out32 := make([]float64, rows), make([]float32, rows)
	L["matrix.dot_ns"] = meter.perCall(21, 2000, func(i int) {
		lo := (i % rows) * rank
		sink += matrix.Dot(block[lo:lo+rank], q)
	})
	L["matrix.dotbatch_ns_per_row"] = float64(meter.each(101, func(int) { matrix.DotBatch(out, block, q) })) / float64(rows)
	L["matrix.dotbatch32_ns_per_row"] = float64(meter.each(101, func(int) { matrix.DotBatch32(out32, block32, q32) })) / float64(rows)
	L["matrix.scan_bytes"] = float64(rows * rank * 8) // computed, not measured

	h := obs.NewHistogram(1e-6, 60, 8)
	L["obs.histogram_observe_ns"] = meter.perCall(21, 2000, func(i int) { h.Observe(float64(1+i%1000) * 1e-6) })
	return nil
}

// modelProbes times core.Model itself — Observe, RefreshView, BuildView —
// on a model of its own taught the same preload (the engine owns S's).
func modelProbes(L layer, in *inputs, meter *speedometer) {
	model := core.MustNew(core.DefaultConfig(dataset.ResponseTime.DefaultAlpha(), rtMin, rtMax))
	var pre []stream.Sample
	for _, r := range in.preload {
		pre = append(pre, samplesOf(in, r, 0)...)
	}
	var teach time.Duration
	slowBy := meter.around(func() {
		begin := time.Now()
		for _, sm := range pre {
			model.Observe(sm)
		}
		teach = time.Since(begin)
	})
	L["core.observe_ns_per_sample"] = float64(teach) / float64(len(pre)) / slowBy
	var view *core.PredictView
	L["core.build_view_ms"] = float64(meter.each(5, func(int) { view = model.BuildView() })) / 1e6
	var batches [][]stream.Sample
	for i := 0; len(batches) < 101 && i < len(in.ring); i++ {
		if r := in.ring[i].reqs[0]; r.kind == opObserve {
			batches = append(batches, samplesOf(in, r, time.Duration(i+1)*time.Millisecond))
		}
	}
	if len(batches) == 0 { // a read workload: dirty the view as a 64-sample observe would
		for i := 0; i < 101; i++ {
			batches = append(batches, pre[i*observeBatch:(i+1)*observeBatch])
		}
	}
	refresh := make([]time.Duration, len(batches))
	slowBy = meter.around(func() {
		for i, ss := range batches {
			for _, sm := range ss {
				model.Observe(sm)
			}
			begin := time.Now()
			view = model.RefreshView(view)
			refresh[i] = time.Since(begin)
		}
	})
	L["core.refresh_view_p50_us"] = us(onQuietHost(p50dur(refresh), slowBy))
}

// samplesOf decodes an observe request into model samples, with the
// dataset's own indices as IDs.
func samplesOf(in *inputs, r request, at time.Duration) []stream.Sample {
	var body server.ObserveRequest
	if err := json.Unmarshal(r.body, &body); err != nil {
		panic(err) // the harness encoded it
	}
	out := make([]stream.Sample, len(body.Observations))
	for i, o := range body.Observations {
		u, _ := slices.BinarySearch(in.users, o.User)
		sv, _ := slices.BinarySearch(in.services, o.Service)
		out[i] = stream.Sample{Time: at, User: u, Service: sv, Value: o.Value}
	}
	return out
}

// ---------------------------------------------------------------------------
// store

// storeProbes closes S as a crash would and times the reopen (checkpoint
// load + WAL replay), a checkpoint of the recovered state, and the same
// WAL's durable append on the disk under out/.
func storeProbes(L layer, in *inputs, s *stack, ck *checks, meter *speedometer) error {
	s.close()
	var (
		re   *stack
		err  error
		took time.Duration
	)
	slowBy := meter.around(func() {
		begin := time.Now()
		re, err = newStack(s.dir, stackOptions{})
		took = time.Since(begin)
	})
	if err != nil {
		return fmt.Errorf("reopen %s: %w", s.dir, err)
	}
	L["store.recovery_s"] = onQuietHost(took, slowBy).Seconds()
	defer re.close()
	ck.expect(re.rs.HaveCheckpoint || re.rs.Samples >= in.samples,
		"recovered %d samples from the WAL, preload alone acked %d", re.rs.Samples, in.samples)
	slowBy = meter.around(func() {
		begin := time.Now()
		err = re.mgr.Checkpoint()
		took = time.Since(begin)
	})
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	L["store.checkpoint_s"] = onQuietHost(took, slowBy).Seconds()

	dir, err := scratchDir(outDir)
	if err != nil {
		return err
	}
	defer live.remove(dir)
	wal, err := store.OpenWAL(dir, store.WALOptions{Sync: store.SyncGroup, Logger: quiet})
	if err != nil {
		return err
	}
	defer wal.Close()
	batch := samplesOf(in, in.preload[0], 0)[:observeBatch]
	var firstErr error
	L["store.fsync_disk_p50_us"] = us(meter.each(101, func(int) {
		seq, err := wal.AppendSamples(batch)
		if err == nil {
			err = wal.WaitDurable(seq)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}))
	return firstErr
}
