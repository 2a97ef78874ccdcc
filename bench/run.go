package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/qoslab/amf/internal/server"
	"github.com/qoslab/amf/internal/stats"
)

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) set(specs []metricSpec, name string, v float64) {
	for _, m := range specs {
		if m.name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: m.unit}
			return
		}
	}
	panic("metric " + name + " is not in the spec")
}

// checks tallies the output checks that are not per-response: each is one
// more attempted operation, and a failed one makes the run incorrect.
type checks struct {
	attempted int
	failures  []string
}

func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// setUp assembles S in a fresh data directory, sends the preload through
// the gateway and waits for the view that holds it: everything a restart
// of the service costs before it can serve the workload.
func setUp(in *inputs, root string, meter *speedometer, opt stackOptions) (*stack, *client, time.Duration, error) {
	start := time.Now()
	var ref refTime
	dir, err := scratchDir(root)
	if err != nil {
		return nil, nil, 0, err
	}
	s, err := newStack(dir, opt)
	if err != nil {
		live.remove(dir)
		return nil, nil, 0, err
	}
	c := newClient(s.gw.Handler())
	for _, r := range in.preload {
		b, err := build("http://gateway", r)
		if err == nil {
			_, err = c.send(&b)
		}
		if err != nil {
			tearDown(s)
			return nil, nil, 0, fmt.Errorf("preload: %w", err)
		}
		if meter != nil {
			ref.add(meter.slice())
		}
	}
	// Observes are acked only after their view is published, so the view
	// is there; this is the check that it holds the whole preload.
	if v := s.svc.Engine().View(); v.NumUsers() != in.w.users || v.NumServices() != in.w.services {
		tearDown(s)
		return nil, nil, 0, fmt.Errorf("preload: view has %d users x %d services, want %d x %d",
			v.NumUsers(), v.NumServices(), in.w.users, in.w.services)
	}
	c.attempted, c.failed = 0, 0 // the preload is set-up, not measured ops
	c.meter = meter
	return s, c, onQuietHost(time.Since(start)-ref.spent, ref.slowdown()), nil
}

func tearDown(s *stack) {
	s.close()
	live.remove(s.dir)
}

// window is what one measured stretch of the closed loop saw.
type window struct {
	lat      []uint32 // ns per op, in arrival order
	ops      int
	correct  int
	elapsed  time.Duration // spent on ops: the reference work's time is taken out
	observed int           // samples acked by observe requests
	next     int           // ring position after the last op
	ref      refTime
}

// drive runs ops from ring position start for d, or until maxOps when
// that is not 0, appending each op's latency to lat. With a speedometer
// on the client it slips a slice of reference work between ops every
// refEvery, so the stretch knows how fast the host was while it ran.
func (c *client) drive(ring []builtCycle, start int, d time.Duration, maxOps int, lat []uint32) window {
	w := window{lat: lat, next: start}
	begin := time.Now()
	deadline, lastRef := begin.Add(d), begin
	for {
		op := &ring[w.next%len(ring)]
		took, ok := c.do(op)
		w.lat = append(w.lat, clampNs(took))
		w.ops++
		w.next++
		if ok {
			w.correct++
			for i := range op.reqs {
				if op.reqs[i].kind == opObserve {
					w.observed += op.reqs[i].want
				}
			}
		}
		now := time.Now()
		if !now.Before(deadline) || w.ops == maxOps {
			w.elapsed = now.Sub(begin) - w.ref.spent
			return w
		}
		if c.meter != nil && now.Sub(lastRef) >= refEvery {
			w.ref.add(c.meter.slice())
			lastRef = time.Now()
		}
	}
}

// part is one stretch of the timed window, its times already scaled to a
// quiet host (see calib.go).
type part struct {
	lat     []uint32
	ops     int
	correct int
	elapsed time.Duration
	cpu     time.Duration
}

// groupParts merges consecutive parts until every group holds at least
// minOps ops, so that a group's p99 has ten samples beyond it; what is
// left over joins the last group.
func groupParts(parts []part, minOps int) []part {
	var out []part
	var cur part
	for _, p := range parts {
		cur.lat = append(cur.lat[:len(cur.lat):len(cur.lat)], p.lat...)
		cur.ops, cur.correct = cur.ops+p.ops, cur.correct+p.correct
		cur.elapsed, cur.cpu = cur.elapsed+p.elapsed, cur.cpu+p.cpu
		if cur.ops >= minOps {
			out, cur = append(out, cur), part{}
		}
	}
	if cur.ops > 0 {
		if len(out) == 0 {
			return []part{cur}
		}
		last := &out[len(out)-1]
		last.lat = append(last.lat[:len(last.lat):len(last.lat)], cur.lat...)
		last.ops, last.correct = last.ops+cur.ops, last.correct+cur.correct
		last.elapsed, last.cpu = last.elapsed+cur.elapsed, last.cpu+cur.cpu
	}
	return out
}

// partsMedian is the median over stretches of a per-stretch figure. One
// second in which the host was elsewhere moves one stretch, not the
// result; a change to the program moves every stretch, and so the median.
func partsMedian(groups []part, f func(part) float64) float64 {
	v := make([]float64, len(groups))
	for i, g := range groups {
		v[i] = f(g)
	}
	return stats.Median(v)
}

// atRest returns what S allocates per second (count, bytes) while no
// client runs. It counts over whole replay ticks — from one republished
// view to the restTicks-th after it — so that the figure does not depend
// on where in a tick the watch began.
func atRest(s *stack) (count, bytes float64) {
	eng := s.svc.Engine()
	giveUp := time.Now().Add(restTicks * 4 * replayInterval)
	tick := func() {
		for p := eng.Stats().Published; eng.Stats().Published == p && time.Now().Before(giveUp); {
			time.Sleep(time.Millisecond)
		}
	}
	var m0, m1 runtime.MemStats
	tick()
	begin := time.Now()
	runtime.ReadMemStats(&m0)
	for i := 0; i < restTicks; i++ {
		tick()
	}
	runtime.ReadMemStats(&m1)
	secs := time.Since(begin).Seconds()
	return float64(m1.Mallocs-m0.Mallocs) / secs, float64(m1.TotalAlloc-m0.TotalAlloc) / secs
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB is the process's resident-set high-water mark (VmHWM).
func rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// measured is the timed window: its stretches with their times scaled to
// the quiet host, and the totals as timed.
type measured struct {
	win        window
	parts      []part
	slow       []float64 // per stretch: how much slower than quiet the host ran
	wall       time.Duration
	mallocs    uint64
	allocBytes uint64
	rssPeakMB  float64
}

// measure runs the timed window after the warm-up warm. It starts from a
// collected heap and a cleared RSS peak, so memory is the serving
// footprint and not the set-ups' garbage. The window runs as windowParts
// equal stretches, each with its own op count, elapsed and CPU time and
// its own measure of how fast the host was, so that times are scaled
// stretch by stretch and the noisy metrics reported as medians over
// stretches (see partsMedian).
func (c *client) measure(ring []builtCycle, warm window, seconds float64) measured {
	freshProcessState()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	begin := time.Now()
	m := measured{parts: make([]part, windowParts), win: window{next: warm.next}}
	lat := make([]uint32, 0, int(float64(warm.ops)/warmupShare*1.25))
	for i := range m.parts {
		cpu0 := cpuTime()
		p := c.drive(ring, m.win.next, time.Duration(seconds/windowParts*float64(time.Second)), 0, lat)
		cpu := cpuTime() - cpu0 - p.ref.spent
		slowBy := p.ref.slowdown()
		mine := p.lat[len(lat):]
		for j, ns := range mine {
			mine[j] = clampNs(onQuietHost(time.Duration(ns), slowBy))
		}
		m.parts[i] = part{lat: mine, ops: p.ops, correct: p.correct, elapsed: onQuietHost(p.elapsed, slowBy), cpu: onQuietHost(cpu, slowBy)}
		m.slow = append(m.slow, slowBy)
		lat = p.lat
		m.win.ops, m.win.correct, m.win.observed = m.win.ops+p.ops, m.win.correct+p.correct, m.win.observed+p.observed
		m.win.elapsed, m.win.next = m.win.elapsed+p.elapsed, p.next
	}
	runtime.ReadMemStats(&m1)
	m.wall = time.Since(begin)
	m.rssPeakMB = rssPeakMB()
	m.win.lat = lat
	m.mallocs, m.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return m
}

// timedRun is one untraced run: three set-ups, warm-up, the timed window,
// the output checks, and (on writing workloads) a crash-style reopen.
func timedRun(w workloadSpec, seed int64, seconds float64, wrap func(http.Handler) http.Handler) (*result, error) {
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

	var (
		s      *stack
		c      *client
		setups []float64
		meter  = newSpeedometer()
	)
	for i := 0; i < setupsPerRun; i++ {
		if s != nil {
			tearDown(s)
		}
		var took time.Duration
		if s, c, took, err = setUp(in, root, meter, stackOptions{}); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer func() { tearDown(s) }()
	if wrap != nil {
		c.h = wrap(c.h)
	}

	met := s.mgr.Metrics()
	appends0 := met.Appends.Load()
	fsyncs0 := met.Fsync.Count()

	warm := c.drive(ring, 0, time.Duration(warmupShare*seconds*float64(time.Second)), 0, nil)
	m := c.measure(ring, warm, seconds)
	win, parts, slow := m.win, m.parts, m.slow
	// What the service allocates with no client at all (replay and the
	// views it republishes) is paid per second, not per op: on a slow host
	// fewer ops share it. It is measured here, at rest, and taken out of
	// the per-op allocation metrics; engine.idle_alloc_mb_per_s reports it.
	bgCount, bgBytes := atRest(s)
	bgCount, bgBytes = bgCount*m.wall.Seconds(), bgBytes*m.wall.Seconds()

	var ck checks
	acked := in.samples + warm.observed + win.observed
	if w.writes {
		ck.expect(met.Fsync.Count() > fsyncs0, "no WAL fsync during %d observes: acks are not durable", warm.observed+win.observed)
	} else {
		ck.expect(met.Appends.Load() == appends0, "read-only workload appended %d WAL records", met.Appends.Load()-appends0)
	}

	// The held-out error is taken against the time slice the model was
	// last taught: the preload's on reads, the streamed one on writes.
	truthSlice := preloadSlice
	if w.writes {
		truthSlice = streamSlice
	}
	mre, npre, err := heldoutError(in, c, truthSlice)
	ck.expect(err == nil, "held-out predictions: %v", err)

	s.stopReplay() // freeze the view: the cross-check compares two reads of it
	for _, u := range crossUsers(in) {
		err := crossCheck(in, c, u)
		ck.expect(err == nil, "rank_all vs batch for %s: %v", in.users[u], err)
	}

	if w.writes {
		// Close as a crash would (no final checkpoint) and reopen the
		// store: every acked sample must come back from the WAL.
		s.close()
		re, err := newStack(s.dir, stackOptions{})
		ck.expect(err == nil, "reopen %s: %v", s.dir, err)
		if err == nil {
			if re.rs.HaveCheckpoint {
				got := re.svc.Engine().View().Updates()
				ck.expect(got >= int64(acked), "recovered %d model updates, acked %d samples", got, acked)
			} else {
				ck.expect(re.rs.Samples >= acked, "recovered %d samples from the WAL, acked %d", re.rs.Samples, acked)
			}
			v := re.svc.Engine().View()
			ck.expect(v.NumUsers() == w.users && v.NumServices() == w.services,
				"recovered view has %d users x %d services", v.NumUsers(), v.NumServices())
			re.close()
		}
	}

	res := &result{
		Attempted: c.attempted + ck.attempted,
		Failed:    c.failed + len(ck.failures),
		Metrics:   make(map[string]metricValue, len(endToEnd)),
	}
	res.Correct = res.Failed == 0
	if c.firstErr != nil {
		fmt.Println("FAILED op:", c.firstErr)
	}
	for _, f := range ck.failures {
		fmt.Println("FAILED check:", f)
	}

	groups := groupParts(parts, minTailOps)
	ops := float64(win.ops)
	res.set(endToEnd, "setup_s", stats.Median(setups))
	res.set(endToEnd, "latency_p99_us", partsMedian(groups, func(g part) float64 {
		sorted := slices.Clone(g.lat)
		slices.Sort(sorted)
		return float64(quantileSorted(sorted, 0.99)) / 1e3
	}))
	res.set(endToEnd, "throughput_rps", partsMedian(groups, func(g part) float64 { return float64(g.correct) / g.elapsed.Seconds() }))
	res.set(endToEnd, "cpu_us_per_op", partsMedian(groups, func(g part) float64 { return us(g.cpu) / float64(g.ops) }))
	slices.Sort(win.lat)
	res.set(endToEnd, "latency_p50_us", float64(quantileSorted(win.lat, 0.50))/1e3)
	res.set(endToEnd, "allocs_per_op", (float64(m.mallocs)-bgCount)/ops)
	res.set(endToEnd, "alloc_bytes_per_op", (float64(m.allocBytes)-bgBytes)/ops)
	res.set(endToEnd, "rss_peak_mb", m.rssPeakMB)
	res.set(endToEnd, "heldout_mre", mre)
	res.set(endToEnd, "heldout_npre", npre)

	fmt.Printf("window: %d ops (%d correct) in %.3fs after %d warm-up ops; %d stretches of >=%d ops, %d samples beyond the p99 of the smallest; set-ups %.3fs\n",
		win.ops, win.correct, win.elapsed.Seconds(), warm.ops, len(groups), minTailOps,
		beyond(slices.MinFunc(groups, func(a, b part) int { return a.ops - b.ops }).ops, 0.99), setups)
	slices.Sort(slow)
	fmt.Printf("host slowdown against the quiet seed host, per stretch: min %.2f  median %.2f  max %.2f; as timed the window ran %.1f ops/s\n",
		slow[0], stats.Median(slow), slow[len(slow)-1], float64(win.ops)/win.elapsed.Seconds())
	fmt.Printf("latency us: p90 %.1f  p95 %.1f  p99 %.1f  p99.5 %.1f  p99.9 %.1f  max %.1f\n",
		float64(quantileSorted(win.lat, 0.90))/1e3, float64(quantileSorted(win.lat, 0.95))/1e3,
		float64(quantileSorted(win.lat, 0.99))/1e3, float64(quantileSorted(win.lat, 0.995))/1e3,
		float64(quantileSorted(win.lat, 0.999))/1e3, float64(win.lat[len(win.lat)-1])/1e3)
	for _, m := range endToEnd {
		n := win.ops
		switch m.name {
		case "setup_s":
			n = len(setups)
		case "heldout_mre", "heldout_npre":
			n = len(in.heldout)
		case "rss_peak_mb":
			n = 1
		}
		fmt.Printf("  %-20s %14.4f %-6s n=%d\n", m.name, res.Metrics[m.name].Value, m.unit, n)
	}
	return res, nil
}

// get sends one request outside the window and decodes the answer with
// encoding/json, the way a client library would.
func (c *client) get(r request, out any) error {
	b, err := build("http://gateway", r)
	if err != nil {
		return err
	}
	if _, err := c.send(&b); err != nil {
		return err
	}
	return json.Unmarshal(c.rec.buf.Bytes(), out)
}

// heldoutError predicts the never-observed pairs through the gateway and
// returns the paper's MRE (median relative error) and NPRE (its 90th
// percentile) against the generator's ground truth at the given slice.
func heldoutError(in *inputs, c *client, slice int) (mre, npre float64, err error) {
	errs := make([]float64, 0, len(in.heldout))
	for _, p := range in.heldout {
		var resp server.PredictResponse
		if err := c.get(in.predictRequest(p.user, p.service), &resp); err != nil {
			return 0, 0, err
		}
		truth := in.truth(p, slice)
		errs = append(errs, math.Abs(resp.Value-truth)/truth)
	}
	slices.Sort(errs)
	return quantileSorted(errs, 0.50), quantileSorted(errs, 0.90), nil
}

// crossUsers picks the first few distinct users of the op stream: the
// popular end of the zipf draw, whose vectors the ops touched most.
func crossUsers(in *inputs) []int {
	var out []int
	for _, cy := range in.ring {
		if !slices.Contains(out, cy.user) {
			out = append(out, cy.user)
		}
		if len(out) == crossCheckUsers {
			break
		}
	}
	return out
}

// crossCheck recomputes a user's full-catalog top-k from batch
// predictions of every service and compares it with what rank returned:
// the arena scan and the name-lookup path must agree on one view.
func crossCheck(in *inputs, c *client, u int) error {
	var ranked server.RankResponse
	if err := c.get(in.rankRequest(u, nil, rankAllTopK), &ranked); err != nil {
		return err
	}
	var all []server.BatchPrediction
	const chunk = 5000 // under the server's MaxBatch
	for lo := 0; lo < in.w.services; lo += chunk {
		svcs := make([]int, 0, chunk)
		for s := lo; s < min(lo+chunk, in.w.services); s++ {
			svcs = append(svcs, s)
		}
		var resp server.BatchPredictResponse
		if err := c.get(in.batchRequest(u, svcs), &resp); err != nil {
			return err
		}
		all = append(all, resp.Predictions...)
	}
	slices.SortStableFunc(all, func(a, b server.BatchPrediction) int {
		switch {
		case a.Value < b.Value:
			return -1
		case a.Value > b.Value:
			return 1
		}
		return strings.Compare(a.Service, b.Service)
	})
	if len(ranked.Ranked) != rankAllTopK || len(all) < rankAllTopK {
		return fmt.Errorf("%d ranked of %d predictions", len(ranked.Ranked), len(all))
	}
	for i, r := range ranked.Ranked {
		want := all[i]
		if r.Service != want.Service || math.Abs(r.Value-want.Value) > 1e-9*math.Abs(want.Value) {
			return fmt.Errorf("rank %d is %s=%v, batch says %s=%v", i, r.Service, r.Value, want.Service, want.Value)
		}
	}
	return nil
}
