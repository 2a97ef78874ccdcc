package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"slices"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/server"
)

// tiny is a workload small enough to set up in milliseconds; it has the
// adapt_cycle op stream, so every request kind and check runs.
var tiny = workloadSpec{name: "adapt_cycle", users: 40, services: 400, density: 0.15, ring: 32, writes: true}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	a, err := generate(tiny, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generate(tiny, 7)
	c, _ := generate(tiny, 8)
	if a.digest != b.digest {
		t.Errorf("same seed, different request streams: %x vs %x", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Errorf("seeds 7 and 8 generate the same request stream %x", a.digest)
	}
	held := map[pair]bool{}
	for _, p := range a.heldout {
		held[p] = true
	}
	var observes int
	for _, r := range append(slices.Clone(a.preload), ringRequests(a)...) {
		if r.kind != opObserve {
			continue
		}
		observes++
		for _, sm := range samplesOf(a, r, 0) {
			if held[pair{sm.User, sm.Service}] {
				t.Fatalf("held-out pair (%d, %d) is observed by %s", sm.User, sm.Service, r.body)
			}
		}
	}
	if observes == 0 || len(a.heldout) != heldoutPairs {
		t.Errorf("%d observe requests, %d held-out pairs", observes, len(a.heldout))
	}
}

func ringRequests(in *inputs) (out []request) {
	for _, c := range in.ring {
		out = append(out, c.reqs...)
	}
	return out
}

func TestQuantileArithmetic(t *testing.T) {
	for _, tc := range []struct {
		n          int
		q          float64
		rank, over int
	}{
		{1000, 0.99, 990, 10}, {999, 0.99, 990, 9}, {10, 0.5, 5, 5}, {1, 0.99, 1, 0}, {27037, 0.999, 27010, 27},
	} {
		if r, b := rank(tc.n, tc.q), beyond(tc.n, tc.q); r != tc.rank || b != tc.over {
			t.Errorf("n=%d q=%v: rank %d beyond %d, want %d and %d", tc.n, tc.q, r, b, tc.rank, tc.over)
		}
	}
	if got := quantileSorted([]int{10, 20, 30, 40}, 0.5); got != 20 {
		t.Errorf("nearest-rank median of 4 = %d, want 20", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	if q1, _, q3 := quartiles([]float64{3, 1}); q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles of two values = %v, %v, want 0.5, 3.5", q1, q3)
	}
}

func TestGroupPartsKeepsTenBeyondP99(t *testing.T) {
	parts := make([]part, 15)
	for i := range parts {
		parts[i] = part{lat: make([]uint32, 650), ops: 650, correct: 650, elapsed: time.Second, cpu: time.Second}
	}
	groups := groupParts(parts, minTailOps)
	if len(groups) != 7 {
		t.Fatalf("%d groups, want 7", len(groups))
	}
	total := 0
	for _, g := range groups {
		total += g.ops
		if g.ops != len(g.lat) || beyond(g.ops, 0.99) < 10 {
			t.Errorf("group of %d ops (%d latencies) has %d beyond p99", g.ops, len(g.lat), beyond(g.ops, 0.99))
		}
	}
	if total != 15*650 || groups[6].ops != 3*650 || groups[6].elapsed != 3*time.Second {
		t.Errorf("ops %d, last group %+v", total, groups[6].ops)
	}
	if one := groupParts(parts[:1], minTailOps); len(one) != 1 || one[0].ops != 650 {
		t.Errorf("a window below the minimum must stay one group, got %d", len(one))
	}
}

func TestReferenceWorkScalesTimes(t *testing.T) {
	unit := time.Duration(refUnitNs * refSliceUnits)
	var r refTime
	if r.slowdown() != 1 || onQuietHost(time.Second, r.slowdown()) != time.Second {
		t.Errorf("without slices: slowdown %v", r.slowdown())
	}
	// Two slices at twice the quiet time, and one that sat behind a 5 ms
	// stall: the median says 2x, the stall is left out.
	r.add(2 * unit)
	r.add(2 * unit)
	r.add(2*unit + 5*time.Millisecond)
	if got := r.slowdown(); math.Abs(got-2) > 1e-9 {
		t.Errorf("slowdown %v, want 2", got)
	}
	if got := onQuietHost(time.Second, r.slowdown()); got != 500*time.Millisecond {
		t.Errorf("1s at 2x slowdown scales to %v", got)
	}
	if r.spent != 6*unit+5*time.Millisecond {
		t.Errorf("spent %v: every slice's time must come out of the stretch", r.spent)
	}
	m := newSpeedometer()
	if n := testing.AllocsPerRun(50, func() { m.slice() }); n != 0 {
		t.Errorf("the reference work allocates %v times per slice; it runs inside the measured window", n)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "gateway.observe", Parent: -1, Start: 0, End: 100},
		{Name: "server", Parent: 0, Start: 10, End: 90},
		{Name: "store.append", Parent: 1, Start: 20, End: 50},
		{Name: "store.wait_durable", Parent: 1, Start: 40, End: 70}, // overlaps the append by 10
		{Name: "late", Parent: 1, Start: 85, End: 120},              // runs past its parent
	}
	want := []time.Duration{20, 80 - 50 - 5, 30, 30, 35}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestTracerParentsAcrossGoroutines(t *testing.T) {
	tr := &tracer{}
	if tr.begin("off") != -1 {
		t.Fatal("a disabled tracer recorded a span")
	}
	tr.enable(true)
	root := tr.begin("gateway.observe")
	srv := tr.begin("server")
	done := make(chan struct{})
	go func() { // the engine's writer goroutine calling the journal
		sp := tr.begin("store.append")
		tr.end(sp)
		close(done)
	}()
	<-done
	tr.end(srv)
	tr.end(root)
	next := tr.begin("gateway.predict")
	tr.end(next)
	if tr.spans[2].Parent != srv || tr.spans[1].Parent != root || tr.spans[0].Parent != -1 {
		t.Errorf("parents: %+v", tr.spans)
	}
	if tr.spans[2].Request != tr.spans[0].Request || tr.spans[3].Request == tr.spans[0].Request {
		t.Errorf("request ids: %+v", tr.spans)
	}
}

func TestChecksAcceptAnyValidEncoding(t *testing.T) {
	ranked := server.RankResponse{User: "u1", Metric: "rt", Ranked: []server.RankedService{
		{Service: "s1", Value: 0.5}, {Service: "s2", Value: 0.5}, {Service: "s3", Value: 1.25e-1 + 1}}}
	compact, _ := json.Marshal(ranked)
	var indented bytes.Buffer
	json.Indent(&indented, compact, "", "\t")
	reordered := []byte(`{"ranked": [ {"value":0.5 , "service":"s1"}, {"value" : 2, "service" : "s2"} ], "user":"u1"}`)
	for _, tc := range []struct {
		body []byte
		k    int
	}{{compact, 3}, {indented.Bytes(), 3}, {reordered, 2}} {
		if err := checkRanked(tc.body, tc.k); err != nil {
			t.Errorf("%s: %v", tc.body, err)
		}
	}
	for name, body := range map[string]string{
		"short":      `{"ranked":[{"service":"s1","value":1}]}`,
		"unordered":  `{"ranked":[{"service":"s1","value":2},{"service":"s2","value":1}]}`,
		"duplicate":  `{"ranked":[{"service":"s1","value":1},{"service":"s1","value":2}]}`,
		"range":      `{"ranked":[{"service":"s1","value":1},{"service":"s2","value":21}]}`,
		"not-number": `{"ranked":[{"service":"s1","value":1},{"service":"s2","value":null}]}`,
	} {
		if checkRanked([]byte(body), 2) == nil {
			t.Errorf("%s ranking passed: %s", name, body)
		}
	}

	batch, _ := json.Marshal(server.BatchPredictResponse{User: "u1", Predictions: []server.BatchPrediction{
		{Service: "s1", Value: 1, Confidence: 0.5, OK: true}, {Service: "s2", Value: 19.5, OK: true}}})
	if err := checkBatch(batch, 2); err != nil {
		t.Error(err)
	}
	if checkBatch(batch, 3) == nil {
		t.Error("a batch one prediction short passed")
	}
	missing, _ := json.Marshal(server.BatchPredictResponse{Predictions: []server.BatchPrediction{{Service: "s1"}}})
	if checkBatch(missing, 1) == nil {
		t.Errorf("a prediction that is not ok passed: %s", missing)
	}

	obs := request{kind: opObserve, want: 64}
	if err := checkResponse(&obs, 200, []byte(`{"accepted":64,"newUsers":0,"newServices":0}`)); err != nil {
		t.Error(err)
	}
	if checkResponse(&obs, 200, []byte(`{"accepted":63}`)) == nil || checkResponse(&obs, 503, []byte(`{"accepted":64}`)) == nil {
		t.Error("a short or refused observe passed")
	}
	pred := request{kind: opPredict}
	if checkResponse(&pred, 200, []byte(`{"user":"u","service":"s","value":NaN}`)) == nil ||
		checkResponse(&pred, 200, []byte(`{"user":"u","service":"s","value":-0.1}`)) == nil {
		t.Error("a prediction outside the RT range passed")
	}
	if n := testing.AllocsPerRun(100, func() { checkRanked(compact, 3); checkBatch(batch, 2) }); n != 0 {
		t.Errorf("the per-response checks allocate %v times; they run inside the measured window", n)
	}
}

// A whole timed run on the tiny workload: correct on the seed code,
// failed under the corrupting stub, and no data directory left behind.
func TestRunPassesAndCorruptingStubFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole stack")
	}
	res, err := timedRun(tiny, 1, 0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("healthy run: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	for _, m := range endToEnd {
		if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit || !(v.Value > 0) {
			t.Errorf("metric %s = %+v (present %v), want a positive value in %s", m.name, v, ok, m.unit)
		}
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics printed, spec has %d", len(res.Metrics), len(endToEnd))
	}

	bad, err := timedRun(tiny, 1, 0.3, corrupting)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Correct || bad.Failed == 0 {
		t.Errorf("corrupted run: correct=%v failed=%d of %d", bad.Correct, bad.Failed, bad.Attempted)
	}
	if code := run([]string{"--workload", "nope"}); code == 0 {
		t.Error("an unknown workload exited 0")
	}
	live.mu.Lock()
	left := len(live.dirs)
	live.mu.Unlock()
	if left != 0 {
		t.Errorf("%d data directories still registered after the runs", left)
	}
}

func TestInprocTransportIsARoundTrip(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte(`{"error":"x"}`))
	})
	req, _ := http.NewRequest("GET", leaderURL+"/api/v1/predict?user=u", nil)
	resp, err := (&http.Client{Transport: &inproc{h: h}}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusTeapot || resp.ContentLength != int64(body.Len()) || body.String() != `{"error":"x"}` ||
		resp.Header.Get("Content-Type") != "application/json" || resp.Status != "418 I'm a teapot" {
		t.Errorf("response %+v body %q", resp, body.String())
	}
}

// BENCHMARK.json is what the driver holds the benchmark to; it must say
// what the program prints.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(onDisk, &got); err != nil {
		t.Fatal(err)
	}
	json.Unmarshal(benchmarkJSON(), &want)
	g, _ := json.MarshalIndent(got, "", " ")
	w, _ := json.MarshalIndent(want, "", " ")
	if !bytes.Equal(g, w) {
		t.Errorf("BENCHMARK.json differs from spec.go; regenerate it with `go -C bench run . -print-spec > BENCHMARK.json`\nfile: %s\nspec: %s", g, w)
	}
	seen := map[string]bool{}
	for _, m := range append(slices.Clone(endToEnd), perLayer()...) {
		if seen[m.name] {
			t.Errorf("metric %s listed twice", m.name)
		}
		seen[m.name] = true
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better = %q", m.name, m.better)
		}
	}
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, len(w.why))
		}
	}
	if n := len(perLayer()); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
}
