package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/server"
)

// TestOneStatusOnEveryPath: the same bytes get the same status whether
// they reach the server directly, through a single-group gateway (which
// forwards them without a look) or through a multi-group one (which
// decodes them with the server's codec to route by user). Before the
// shared codec the server's json.Decoder stopped at the first value and
// served bodies with trailing data that the gateway's json.Unmarshal
// refused, and the gateway's routing scan matched "user" by exact case
// where the server folded it.
func TestOneStatusOnEveryPath(t *testing.T) {
	svc, ts := backend(t)
	ts2 := httptest.NewServer(svc.Handler())
	t.Cleanup(ts2.Close)
	single := newGateway(t, [][]string{{ts.URL}}, nil)
	// Two groups over one server: whichever group a user routes to, the
	// answer comes from the same state.
	multi := newGateway(t, [][]string{{ts.URL}, {ts2.URL}}, nil)

	seed := gwReq(t, single, http.MethodPost, "/api/v1/observe", server.ObserveRequest{Observations: []server.Observation{
		{User: "u1", Service: "s1", Value: 1}, {User: "u1", Service: "s2", Value: 2}, {User: "u1", Service: "s3", Value: 3},
	}})
	if seed.Code != http.StatusOK {
		t.Fatalf("seed: HTTP %d %s", seed.Code, seed.Body.String())
	}

	const services = `"services":["s1","s2","s3"]`
	cases := []struct {
		name, body  string
		rank, batch int // the status on /api/v1/rank and on /api/v1/predict
	}{
		{"well formed", `{"user":"u1",` + services + `,"topk":2}`, 200, 200},
		{"trailing junk", `{"user":"u1",` + services + `,"topk":2} trailing-junk`, 400, 400},
		{"two concatenated objects", `{"user":"u1",` + services + `,"topk":2}{"user":"u1",` + services + `,"topk":2}`, 400, 400},
		{"trailing whitespace", `{"user":"u1",` + services + `,"topk":2}` + " \r\n\t", 200, 200},
		// A batch has no topk: there it is an unknown field, any valid value passes.
		{"fractional topk", `{"user":"u1",` + services + `,"topk":2.0}`, 400, 200},
		{"out-of-range topk", `{"user":"u1",` + services + `,"topk":1e999}`, 400, 200},
		{"out-of-range number in an unknown field", `{"user":"u1",` + services + `,"topk":2,"weight":1e999}`, 200, 200},
		{"null user", `{"user":null,` + services + `,"topk":2}`, 400, 400},
		{"null after a user", `{"user":"u1","user":null,` + services + `,"topk":2}`, 200, 200},
		{"upper-case keys", `{"USER":"u1","SERVICES":["s1","s2","s3"],"TOPK":2}`, 200, 200},
		{"last duplicate user wins", `{"user":"ghost","user":"u1",` + services + `,"topk":2}`, 200, 200},
		// A batch for an unknown user is 200 with ok:false rows.
		{"last duplicate user is unknown", `{"user":"u1","user":"ghost",` + services + `,"topk":2}`, 404, 200},
		{"numeric user", `{"user":7,` + services + `,"topk":2}`, 400, 400},
		{"not an object", `["u1"]`, 400, 400},
		{"null document", `null`, 400, 400},
		{"empty body", ``, 400, 400},
	}
	post := func(h http.Handler, path, body string) int {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return w.Code
	}
	for _, tc := range cases {
		for _, path := range []string{"/api/v1/rank", "/api/v1/predict"} {
			want := tc.rank
			if path == "/api/v1/predict" {
				want = tc.batch
			}
			direct := post(svc.Handler(), path, tc.body)
			viaSingle := post(single.Handler(), path, tc.body)
			viaMulti := post(multi.Handler(), path, tc.body)
			if direct != want || viaSingle != want || viaMulti != want {
				t.Errorf("%s %s: server %d, gateway %d, multi-group gateway %d; want %d on all three",
					path, tc.name, direct, viaSingle, viaMulti, want)
			}
		}
	}

	// An observe is applied whole or refused whole on every path: the
	// multi-group gateway holds a batch to the server's checks before any
	// shard gets its part, so one bad observation trains no other group.
	known, fresh := usersPerGroup(multi, "known"), usersPerGroup(multi, "fresh")
	obs := func(user, value string) string {
		return `{"user":"` + user + `","service":"s1","value":` + value + `}`
	}
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"well formed", `{"observations":[` + obs(known[0], "1") + `,` + obs(known[1], "2") + `]}`, 200},
		{"one bad value spanning both groups", `{"observations":[` + obs(fresh[0], "1") + `,` + obs(fresh[1], "-1") + `]}`, 400},
		{"empty user", `{"observations":[` + obs("", "1") + `]}`, 400},
		{"trailing junk", `{"observations":[` + obs(known[0], "1") + `]} trailing-junk`, 400},
		{"null document", `null`, 400},
		{"no observations", `{"observations":[]}`, 400},
	} {
		const path = "/api/v1/observe"
		direct := post(svc.Handler(), path, tc.body)
		viaSingle := post(single.Handler(), path, tc.body)
		viaMulti := post(multi.Handler(), path, tc.body)
		if direct != tc.want || viaSingle != tc.want || viaMulti != tc.want {
			t.Errorf("%s %s: server %d, gateway %d, multi-group gateway %d; want %d on all three",
				path, tc.name, direct, viaSingle, viaMulti, tc.want)
		}
	}
	for _, user := range fresh {
		w := httptest.NewRecorder()
		svc.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/predict?user="+user+"&service=s1", nil))
		if w.Code != http.StatusNotFound {
			t.Errorf("predict for %s, whose only observations were in refused batches: HTTP %d, want 404", user, w.Code)
		}
	}
}

// usersPerGroup returns a user name per shard group of g, in group order,
// each routed to its group.
func usersPerGroup(g *Gateway, prefix string) []string {
	users := make([]string, len(g.groups))
	for i, left := 0, len(users); left > 0; i++ {
		u := fmt.Sprintf("%s-%d", prefix, i)
		k := slices.Index(g.groups, g.groupFor(u))
		if users[k] == "" {
			users[k] = u
			left--
		}
	}
	return users
}

// TestGatewayForwardsCandidatesVerbatim: a batch or rank body reaches one
// backend byte for byte as the client sent it, and the backend's answer
// reaches the client the same way. A single-group gateway does not look at
// the body at all, so even a malformed one is the backend's to refuse; a
// multi-group one decodes it only to route by user, the last of duplicate
// "user" keys as the server reads it.
func TestGatewayForwardsCandidatesVerbatim(t *testing.T) {
	const answer = `{"from":"backend"}` + "\n"
	var (
		mu   sync.Mutex
		hits = map[string][]string{} // backend URL → "path body" of each request it served
	)
	newBackend := func() string {
		var ts *httptest.Server
		ts = statusBackend(t, func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			mu.Lock()
			hits[ts.URL] = append(hits[ts.URL], r.URL.Path+" "+string(body))
			mu.Unlock()
			_, _ = io.WriteString(w, answer)
		})
		return ts.URL
	}
	served := func() map[string][]string {
		mu.Lock()
		defer mu.Unlock()
		got := hits
		hits = map[string][]string{}
		return got
	}
	post := func(g *Gateway, path, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		g.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return w
	}
	paths := []string{"/api/v1/predict", "/api/v1/rank"}

	only := newBackend()
	single := newGateway(t, [][]string{{only}}, nil)
	for _, path := range paths {
		for _, body := range []string{
			`{"user":"u1","services":["s1","s2"]}`,
			"{ \"USER\" : \"u1\",\n\t\"services\" : [\"s\\u0031\"], \"topk\":2 }  ",
			`{"user":"ghost","user":"u1","services":["s1"],"topk":1}`,
			`{"user":`,
		} {
			w := post(single, path, body)
			got := served()
			if w.Code != http.StatusOK || w.Body.String() != answer {
				t.Errorf("single group, %s %q: HTTP %d %q, want the backend's answer verbatim", path, body, w.Code, w.Body)
			}
			if len(got) != 1 || len(got[only]) != 1 || got[only][0] != path+" "+body {
				t.Errorf("single group, %s %q: backends received %q", path, body, got)
			}
		}
	}

	a, b := newBackend(), newBackend()
	multi := newGateway(t, [][]string{{a}, {b}}, nil)
	owner := func(user string) string { return multi.groupAt(hash64(user)).replicas[0].url }
	first, last := "u0", ""
	for i := 1; last == ""; i++ {
		if u := fmt.Sprint("u", i); owner(u) != owner(first) {
			last = u
		}
	}
	for _, path := range paths {
		for _, body := range []string{
			`{"user":"` + first + `","services":["s1"],"user":"` + last + `"}`,
			`{"user":"` + first + `","user":"` + last + `","services":["s1","s2"],"topk":1}`,
		} {
			w := post(multi, path, body)
			got := served()
			if w.Code != http.StatusOK || w.Body.String() != answer {
				t.Errorf("multi-group, %s %q: HTTP %d %q, want the backend's answer verbatim", path, body, w.Code, w.Body)
			}
			if len(got) != 1 || len(got[owner(last)]) != 1 || got[owner(last)][0] != path+" "+body {
				t.Errorf("multi-group, %s %q: backends received %q; want only %s's group (%s) to, verbatim", path, body, got, last, owner(last))
			}
		}
		if w := post(multi, path, `{"user":`); w.Code != http.StatusBadRequest || len(served()) != 0 {
			t.Errorf("multi-group, %s of a malformed body: HTTP %d, want 400 without a backend call", path, w.Code)
		}
	}
}

// TestGatewayBodyBound: past server.MaxBodyBytes, the bound the servers
// apply, the gateway answers 413 on every proxied path, the status the
// server gives for its own bound. The body streams without a declared
// length, so the bound is crossed while reading, and it repeats one
// byte, so the test holds no 64 MiB body of its own.
func TestGatewayBodyBound(t *testing.T) {
	_, ts := backend(t)
	g := newGateway(t, [][]string{{ts.URL}}, nil)
	for _, path := range []string{"/api/v1/observe", "/api/v1/predict", "/api/v1/rank"} {
		w := httptest.NewRecorder()
		body := io.LimitReader(repeatByte('s'), server.MaxBodyBytes+1)
		g.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, body))
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a body one byte past server.MaxBodyBytes: HTTP %d, want 413", path, w.Code)
		}
	}
}

// repeatByte is an endless reader of one byte.
type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestGatewayFullScanTopKBound: a full-scan rank asking for more results
// than the shard's MaxBatch is refused by the shard, and the gateway hands
// the refusal — 413 and the shard's error body — through whether or not
// it routes, as it does for an oversized candidate list.
func TestGatewayFullScanTopKBound(t *testing.T) {
	svc, ts := backend(t)
	ts2 := httptest.NewServer(svc.Handler())
	t.Cleanup(ts2.Close)
	single := newGateway(t, [][]string{{ts.URL}}, nil)
	multi := newGateway(t, [][]string{{ts.URL}, {ts2.URL}}, nil)
	seed := gwReq(t, single, http.MethodPost, "/api/v1/observe", server.ObserveRequest{Observations: []server.Observation{
		{User: "u1", Service: "s1", Value: 1}, {User: "u1", Service: "s2", Value: 2},
	}})
	if seed.Code != http.StatusOK {
		t.Fatalf("seed: HTTP %d %s", seed.Code, seed.Body.String())
	}
	for name, g := range map[string]*Gateway{"single-group": single, "multi-group": multi} {
		over := gwReq(t, g, http.MethodPost, "/api/v1/rank", server.RankRequest{User: "u1", TopK: 1_000_000_000})
		var e struct{ Error string }
		if err := json.Unmarshal(over.Body.Bytes(), &e); over.Code != http.StatusRequestEntityTooLarge || err != nil || !strings.Contains(e.Error, "exceeds limit") {
			t.Errorf("%s gateway, topk past MaxBatch: HTTP %d %s, want the shard's 413", name, over.Code, over.Body)
		}
		if at := gwReq(t, g, http.MethodPost, "/api/v1/rank", server.RankRequest{User: "u1", TopK: svc.MaxBatch}); at.Code != http.StatusOK {
			t.Errorf("%s gateway, topk at MaxBatch: HTTP %d %s, want 200", name, at.Code, at.Body)
		}
	}
}

// TestHash64IsFNV1a: placement must not move — the written-out hash is
// hash/fnv's, for a string and for the same bytes.
func TestHash64IsFNV1a(t *testing.T) {
	for _, key := range []string{"", "u", "user-17", "shard-0#127", "é世界", strings.Repeat("k", 300)} {
		h := fnv.New64a()
		h.Write([]byte(key))
		if hash64(key) != h.Sum64() || hash64([]byte(key)) != h.Sum64() {
			t.Errorf("hash64(%q) = %x / %x, fnv-1a = %x", key, hash64(key), hash64([]byte(key)), h.Sum64())
		}
	}
}

// ---------------------------------------------------------------------------
// Allocation shape.

func candidateBody(n int, tail string) []byte {
	var b bytes.Buffer
	b.WriteString(`{"user":"u0001","services":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"s%05d"`, i)
	}
	b.WriteString("]" + tail + "}")
	return b.Bytes()
}

// TestRoutingScanAllocatesNothing: what the gateway does to a body to
// route it — decode it once with the shared codec and hash the user —
// allocates nothing, on the benchmark's 200-candidate rank body.
func TestRoutingScanAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	g := &Gateway{ring: NewRing(0), byName: map[string]*group{}}
	g.ring.Add("shard-0")
	body := candidateBody(200, `,"topk":10`)
	scan := func() {
		d := server.AcquireDecoder()
		q, err := d.Rank(body, math.MaxInt)
		if err != nil || len(q.Services) != 200 {
			t.Fatalf("decode: %d services, %v", len(q.Services), err)
		}
		g.groupAt(hash64(q.User))
		d.Release()
	}
	scan()
	if allocs := testing.AllocsPerRun(50, scan); allocs != 0 {
		t.Errorf("routing scan of a 200-candidate body allocates %v times, want 0", allocs)
	}
}

// cannedBackend is a backend transport that answers every request with
// the same small body, so that what a run allocates is the gateway's
// doing and not a function of the response. Like every RoundTripper it
// closes the request body it was handed.
type cannedBackend struct{ status []byte }

func (c cannedBackend) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	body := []byte("{}\n")
	if req.URL.Path == "/api/v1/cluster/status" {
		body = c.status
	}
	return &http.Response{
		StatusCode: http.StatusOK, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)), Request: req,
	}, nil
}

type discard struct {
	h    http.Header
	code int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(code int)        { d.code = code }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }

// TestGatewayAllocationsFlat: a single-replica gateway forwards a rank
// or batch request at the same allocation count for 200 candidates as
// for 2000 — one body buffer whatever its length, and nothing per name.
func TestGatewayAllocationsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	status, err := json.Marshal(server.ClusterStatusResponse{Role: "leader"})
	if err != nil {
		t.Fatal(err)
	}
	g := newGateway(t, [][]string{{"http://leader"}}, func(c *Config) {
		c.ProbeInterval = time.Hour
		c.HTTP = &http.Client{Transport: cannedBackend{status: status}}
	})
	for _, route := range []struct{ name, path, tail string }{
		{"batch", "/api/v1/predict", ""},
		{"rank", "/api/v1/rank", `,"topk":10`},
	} {
		var counts []float64
		for _, n := range []int{200, 2000} {
			body := candidateBody(n, route.tail)
			rd := bytes.NewReader(body)
			req := httptest.NewRequest(http.MethodPost, route.path, rd)
			out := &discard{h: make(http.Header)}
			serve := func() {
				rd.Reset(body)
				clear(out.h)
				g.Handler().ServeHTTP(out, req)
			}
			if serve(); out.code != http.StatusOK {
				t.Fatalf("%s of %d: HTTP %d", route.name, n, out.code)
			}
			counts = append(counts, testing.AllocsPerRun(20, serve))
		}
		if counts[0] != counts[1] {
			t.Errorf("gateway %s allocates %v times for 200 candidates and %v for 2000", route.name, counts[0], counts[1])
		}
		t.Logf("gateway %s: %v allocations per request", route.name, counts[0])
	}
}

// TestGatewayConcurrentForward proxies the hot routes from several
// goroutines at once through one single-replica gateway — pooled
// decoders, one parsed URL and one set of header values shared by every
// outgoing request — and checks each answer against its own request.
func TestGatewayConcurrentForward(t *testing.T) {
	_, ts := backend(t)
	g := newGateway(t, [][]string{{ts.URL}}, nil)
	const workers, rounds, services = 8, 25, 20
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			errs <- func() error {
				user := fmt.Sprintf("gu%d", w)
				names := make([]string, services)
				obs := make([]server.Observation, services)
				for i := range names {
					names[i] = fmt.Sprintf("gs%d-%d", w, i)
					obs[i] = server.Observation{User: user, Service: names[i], Value: 1 + float64((w+i)%5)}
				}
				call := func(method, path string, body, out any) error {
					var rd io.Reader
					if body != nil {
						raw, err := json.Marshal(body)
						if err != nil {
							return err
						}
						rd = bytes.NewReader(raw)
					}
					rec := httptest.NewRecorder()
					g.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, rd))
					if rec.Code != http.StatusOK {
						return fmt.Errorf("%s %s: HTTP %d %s", method, path, rec.Code, rec.Body.String())
					}
					return json.Unmarshal(rec.Body.Bytes(), out)
				}
				for r := 0; r < rounds; r++ {
					var or server.ObserveResponse
					if err := call(http.MethodPost, "/api/v1/observe", server.ObserveRequest{Observations: obs}, &or); err != nil {
						return err
					} else if or.Accepted != services {
						return fmt.Errorf("%s: accepted %d of %d", user, or.Accepted, services)
					}
					var br server.BatchPredictResponse
					if err := call(http.MethodPost, "/api/v1/predict", server.BatchPredictRequest{User: user, Services: names}, &br); err != nil {
						return err
					} else if br.User != user || len(br.Predictions) != services || br.Predictions[0].Service != names[0] {
						return fmt.Errorf("%s: batch answered for %q with %d rows", user, br.User, len(br.Predictions))
					}
					var rr server.RankResponse
					if err := call(http.MethodPost, "/api/v1/rank", server.RankRequest{User: user, Services: names, TopK: 3}, &rr); err != nil {
						return err
					} else if rr.User != user || len(rr.Ranked) != 3 || !strings.HasPrefix(rr.Ranked[0].Service, fmt.Sprintf("gs%d-", w)) {
						return fmt.Errorf("%s: rank answered %+v", user, rr)
					}
					var pr server.PredictResponse
					if err := call(http.MethodGet, "/api/v1/predict?user="+user+"&service="+names[r%services], nil, &pr); err != nil {
						return err
					} else if pr.User != user || pr.Service != names[r%services] {
						return fmt.Errorf("%s: predict answered for (%q, %q)", user, pr.User, pr.Service)
					}
				}
				return nil
			}()
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
