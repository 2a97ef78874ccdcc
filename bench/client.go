package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// builtRequest is a request ready to hand to a handler: the
// *http.Request is built once and reused on every lap of the ring.
type builtRequest struct {
	request
	req *http.Request
}

type builtCycle struct{ reqs []builtRequest }

// replayBody is the one request body the client owns: with one op in
// flight it is rewound onto the next request's bytes instead of
// allocating a reader per op.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

func build(base string, r request) (builtRequest, error) {
	u, err := url.Parse(base + r.path)
	if err != nil {
		return builtRequest{}, err
	}
	req := &http.Request{
		Method: r.method, URL: u, Host: u.Host, RequestURI: r.path,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header, 2), ContentLength: int64(len(r.body)),
	}
	if r.body != nil {
		req.Header["Content-Type"] = []string{"application/json"}
	}
	return builtRequest{request: r, req: req}, nil
}

func buildRing(ring []cycle) ([]builtCycle, error) {
	out := make([]builtCycle, len(ring))
	for i, c := range ring {
		out[i] = builtCycle{reqs: make([]builtRequest, len(c.reqs))}
		for j, r := range c.reqs {
			b, err := build("http://gateway", r)
			if err != nil {
				return nil, err
			}
			out[i].reqs[j] = b
		}
	}
	return out, nil
}

// client is the closed-loop load generator: one goroutine, one op in
// flight, each request a direct call into the handler under test.
type client struct {
	h    http.Handler
	rec  *recorder
	body replayBody

	// Set only in the traced run: tr records a root span per request,
	// byKind keeps each request's latency under its op kind.
	tr     *tracer
	byKind *[numOps][]uint32

	// meter, when set, is run between ops by drive (see calib.go).
	meter *speedometer

	attempted int
	failed    int
	firstErr  error
}

func newClient(h http.Handler) *client { return &client{h: h, rec: newRecorder()} }

// send issues one request, timed from handler entry to response complete,
// then checks the response; a wrong response counts as a failed op and is
// returned as the error.
func (c *client) send(r *builtRequest) (time.Duration, error) {
	c.rec.reset()
	r.req.Body = http.NoBody
	if r.body != nil {
		c.body.Reset(r.body)
		r.req.Body = &c.body
	}
	sp := -1
	if c.tr != nil {
		sp = c.tr.begin("gateway." + r.kind.String())
	}
	t0 := time.Now()
	c.h.ServeHTTP(c.rec, r.req)
	took := time.Since(t0)
	if c.tr != nil {
		c.tr.end(sp)
	}
	if c.byKind != nil {
		c.byKind[r.kind] = append(c.byKind[r.kind], clampNs(took))
	}
	c.attempted++
	if err := checkResponse(&r.request, c.rec.code, c.rec.buf.Bytes()); err != nil {
		err = fmt.Errorf("%s %s: %w", r.method, r.path, err)
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
		return took, err
	}
	return took, nil
}

// do runs one op (every request of the cycle). Its latency is the time
// spent inside the handler, summed over the cycle; it is correct only if
// every response was.
func (c *client) do(op *builtCycle) (time.Duration, bool) {
	total, ok := time.Duration(0), true
	for i := range op.reqs {
		took, err := c.send(&op.reqs[i])
		total += took
		ok = ok && err == nil
	}
	return total, ok
}

func clampNs(d time.Duration) uint32 { return uint32(min(d, time.Duration(math.MaxUint32))) }

// wireClient sends the same requests over a real socket; only the
// ungated client.wire_* diagnostics use it.
type wireClient struct {
	hc   *http.Client
	base string
}

func (w *wireClient) send(r *request) error {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, w.base+r.path, body)
	if err != nil {
		return err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return checkResponse(r, resp.StatusCode, b)
}

// corrupting wraps a handler so that every answer is wrong in the way
// its check looks for; a run through it must fail.
func corrupting(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := newRecorder()
		h.ServeHTTP(rec, r)
		body := bytes.ReplaceAll(rec.buf.Bytes(), []byte(`"value":`), []byte(`"value":-`))
		body = bytes.ReplaceAll(body, []byte(`"accepted":`), []byte(`"accepted":1`))
		w.WriteHeader(rec.code)
		io.Copy(w, bytes.NewReader(body))
	})
}

// ---------------------------------------------------------------------------
// Output checks. They run on every response inside the measured window,
// so they read the JSON with a small allocation-free scanner instead of
// encoding/json: the scanner looks values up by key and tolerates any
// whitespace and field order a valid encoder may choose.

func checkResponse(r *request, code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(body))
	}
	switch r.kind {
	case opPredict:
		at := valueAfterKey(body, 0, "value")
		v, _, ok := scanNumber(body, at)
		if !ok || !inRange(v) {
			return fmt.Errorf("prediction not a number in [%g, %g]: %s", rtMin, rtMax, body)
		}
	case opObserve:
		at := valueAfterKey(body, 0, "accepted")
		v, _, ok := scanNumber(body, at)
		if !ok || int(v) != r.want {
			return fmt.Errorf("accepted %v of %d observations", v, r.want)
		}
	case opBatch:
		return checkBatch(body, r.want)
	case opRankCand, opRankAll:
		return checkRanked(body, r.want)
	}
	return nil
}

func inRange(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= rtMin && v <= rtMax
}

// checkBatch wants every one of the n candidates predicted, each in range.
func checkBatch(body []byte, n int) error {
	at := valueAfterKey(body, 0, "predictions")
	if at < 0 || body[at] != '[' {
		return fmt.Errorf("no predictions array")
	}
	count := 0
	for at = nextObject(body, at+1); at >= 0; count++ {
		end := bytes.IndexByte(body[at:], '}')
		if end < 0 {
			return fmt.Errorf("unterminated prediction")
		}
		obj := body[at : at+end+1]
		okAt := valueAfterKey(obj, 0, "ok")
		if okAt < 0 || !bytes.HasPrefix(obj[okAt:], []byte("true")) {
			return fmt.Errorf("prediction %d not ok: %s", count, obj)
		}
		v, _, ok := scanNumber(obj, valueAfterKey(obj, 0, "value"))
		if !ok || !inRange(v) {
			return fmt.Errorf("prediction %d out of range: %s", count, obj)
		}
		at = nextObject(body, at+end+1)
	}
	if count != n {
		return fmt.Errorf("%d predictions for %d candidates", count, n)
	}
	return nil
}

// checkRanked wants exactly k entries, best (lowest response time)
// first, every value in range and no service twice.
func checkRanked(body []byte, k int) error {
	at := valueAfterKey(body, 0, "ranked")
	if at < 0 || body[at] != '[' {
		return fmt.Errorf("no ranked array")
	}
	var names [32][]byte
	count, prev := 0, math.Inf(-1)
	for at = nextObject(body, at+1); at >= 0; count++ {
		end := bytes.IndexByte(body[at:], '}')
		if end < 0 {
			return fmt.Errorf("unterminated ranked entry")
		}
		obj := body[at : at+end+1]
		v, _, ok := scanNumber(obj, valueAfterKey(obj, 0, "value"))
		if !ok || !inRange(v) {
			return fmt.Errorf("ranked entry %d out of range: %s", count, obj)
		}
		if v < prev {
			return fmt.Errorf("ranking not best first at entry %d: %s", count, body)
		}
		prev = v
		name, ok := scanString(obj, valueAfterKey(obj, 0, "service"))
		if !ok {
			return fmt.Errorf("ranked entry %d has no service: %s", count, obj)
		}
		for _, seen := range names[:min(count, len(names))] {
			if bytes.Equal(seen, name) {
				return fmt.Errorf("service %s ranked twice", name)
			}
		}
		if count < len(names) {
			names[count] = name
		}
		at = nextObject(body, at+end+1)
	}
	if count != k {
		return fmt.Errorf("%d ranked entries, want %d", count, k)
	}
	return nil
}

// valueAfterKey returns the index of the first byte of the value of the
// first `"key":` at or after from, or -1.
func valueAfterKey(b []byte, from int, key string) int {
	for from >= 0 && from < len(b) {
		i := bytes.Index(b[from:], []byte(key))
		if i < 0 {
			return -1
		}
		i += from
		j := i + len(key)
		if i > 0 && b[i-1] == '"' && j < len(b) && b[j] == '"' {
			j = skipSpace(b, j+1)
			if j < len(b) && b[j] == ':' {
				if j = skipSpace(b, j+1); j < len(b) {
					return j
				}
			}
		}
		from = i + len(key)
	}
	return -1
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// nextObject returns the index of the next '{' before the array closes.
func nextObject(b []byte, from int) int {
	for i := from; i < len(b); i++ {
		switch b[i] {
		case '{':
			return i
		case ']':
			return -1
		}
	}
	return -1
}

func scanNumber(b []byte, at int) (v float64, end int, ok bool) {
	if at < 0 {
		return 0, at, false
	}
	end = at
	for end < len(b) && (b[end] == '-' || b[end] == '+' || b[end] == '.' || b[end] == 'e' || b[end] == 'E' || (b[end] >= '0' && b[end] <= '9')) {
		end++
	}
	v, err := strconv.ParseFloat(string(b[at:end]), 64)
	return v, end, err == nil
}

func scanString(b []byte, at int) ([]byte, bool) {
	if at < 0 || at >= len(b) || b[at] != '"' {
		return nil, false
	}
	end := bytes.IndexByte(b[at+1:], '"')
	if end < 0 {
		return nil, false
	}
	return b[at+1 : at+1+end], true
}
