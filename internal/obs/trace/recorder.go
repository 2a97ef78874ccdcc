package trace

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Config tunes a Recorder. The zero value gets defaults.
type Config struct {
	// Capacity bounds the ring of recently completed spans (default 512).
	Capacity int
	// RetainedCapacity bounds the second ring that keeps slow and failed
	// spans after the recent ring has churned past them — tail-based
	// retention: the interesting traces survive, the bulk does not
	// (default 256).
	RetainedCapacity int
	// SlowThreshold is the duration at or above which a finished span is
	// copied into the retained ring (default 250ms).
	SlowThreshold time.Duration
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 512
	}
	if c.RetainedCapacity <= 0 {
		c.RetainedCapacity = 256
	}
	if c.SlowThreshold <= 0 {
		c.SlowThreshold = 250 * time.Millisecond
	}
	return c
}

// ring is a fixed-capacity overwrite-oldest span buffer.
type ring struct {
	buf  []*Span
	next int
	full bool
}

func newRing(n int) *ring { return &ring{buf: make([]*Span, n)} }

func (r *ring) push(sp *Span) {
	r.buf[r.next] = sp
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// all returns the ring's spans oldest-first.
func (r *ring) all() []*Span {
	if !r.full {
		return r.buf[:r.next]
	}
	out := make([]*Span, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Recorder collects completed spans into two bounded rings: every
// finished span enters the recent ring, and slow or failed spans are
// additionally retained in a second ring so they outlive the recent
// ring's churn. It is an http.Handler serving the rings as JSON —
// mount it at GET /debug/traces.
type Recorder struct {
	cfg Config

	mu       sync.Mutex
	recent   *ring
	retained *ring
	started  uint64
	finished uint64
}

// NewRecorder builds a recorder.
func NewRecorder(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{
		cfg:      cfg,
		recent:   newRing(cfg.Capacity),
		retained: newRing(cfg.RetainedCapacity),
	}
}

// Start creates a span inside an existing trace — the adoption path
// (parent is the caller's span ID from the propagation header, 0 for a
// root) — and starts its clock.
func (r *Recorder) Start(id ID, parent SpanID, name string) *Span {
	r.mu.Lock()
	r.started++
	r.mu.Unlock()
	return &Span{
		Trace: id, ID: nextSpanID(), Parent: parent,
		Name: name, Start: time.Now(), rec: r,
	}
}

// StartChild starts a child span of sp in the same trace. A nil parent
// yields a nil span (recorded nowhere, methods no-op), so callers on
// maybe-traced paths need no guard.
func (r *Recorder) StartChild(sp *Span, name string) *Span {
	if sp == nil {
		return nil
	}
	return r.Start(sp.Trace, sp.ID, name)
}

// record files a finished span (called by Span.Finish).
func (r *Recorder) record(sp *Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finished++
	r.recent.push(sp)
	if sp.Err || sp.Duration >= r.cfg.SlowThreshold {
		r.retained.push(sp)
	}
}

// spanJSON is the wire form of one span in /debug/traces.
type spanJSON struct {
	Span        string             `json:"span"`
	Parent      string             `json:"parent,omitempty"`
	Name        string             `json:"name"`
	Start       time.Time          `json:"start"`
	DurationMS  float64            `json:"duration_ms"`
	Err         bool               `json:"err,omitempty"`
	Annotations map[string]float64 `json:"annotations_ms,omitempty"`
}

// traceJSON groups one trace's local spans.
type traceJSON struct {
	Trace string     `json:"trace"`
	Spans []spanJSON `json:"spans"`
}

// tracesResponse is the GET /debug/traces body.
type tracesResponse struct {
	Traces   []traceJSON `json:"traces"`
	Started  uint64      `json:"spans_started"`
	Finished uint64      `json:"spans_finished"`
}

// snapshot returns the recorder's current contents grouped by trace,
// newest trace first. Spans present in both rings appear once.
func (r *Recorder) snapshot() []traceJSON {
	r.mu.Lock()
	spans := r.recent.all()
	spans = append(spans, r.retained.all()...)
	r.mu.Unlock()

	seen := make(map[*Span]bool, len(spans))
	byTrace := make(map[ID][]*Span)
	order := make([]ID, 0, 16) // trace IDs by first (oldest) appearance
	for _, sp := range spans {
		if seen[sp] {
			continue
		}
		seen[sp] = true
		if _, ok := byTrace[sp.Trace]; !ok {
			order = append(order, sp.Trace)
		}
		byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
	}
	out := make([]traceJSON, 0, len(order))
	for i := len(order) - 1; i >= 0; i-- { // newest first
		id := order[i]
		group := byTrace[id]
		sort.Slice(group, func(a, b int) bool { return group[a].Start.Before(group[b].Start) })
		tj := traceJSON{Trace: id.String(), Spans: make([]spanJSON, 0, len(group))}
		for _, sp := range group {
			sj := spanJSON{
				Span: sp.ID.String(), Name: sp.Name, Start: sp.Start,
				DurationMS: float64(sp.Duration) / 1e6, Err: sp.Err,
			}
			if sp.Parent != 0 {
				sj.Parent = sp.Parent.String()
			}
			if len(sp.Notes) > 0 {
				sj.Annotations = make(map[string]float64, len(sp.Notes))
				for _, a := range sp.Notes {
					sj.Annotations[a.Key] = float64(a.D) / 1e6
				}
			}
			tj.Spans = append(tj.Spans, sj)
		}
		out = append(out, tj)
	}
	return out
}

// ServeHTTP renders the recorder as JSON. Mounted outside the latency
// middleware (like pprof): a debug scrape should not pollute the
// request histograms it exists to explain.
func (r *Recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	traces := r.snapshot()
	if id := req.URL.Query().Get("trace"); id != "" {
		filtered := traces[:0]
		for _, tj := range traces {
			if tj.Trace == id {
				filtered = append(filtered, tj)
			}
		}
		traces = filtered
	}
	r.mu.Lock()
	resp := tracesResponse{Traces: traces, Started: r.started, Finished: r.finished}
	r.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}
