package trace

import (
	"encoding/json"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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

// ring is a fixed-capacity overwrite-oldest buffer of finished spans,
// held by value: push copies a span in, and each slot keeps its notes'
// backing array across overwrites, so a ring that has filled once
// records without allocating.
type ring struct {
	buf  []Span
	next int
	full bool
}

func newRing(n int) *ring { return &ring{buf: make([]Span, n)} }

// push copies sp, notes included, over the oldest slot.
func (r *ring) push(sp *Span) {
	slot := &r.buf[r.next]
	notes := append(slot.Notes[:0], sp.Notes...)
	*slot = *sp
	slot.Notes = notes
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// appendTo appends copies of the ring's spans, oldest first, to dst; the
// copies own their notes, so they outlive the slots they came from.
func (r *ring) appendTo(dst []Span) []Span {
	if r.full {
		dst = appendCopies(dst, r.buf[r.next:])
	}
	return appendCopies(dst, r.buf[:r.next])
}

func appendCopies(dst, spans []Span) []Span {
	for _, sp := range spans {
		sp.Notes = slices.Clone(sp.Notes)
		dst = append(dst, sp)
	}
	return dst
}

// spanPool recycles spans between Finish and the next Start.
var spanPool = sync.Pool{New: func() any { return new(Span) }}

// Recorder collects completed spans into two bounded rings: every
// finished span enters the recent ring, and slow or failed spans are
// additionally retained in a second ring so they outlive the recent
// ring's churn. It is an http.Handler serving the rings as JSON —
// mount it at GET /debug/traces.
type Recorder struct {
	cfg     Config
	started atomic.Uint64

	mu       sync.Mutex
	recent   *ring
	retained *ring
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
// root) — and starts its clock. The span comes from a pool; Finish
// returns it there.
func (r *Recorder) Start(id ID, parent SpanID, name string) *Span {
	r.started.Add(1)
	sp := spanPool.Get().(*Span)
	sp.Trace, sp.ID, sp.Parent, sp.Name, sp.rec = id, nextSpanID(), parent, name, r
	sp.Start = time.Now()
	return sp
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

// record files a copy of a finished span (called by Span.Finish).
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
// newest trace first, with the finished count they reflect. A span
// present in both rings (two copies of it) appears once.
func (r *Recorder) snapshot() (traces []traceJSON, finished uint64) {
	r.mu.Lock()
	spans := r.recent.appendTo(nil)
	spans = r.retained.appendTo(spans)
	finished = r.finished
	r.mu.Unlock()

	type spanKey struct {
		trace ID
		span  SpanID
	}
	seen := make(map[spanKey]bool, len(spans))
	byTrace := make(map[ID][]*Span)
	order := make([]ID, 0, 16) // trace IDs by first (oldest) appearance
	for i := range spans {
		sp := &spans[i]
		k := spanKey{sp.Trace, sp.ID}
		if seen[k] {
			continue
		}
		seen[k] = true
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
	return out, finished
}

// ServeHTTP renders the recorder as JSON. Mounted outside the latency
// middleware (like pprof): a debug scrape should not pollute the
// request histograms it exists to explain.
func (r *Recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	traces, finished := r.snapshot()
	// Read after the rings: every span counted finished was started first,
	// so the page never shows more finished than started.
	started := r.started.Load()
	if id := req.URL.Query().Get("trace"); id != "" {
		filtered := traces[:0]
		for _, tj := range traces {
			if tj.Trace == id {
				filtered = append(filtered, tj)
			}
		}
		traces = filtered
	}
	resp := tracesResponse{Traces: traces, Started: started, Finished: finished}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}
